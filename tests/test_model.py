"""Model polynomials: curvature, Q extraction, root splits, winding."""

from __future__ import annotations

import numpy as np
import pytest

from discforge.exceptions import ConfigError, NumericalError
from discforge.model import (
    ModelPolynomial,
    check_subharmonic,
    compute_Q,
    d_z,
    d_zbar,
    eval_mon,
    factor_Q,
    random_admissible_model,
    winding_number,
)
from discforge.series import Powers, TrigSeries, coeff_distance, multiply


def _model_d4k3():
    # quarter-weighted asymmetric example used throughout: a3 = a1bar = 1/4, a2 = 1
    return ModelPolynomial.from_upper(4, 3, {3: 0.25, 2: 1.0})


def _abs_power_model(d, lam=1.0):
    return ModelPolynomial.from_upper(d, d // 2, {d // 2: lam})


def test_constructor_validation():
    with pytest.raises(ConfigError):
        ModelPolynomial.from_upper(3, 2, {2: 1.0})  # odd degree
    with pytest.raises(ConfigError):
        ModelPolynomial.from_upper(4, 4, {2: 1.0})  # k0 > d-1
    with pytest.raises(ConfigError):
        ModelPolynomial.from_upper(4, 1, {2: 1.0})  # k0 < d/2
    with pytest.raises(ConfigError):
        ModelPolynomial.from_upper(4, 3, {2: 1.0})  # a[k0] = 0
    with pytest.raises(ConfigError):
        ModelPolynomial.from_upper(4, 2, {2: 1.0 + 0.5j})  # middle must be real
    with pytest.raises(ConfigError):
        ModelPolynomial(4, 3, {3: 0.25})  # missing mirror coefficient


def _p_zzbar(model, z):
    z = np.asarray(z, dtype=complex)
    return eval_mon(d_z(d_zbar(model.mon)), z, np.conj(z), 0.0)


def _random_models(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.choice([2, 4, 6, 8]))
        k0 = int(rng.integers(d // 2, d))
        yield random_admissible_model(rng, d, k0)


def test_curvature_frozen_value():
    m = _model_d4k3()
    assert _p_zzbar(m, 1.0).real == pytest.approx(5.5, abs=1e-14)
    # gamma values: 3/4, 4, 3/4
    assert m.gamma(1) == pytest.approx(0.75)
    assert m.gamma(2) == pytest.approx(4.0)
    assert m.gamma(3) == pytest.approx(0.75)


def test_subharmonic_margins():
    assert check_subharmonic(_abs_power_model(4)) == pytest.approx(4.0, abs=1e-12)
    # 4 + 1.5 cos(2 phi) has minimum 2.5
    assert check_subharmonic(_model_d4k3()) == pytest.approx(2.5, abs=1e-10)
    bad = ModelPolynomial.from_upper(4, 3, {3: 1.0, 2: 0.1})
    assert check_subharmonic(bad) < 0.0


def test_curvature_is_homogeneous_of_degree_d_minus_2():
    # check_subharmonic reads P_zzbar on the unit circle only; every other
    # radius must give r^(d-2) times the same values
    angles = np.exp(2j * np.pi * np.arange(256) / 256)
    radii = np.linspace(1.0 / 64, 1.0, 64)
    for m in _random_models(7, 24):
        circle = _p_zzbar(m, angles).real
        scale = float(np.max(np.abs(circle)))
        assert check_subharmonic(m) == float(np.min(circle))
        for r in radii:
            ratio = _p_zzbar(m, r * angles).real / r ** (m.d - 2)
            assert np.max(np.abs(ratio - circle)) <= 1e-12 * scale, (m.d, m.k0, r)


def test_monomial_derivatives_match_the_closed_forms():
    # P_z = sum j a[j] z^(j-1) zbar^(d-j) and P_zzbar = sum j (d-j) a[j] z^(j-1) zbar^(d-j-1)
    rng = np.random.default_rng(11)
    for m in _random_models(5, 24):
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        zb = np.conj(z)
        d = m.d
        p_z = sum(j * a * z ** (j - 1) * zb ** (d - j) for j, a in m.alpha.items() if j >= 1)
        p_zzbar = sum(
            j * (d - j) * a * z ** (j - 1) * zb ** (d - j - 1) for j, a in m.alpha.items() if 1 <= j <= d - 1
        )
        got_z = eval_mon(d_z(m.mon), z, zb, 0.0)
        scale = np.abs(z) ** (d - 1) * sum(abs(a) for a in m.alpha.values()) * d
        assert np.max(np.abs(got_z - p_z) / scale) <= 1e-13
        scale = scale * d / np.abs(z)
        assert np.max(np.abs(_p_zzbar(m, z) - p_zzbar) / scale) <= 1e-13


def test_compute_Q_frozen_cases():
    q = compute_Q(_model_d4k3())
    assert q.coeff(0) == 0.0
    assert q.coeff(1) == pytest.approx(0.75)
    assert q.coeff(2) == pytest.approx(-4.0)
    assert q.coeff(3) == pytest.approx(0.75)
    for d in (2, 4, 6):
        q = compute_Q(_abs_power_model(d))
        expect = (-1.0) ** (d // 2 - 1) * d * d / 4.0
        assert q.coeff(1) == pytest.approx(expect, abs=1e-13)
        assert sum(abs(q.coeff(n)) for n in range(2, q.n_max + 1)) == 0.0


def test_Q_identity_on_circle():
    # zeta^k0 * P_zzbar(1-zeta, 1-conj zeta) == (zeta-1)^(d-2) * Q(zeta)
    for m in (_model_d4k3(), _abs_power_model(4), _abs_power_model(6)):
        om = TrigSeries.from_mode_dict({0: 1.0, 1: -1.0})
        omc = om.conjugate()
        lhs = TrigSeries.zero()
        for j in range(m.d - m.k0, m.k0 + 1):
            if j < 1 or j > m.d - 1:
                continue
            lhs = lhs + multiply(Powers(om)[j - 1], Powers(omc)[m.d - 1 - j]).scale(m.gamma(j))
        lhs = lhs.shift(m.k0)
        rhs = multiply(
            Powers(TrigSeries.from_mode_dict({0: -1.0, 1: 1.0}))[m.d - 2], compute_Q(m)
        )
        assert coeff_distance(lhs, rhs) < 1e-12


def test_factor_Q_frozen_roots():
    fac = factor_Q(_model_d4k3())
    # quadratic formula oracle for 3 x^2 - 16 x + 3
    r_exact = (8.0 - np.sqrt(55.0)) / 3.0
    q_exact = (8.0 + np.sqrt(55.0)) / 3.0
    assert fac.ell0 == 1 and fac.i0 == 1 and fac.ell1 == 1
    assert fac.roots_inside[0][0] == pytest.approx(r_exact, abs=1e-12)
    assert fac.roots_inside[0][1] == 1
    assert fac.roots_outside[0] == pytest.approx(q_exact, abs=1e-12)
    assert fac.constant == pytest.approx(0.75, abs=1e-12)
    assert coeff_distance(fac.q_poly(), compute_Q(_model_d4k3())) < 1e-12


def test_factor_Q_monomial_case():
    fac = factor_Q(_abs_power_model(4))
    assert fac.ell0 == 0 and fac.i0 == 0
    assert fac.constant == pytest.approx(-4.0)
    assert fac.s_poly().coeff(0) == 1.0 and fac.t_poly().coeff(0) == 1.0


def test_winding_numbers():
    fac = factor_Q(_model_d4k3())
    q1 = fac.roots_outside[0]
    r1 = fac.roots_inside[0][0]
    assert winding_number(TrigSeries.from_mode_dict({0: q1, 1: -1.0})) == 0
    assert winding_number(TrigSeries.from_mode_dict({0: r1, 1: -1.0})) == 1
    assert winding_number(TrigSeries.monomial(3)) == 3
    with pytest.raises(NumericalError):
        winding_number(TrigSeries.from_mode_dict({0: 1.0, 1: -1.0}))


def test_random_models_are_admissible():
    rng = np.random.default_rng(42)
    for d, k0 in ((2, 1), (4, 2), (4, 3), (6, 3), (6, 4), (6, 5)):
        for _ in range(4):
            m = random_admissible_model(rng, d, k0)
            assert check_subharmonic(m) > 0.0
            fac = factor_Q(m)
            assert fac.ell0 == fac.i0 == k0 - d // 2
            for r, _mult in fac.roots_inside:
                assert abs(r) < 1.0 - 1e-8
            for q in fac.roots_outside:
                assert abs(q) > 1.0 + 1e-8


def test_circle_pinned_root_is_a_hypothesis_failure(monkeypatch):
    # a3 = 1 puts both roots of Q / zeta on the circle: the curvature vanishes there
    model = ModelPolynomial.from_upper(4, 3, {3: 1.0, 2: 1.0})
    assert check_subharmonic(model) < 0.0
    with pytest.raises(ConfigError, match=r"^\[hypothesis\] root .* of the unit circle$"):
        factor_Q(model)
    # the sampler redraws on it, as on any other root it cannot split
    calls = []

    def pinned_once(candidate):
        calls.append(candidate)
        if len(calls) == 1:
            raise ConfigError("[hypothesis] root 1 lies within 1e-08 of the unit circle")
        return factor_Q(candidate)

    monkeypatch.setattr("discforge.model.factor_Q", pinned_once)
    drawn = random_admissible_model(np.random.default_rng(3), 6, 4)
    assert len(calls) == 2 and drawn is calls[1]


def test_model_json_roundtrip():
    m = _model_d4k3()
    again = ModelPolynomial.from_dict(m.to_dict())
    assert again.d == m.d and again.k0 == m.k0
    for j in m.alpha:
        assert again.alpha[j] == pytest.approx(m.alpha[j])
    with pytest.raises(ConfigError):
        ModelPolynomial.from_dict({"d": 4, "k0": 3, "alpha": [{"j": 1, "re": 0.25}]})
