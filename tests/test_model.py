"""Model polynomials: curvature, Q extraction, root splits, winding."""

from __future__ import annotations

import numpy as np
import pytest

from discforge.exceptions import ConfigError, NumericalError
from discforge.model import (
    ModelPolynomial,
    check_subharmonic,
    compute_Q,
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


def test_curvature_frozen_value():
    m = _model_d4k3()
    assert m.eval_Pzzbar(1.0).real == pytest.approx(5.5, abs=1e-14)
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


def test_model_json_roundtrip():
    m = _model_d4k3()
    again = ModelPolynomial.from_dict(m.to_dict())
    assert again.d == m.d and again.k0 == m.k0
    for j in m.alpha:
        assert again.alpha[j] == pytest.approx(m.alpha[j])
    with pytest.raises(ConfigError):
        ModelPolynomial.from_dict({"d": 4, "k0": 3, "alpha": [{"j": 1, "re": 0.25}]})
