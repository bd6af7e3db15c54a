import numpy as np
import pytest

from discforge.discs import (
    LiftedDisc,
    ModelDiscParams,
    mobius_a,
    model_disc,
    boundary_powers,
    stationarity_residual,
    substitute_boundary,
    weight_series,
)
from discforge.exceptions import ConfigError
from discforge.model import ModelPolynomial
from discforge.perturb import DefiningFunction, eval_mon
from discforge.series import TrigSeries


def _abs_power(d):
    return ModelPolynomial.from_upper(d, d // 2, {d // 2: 1.0})


def _model_d4k3():
    return ModelPolynomial.from_upper(4, 3, {2: 1.0, 3: 0.25})


def test_mobius_a_frozen():
    assert mobius_a(0.0) == 0.0
    assert abs(mobius_a(0.1) - (-0.10102051443364424)) < 1e-15
    # small-b expansion: a = -conj(b) (1 + |b|^2 + O(b^4))
    b = 1e-3 + 2e-3j
    assert abs(mobius_a(b) + np.conj(b) * (1 + abs(b) ** 2)) < 1e-11
    with pytest.raises(ConfigError):
        mobius_a(0.5)


def test_mobius_a_solves_fixed_point():
    # a is the inside root of b a^2 + (1 + 2 Re(a conj(a)) ... ) checked
    # against the quadratic it came from: conj(b) + a (1 + ...) form reduces
    # to b conj(a)^2 + conj(a) + conj(b) = 0 after conjugation.
    for b in (0.3, 0.2 - 0.35j, 0.45j):
        a = mobius_a(b)
        assert abs(a) < 1.0
        assert abs(b * a**2 + a + np.conj(b)) < 1e-14


def test_weight_series_frozen():
    c = weight_series(0.1, 2)
    assert abs(c.coeff(0) - 1.02) < 1e-15
    assert abs(c.coeff(1) - 0.2) < 1e-15
    assert abs(c.coeff(2) - 0.01) < 1e-15
    assert c.is_real(1e-15)


def test_model_disc_zero_b_frozen_g():
    disc = model_disc(_abs_power(4), ModelDiscParams(0.0, 1.0), n_max=32)
    # h = 1 - zeta
    assert abs(disc.h.coeff(0) - 1.0) < 1e-14
    assert abs(disc.h.coeff(1) + 1.0) < 1e-14
    assert disc.h.trimmed(1e-13).n_max == 1
    g = disc.g.trimmed(1e-12)
    assert g.n_max == 2
    np.testing.assert_allclose(
        [g.coeff(0), g.coeff(1), g.coeff(2)], [6.0, -8.0, 2.0], atol=1e-12
    )
    assert disc.center() == (pytest.approx(1.0), pytest.approx(6.0))

    disc2 = model_disc(_abs_power(2), ModelDiscParams(0.0, 1.0), n_max=16)
    g2 = disc2.g.trimmed(1e-12)
    np.testing.assert_allclose([g2.coeff(0), g2.coeff(1)], [2.0, -2.0], atol=1e-13)

    disc3 = model_disc(_model_d4k3(), ModelDiscParams(0.0, 1.0), n_max=32)
    g3 = disc3.g.trimmed(1e-12)
    np.testing.assert_allclose(
        [g3.coeff(n) for n in range(4)], [8.0, -11.5, 4.0, -0.5], atol=1e-12
    )


def test_model_disc_theta_rotates_v():
    base = model_disc(_abs_power(4), ModelDiscParams(0.1, 2.0 - 1.0j), n_max=32)
    rot = model_disc(
        _abs_power(4), ModelDiscParams(0.1, (2.0 - 1.0j) * 1j, theta=-np.pi / 2), n_max=32
    )
    np.testing.assert_allclose(rot.h.coeffs, base.h.coeffs, atol=1e-14)


def cauchy_center(disc: LiftedDisc, defn: DefiningFunction) -> complex:
    """Recover ``g(0)`` from the boundary data via a Cauchy-type integral.

    Uses ``g(0) = (1/pi) integral p / (1 - zeta) dtheta`` where ``p`` is the
    boundary trace of the non-harmonic part of the defining function along
    the disc; valid because ``Re g = p`` on the boundary and ``g(1) = 0``.
    The grid is midpoint-shifted (the odd points of a grid twice as fine) so
    the removable point ``zeta = 1`` is never sampled.
    """
    num = max(1024, 8 * max(disc.h.n_max, disc.g.n_max) + 8)
    pts = np.exp(2j * np.pi * (np.arange(num) + 0.5) / num)
    hv = disc.h.sample(2 * num)[1::2]
    gv = disc.g.sample(2 * num)[1::2]
    p = eval_mon(defn.big_r_mon(), hv, np.conj(hv), gv.imag)
    integrand = p / (1.0 - pts)
    return complex(np.sum(integrand) * (2.0 / num))


def test_cauchy_center_frozen():
    disc = model_disc(_abs_power(4), ModelDiscParams(0.0, 1.0), n_max=32)
    r = DefiningFunction.pure(_abs_power(4))
    assert abs(cauchy_center(disc, r) - 6.0) < 1e-10
    disc2 = model_disc(_abs_power(2), ModelDiscParams(0.0, 1.0), n_max=16)
    r2 = DefiningFunction.pure(_abs_power(2))
    assert abs(cauchy_center(disc2, r2) - 2.0) < 1e-10


def test_cauchy_center_matches_g_for_random_params():
    model = _model_d4k3()
    r = DefiningFunction.pure(model)
    disc = model_disc(model, ModelDiscParams(0.25 - 0.1j, 1.0 + 0.5j), n_max=96)
    assert abs(cauchy_center(disc, r) - disc.g.coeff(0)) < 1e-9


def test_model_disc_is_stationary():
    rng = np.random.default_rng(11)
    for model in (_abs_power(2), _abs_power(4), _model_d4k3()):
        r = DefiningFunction.pure(model)
        for _ in range(4):
            b = (rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4)) / np.sqrt(2)
            v = rng.normal() + 1j * rng.normal()
            if abs(v) < 0.1:
                v = 1.0
            disc = model_disc(model, ModelDiscParams(b, v), n_max=128)
            res1, res2, res3 = stationarity_residual(disc, r)
            assert res1 < 1e-9
            assert res2 < 1e-12
            assert res3 < 1e-9


def test_model_disc_pins_g_exactly_for_a_large_d8_disc():
    # a random d=8, k0=7 model: at |b| = 0.2 its g reaches max|g| = 5.1e3 and,
    # without the exact pin, rounding left |g(1)| above PIN_TOL (a ConfigError
    # for a valid input)
    alpha = {
        4: 8.274918190601491,
        5: -0.8875972886300745 + 1.5088591866138001j,
        6: 2.448219615748692 + 0.927343897913557j,
        7: -0.009054968131603692 - 0.3597449841018044j,
    }
    model = ModelPolynomial.from_upper(8, 7, alpha)
    for b, n_max in ((0.2, 64), (0.07166156420279335 - 0.16718905079062776j, 128)):
        disc = model_disc(model, ModelDiscParams(b, 1.0), n_max=n_max)
        assert disc.h.value_at_one() == 0.0
        assert disc.g.value_at_one() == 0.0
        assert max(stationarity_residual(disc, DefiningFunction.pure(model))) < 1e-9


def test_residual_detects_center_shift():
    model = _abs_power(4)
    disc = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=64)
    mu = 1e-3
    shifted = LiftedDisc(disc.c, disc.h, disc.g + TrigSeries.constant(mu), validate=False)
    res1, res2, res3 = stationarity_residual(shifted, DefiningFunction.pure(model))
    assert abs(res3 - mu) < 1e-9
    assert res1 < 1e-9  # r_z does not see the w-translation on a model


def test_residual_detects_a_wrong_weight():
    # the b = 0 disc of |z|^4 is stationary with its own weight c = 1, and
    # not with the weight of b = 0.2; only the first defect reads the weight
    model = _abs_power(4)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=32)
    pure = DefiningFunction.pure(model)
    assert stationarity_residual(disc, pure) == (0.0, 0.0, 0.0)
    res1, res2, res3 = stationarity_residual(LiftedDisc(weight_series(0.2, 2), disc.h, disc.g), pure)
    assert abs(res1 - 0.64) < 1e-12
    assert res2 == res3 == 0.0


def test_lifted_disc_validation():
    model = _abs_power(4)
    disc = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=32)
    with pytest.raises(ConfigError):
        LiftedDisc(TrigSeries.monomial(1, 1.0), disc.h, disc.g)  # weight not real
    with pytest.raises(ConfigError):
        LiftedDisc(disc.c, disc.h.conjugate(), disc.g)  # not analytic
    with pytest.raises(ConfigError):
        LiftedDisc(disc.c, disc.h + TrigSeries.constant(0.1), disc.g)  # unpinned
    with pytest.raises(ConfigError):
        LiftedDisc(TrigSeries.constant(-1.0), disc.h, disc.g)  # weight sign
    LiftedDisc(disc.c, disc.h + TrigSeries.constant(0.1), disc.g, validate=False)


def test_params_validation_and_round_trip():
    with pytest.raises(ConfigError):
        ModelDiscParams(0.6, 1.0)
    with pytest.raises(ConfigError):
        ModelDiscParams(0.1, 0.0)
    p = ModelDiscParams(0.1 - 0.2j, 1.5, theta=0.3)
    assert ModelDiscParams.from_dict(p.to_dict()) == p
    with pytest.raises(ConfigError):
        ModelDiscParams.from_dict({"b": [0.1, 0.0], "v": [1.0, 0.0], "nope": 1})


def test_disc_round_trip_and_samples():
    disc = model_disc(_abs_power(4), ModelDiscParams(0.2j, 1.0), n_max=24)
    back = LiftedDisc.from_dict(disc.to_dict())
    np.testing.assert_allclose(back.g.coeffs, disc.g.coeffs, atol=0)
    rows = disc.boundary_samples(16)
    assert rows.shape == (16,)
    # the closed form v (1 - zeta) / (1 - conj(a) zeta); truncation at N = 24
    # leaves |a|^24 < 1e-16
    pts = np.exp(1j * rows["angle"])
    want = (1 - pts) / (1 - np.conj(mobius_a(0.2j)) * pts)
    np.testing.assert_allclose(rows["h"], want, atol=1e-14)
    with pytest.raises(ConfigError):
        LiftedDisc.from_dict({"c": disc.c.to_dict()})


def test_substitution_matches_pointwise_evaluation():
    # coefficient-space trace against the pointwise evaluator on circle samples
    disc = model_disc(_model_d4k3(), ModelDiscParams(0.2 - 0.1j, 0.5 + 0.2j), n_max=16)
    h, g = disc.h, disc.g
    img = (g - g.conjugate()) * (-0.5j)
    assert img.sup_norm() > 0.1  # the trace really depends on u = Im g
    mon = {(2, 1, 1): 0.3 - 0.2j, (1, 2, 2): 0.1j, (3, 3, 1): -0.05, (1, 0, 0): 0.5, (0, 0, 0): 1.0}
    trace = substitute_boundary(mon, boundary_powers(h, g))
    k = 2 * trace.n_max + 2
    hv = h.sample(k)
    want = eval_mon(mon, hv, np.conj(hv), g.sample(k).imag)
    assert np.max(np.abs(trace.sample(k) - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
