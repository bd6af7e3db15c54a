import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discforge.jets as jets_module
from discforge.cli import main
from discforge.discs import LiftedDisc, ModelDiscParams, model_disc, stationarity_residual
from discforge.exceptions import ConfigError, NumericalError
from discforge.model import ModelPolynomial, factor_Q, random_admissible_model
from discforge.perturb import (
    BiholoMap,
    DefiningFunction,
    PerturbationTerm,
    compose_disc,
    d_u,
    dilate,
    dilate_map,
    x_norm_distance,
)
from discforge.series import CARRIER_GATE, Powers, TrigSeries, coeff_distance, multiply
from discforge.solver import SolverOptions, solve_newton


def _abs4():
    return ModelPolynomial.from_upper(4, 2, {2: 1.0})


def _cubic_term(eps):
    # z^3 zbar^2 * eps, plus its mirror
    return PerturbationTerm(3, 2, 0, {(0, 0): eps})


def test_term_validation():
    with pytest.raises(ConfigError):
        PerturbationTerm(3, 2, 0, {(0, 1): 1.0})  # l = 0 cannot see Im w
    with pytest.raises(ConfigError):
        PerturbationTerm(1, 1, 0, {(9, 0): 1.0})  # degree cap
    with pytest.raises(ConfigError):
        DefiningFunction(_abs4(), (PerturbationTerm(2, 2, 0, {(0, 0): 1.0}),))
    with pytest.raises(ConfigError):
        DefiningFunction(_abs4(), (PerturbationTerm(1, 2, 2, {(0, 0): 1.0}),))
    with pytest.raises(ConfigError):
        DefiningFunction(_abs4(), (_cubic_term(1.0), PerturbationTerm(2, 3, 0, {(0, 0): 1.0})))
    with pytest.raises(ConfigError):
        DefiningFunction(_abs4(), theta1={1: 0.5})
    with pytest.raises(ConfigError):
        DefiningFunction(_abs4(), (PerturbationTerm(1, 1, 1, {(0, 0): 1.0}),), theta1={})
    # valid l >= 1 block: i + j = d - l
    DefiningFunction(_abs4(), (PerturbationTerm(2, 1, 1, {(0, 0): 1.0}),))


def test_theta_realized_symmetrically():
    r = DefiningFunction(_abs4(), (_cubic_term(0.25),), theta1={2: 0.125})
    theta = r.theta_mon()
    assert theta[(3, 2, 0)] == 0.25
    assert theta[(2, 3, 0)] == 0.25
    assert theta[(0, 0, 2)] == 0.125
    assert len(theta) == 3
    for (a, b, e), c in theta.items():
        assert theta[(b, a, e)] == np.conj(c)


_VIEWS = ("big_r_mon", "rz_mon", "rw_mon", "rzz_mon", "rzzbar_mon", "rzw_mon", "rwzbar_mon")


def test_monomial_views_are_built_once_and_read_only():
    r = DefiningFunction(_abs4(), (_cubic_term(1e-3), PerturbationTerm(1, 1, 2, {(0, 0): 0.5})), {2: 0.125})
    for name in _VIEWS:
        view = getattr(r, name)()
        assert getattr(r, name)() is view, name
        with pytest.raises(TypeError):
            view[(0, 0, 0)] = 1.0
    # another instance builds its own views, from its own data
    other = dilate(r, 0.5)
    assert other.rz_mon() is not r.rz_mon()
    assert other.rw_mon()[(0, 0, 0)] == r.rw_mon()[(0, 0, 0)] == -0.5
    assert dilate(r, 1.0).rzw_mon() == r.rzw_mon()


def test_eval_matches_hand_expansion():
    eps = 1e-3
    r = DefiningFunction(_abs4(), (_cubic_term(eps),))
    rng = np.random.default_rng(7)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    want = -w.real + np.abs(z) ** 4 + 2 * eps * (z**3 * np.conj(z) ** 2).real
    np.testing.assert_allclose(r.eval_r(z, w), want, atol=1e-14)
    # d/dz of the theta block: 3 eps z^2 zbar^2 + 2 eps z zbar^3
    extra = 3 * eps * z**2 * np.conj(z) ** 2 + 2 * eps * z * np.conj(z) ** 3
    pure_z = 2 * z * np.conj(z) ** 2
    np.testing.assert_allclose(_mon_val(r.rz_mon(), z, w), pure_z + extra, atol=1e-13)


def test_wirtinger_derivatives_against_finite_differences():
    r = DefiningFunction(
        _abs4(),
        (_cubic_term(0.2), PerturbationTerm(2, 1, 1, {(1, 0): 0.3 - 0.1j, (0, 1): 0.05})),
        theta1={2: 0.4, 3: -0.1},
    )
    z0, w0 = 0.4 + 0.3j, 0.2 + 0.5j
    h = 1e-6

    def val(z, w):
        return complex(r.eval_r(z, w))

    fd_z = (val(z0 + h, w0) - val(z0 - h, w0)) / (2 * h) - 1j * (
        val(z0 + 1j * h, w0) - val(z0 - 1j * h, w0)
    ) / (2 * h)
    fd_w = (val(z0, w0 + h) - val(z0, w0 - h)) / (2 * h) - 1j * (
        val(z0, w0 + 1j * h) - val(z0, w0 - 1j * h)
    ) / (2 * h)
    assert abs(_mon_val(r.rz_mon(), z0, w0) - fd_z / 2) < 1e-8
    assert abs(_mon_val(r.rw_mon(), z0, w0) - fd_w / 2) < 1e-8
    # second derivatives, by differencing the first ones
    def rz(z, w):
        return complex(_mon_val(r.rz_mon(), z, w))

    fd_zw = (rz(z0, w0 + h) - rz(z0, w0 - h)) / (2 * h) - 1j * (
        rz(z0, w0 + 1j * h) - rz(z0, w0 - 1j * h)
    ) / (2 * h)
    got_zw = _mon_val(r.rzw_mon(), z0, w0)
    assert abs(got_zw - fd_zw / 2) < 1e-8
    got_zz = _mon_val(r.rzz_mon(), z0, w0)
    fd_zz = (rz(z0 + h, w0) - rz(z0 - h, w0)) / (2 * h) - 1j * (
        rz(z0 + 1j * h, w0) - rz(z0 - 1j * h, w0)
    ) / (2 * h)
    assert abs(got_zz - fd_zz / 2) < 1e-8


def _mon_val(mon, z, w):
    u = np.imag(w)
    zb = np.conj(z)
    return sum(c * z**a * zb**b * u**e for (a, b, e), c in mon.items())


def test_pure_model_w_derivatives():
    r = DefiningFunction.pure(_abs4())
    assert r.terms == () and r.theta1 == {}
    assert r.rw_mon() == {(0, 0, 0): -0.5}
    assert d_u(d_u(r.big_r_mon())) == {}
    assert r.rzzbar_mon() == {(1, 1, 0): 4.0}


def test_dilate_exact_exponents():
    eps = 1e-3
    r = DefiningFunction(
        _abs4(),
        (_cubic_term(eps), PerturbationTerm(2, 1, 1, {(0, 0): 1.0, (1, 1): 1.0})),
        theta1={2: 1.0},
    )
    half = dilate(r, 0.5)
    assert half.terms[0].coeffs[(0, 0)] == eps * 0.5  # l = 0, m = 0: t^1
    assert half.terms[1].coeffs[(0, 0)] == 0.5**3  # l = 1: t^(d-1)
    assert half.terms[1].coeffs[(1, 1)] == 0.5**8  # t^(3 + 1 + 4)
    assert half.theta1[2] == 0.5**4  # t^(2d - d)
    assert dilate(r, 1.0).to_dict() == r.to_dict()
    with pytest.raises(ConfigError):
        dilate(r, 0.0)


def test_dilate_matches_substitution():
    r = DefiningFunction(_abs4(), (_cubic_term(0.3),), theta1={2: 0.2})
    t = 0.375
    rt = dilate(r, t)
    rng = np.random.default_rng(3)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    w = rng.normal(size=6) + 1j * rng.normal(size=6)
    want = r.eval_r(t * z, t**4 * w) / t**4
    np.testing.assert_allclose(rt.eval_r(z, w), want, rtol=1e-12, atol=1e-12)


def test_x_norm_distance():
    pure = DefiningFunction.pure(_abs4())
    assert x_norm_distance(pure) == 0.0
    r = DefiningFunction(_abs4(), (_cubic_term(1e-2),), theta1={2: 1e-3})
    values = [x_norm_distance(dilate(r, t)) for t in (1.0, 0.5, 0.25, 0.125)]
    assert values[0] > 0
    for a, b in zip(values, values[1:]):
        assert b < a


def test_defining_function_json_round_trip():
    r = DefiningFunction(
        _abs4(),
        (_cubic_term(0.25 + 0.0j), PerturbationTerm(2, 1, 1, {(1, 0): 0.3 - 0.1j})),
        theta1={2: 0.4},
    )
    back = DefiningFunction.from_dict(r.model, r.to_dict())
    assert back.to_dict() == r.to_dict()
    with pytest.raises(ConfigError):
        DefiningFunction.from_dict(r.model, {"terms": [], "theta1": [], "junk": 1})


def test_biholo_tangency_order():
    ident = BiholoMap.identity(4)
    assert ident.tangency_order() == math.inf
    h = BiholoMap(4, {(1, 0): 1.0, (5, 0): 1e-4}, {(0, 1): 1.0, (0, 2): 1e-4})
    assert h.tangency_order() == 4  # z^5 has weight 5, w^2 has weight 8
    low = BiholoMap(4, {(1, 0): 1.0, (2, 0): 1e-4}, {(0, 1): 1.0})
    assert low.tangency_order() == 1
    with pytest.raises(ConfigError):
        BiholoMap(4, {(0, 0): 1.0, (1, 0): 1.0}, {(0, 1): 1.0})


def test_dilate_map_exponents():
    eps = 1e-4
    h = BiholoMap(4, {(1, 0): 1.0, (5, 0): eps}, {(0, 1): 1.0, (0, 2): eps})
    ht = dilate_map(h, 0.5)
    assert ht.h1[(1, 0)] == 1.0
    assert ht.h2[(0, 1)] == 1.0
    assert ht.h1[(5, 0)] == eps * 0.5**4
    assert ht.h2[(0, 2)] == eps * 0.5**4
    bad = BiholoMap(4, {(1, 0): 1.0}, {(0, 1): 1.0, (2, 0): eps})
    with pytest.raises(ConfigError):
        dilate_map(bad, 0.5)


def test_dilate_map_is_conjugation():
    eps = 1e-3
    h = BiholoMap(4, {(1, 0): 1.0, (3, 1): eps}, {(0, 1): 1.0, (4, 1): eps})
    t = 0.5
    ht = dilate_map(h, t)
    z, w = 0.3 + 0.2j, 0.1 - 0.4j
    a1, a2 = h.apply_numeric(t * z, t**4 * w)
    b1, b2 = ht.apply_numeric(z, w)
    assert abs(b1 - a1 / t) < 1e-14
    assert abs(b2 - a2 / t**4) < 1e-14


def test_biholo_json_round_trip():
    h = BiholoMap(4, {(1, 0): 1.0, (5, 0): 1e-4 + 2e-5j}, {(0, 1): 1.0})
    back = BiholoMap.from_dict(h.to_dict())
    assert back.to_dict() == h.to_dict()
    with pytest.raises(ConfigError):
        BiholoMap.from_dict({"d": 4, "H1": [], "H2": [], "extra": True})


def test_compose_disc():
    om = TrigSeries.from_mode_dict({0: 1.0, 1: -1.0})

    class Disc:
        h = om
        g = multiply(om, om) * 0.5

    disc = Disc()
    h_new, g_new = compose_disc(BiholoMap.identity(4), disc)
    assert coeff_distance(h_new, disc.h) == 0.0
    assert coeff_distance(g_new, disc.g) == 0.0

    phase = np.exp(0.3j)
    rot = BiholoMap(4, {(1, 0): phase}, {(0, 1): 1.0})
    h_new, g_new = compose_disc(rot, disc)
    assert coeff_distance(h_new, disc.h * phase) == 0.0
    assert coeff_distance(g_new, disc.g) == 0.0

    sq = BiholoMap(4, {(1, 0): 1.0, (2, 0): 0.01}, {(0, 1): 1.0})
    h_new, _ = compose_disc(sq, disc)
    assert coeff_distance(h_new, om + multiply(om, om) * 0.01) == 0.0


def _survey_map(d):
    # the near-identity map of the benchmark's model survey
    return BiholoMap(d, {(1, 0): 1.0, (9, 0): 1e-4}, {(0, 1): 1.0, (0, 3): 1e-4})


def _exact_composition(h_map, disc):
    ph, pg = Powers(disc.h), Powers(disc.g)
    out = []
    for mono in (h_map.h1, h_map.h2):
        acc = TrigSeries.zero(0)
        for (j, l), c in sorted(mono.items()):
            acc = acc + multiply(ph[j], pg[l]) * c
        out.append(acc.trimmed(0.0))
    return out


def _kept_and_dropped(kept, exact):
    k, n = kept.n_max, exact.n_max
    dropped = np.concatenate([exact.coeffs[: n - k], exact.coeffs[n + k + 1 :]])
    return exact.coeffs[n - k : n + k + 1], dropped


def test_compose_disc_keeps_the_numerical_carrier():
    # the exact composition of this order-65 disc reaches orders 103 and 99
    # (its products stop at their factors' carriers), every mode past 65 below
    # rounding of the largest
    model = ModelPolynomial.from_upper(8, 4, {4: 1.0})
    init = model_disc(model, ModelDiscParams(0.2, 1.0), n_max=64)
    r = DefiningFunction.pure(model)
    disc = solve_newton(r, factor_Q(model), 0.2, init, SolverOptions(n_max=64)).disc
    h_map = dilate_map(_survey_map(8), 0.125)
    h_new, g_new = compose_disc(h_map, disc)
    h_exact, g_exact = _exact_composition(h_map, disc)
    n_disc = max(disc.h.n_max, disc.g.n_max)
    assert h_new.n_max <= n_disc and g_new.n_max <= n_disc
    assert h_exact.n_max > n_disc and g_exact.n_max > n_disc
    for new, exact in ((h_new, h_exact), (g_new, g_exact)):
        kept, dropped = _kept_and_dropped(new, exact)
        assert np.array_equal(kept, new.coeffs)
        assert np.max(np.abs(dropped)) <= CARRIER_GATE * np.max(np.abs(exact.coeffs))
    trimmed = max(stationarity_residual(LiftedDisc(disc.c, h_new, g_new), r))
    full = max(stationarity_residual(LiftedDisc(disc.c, h_exact, g_exact), r))
    assert abs(trimmed - full) <= 1e-3 * full


def test_compose_disc_keeps_content_past_the_disc_order():
    # at |b| = 0.45 the modes of h^9 and g^3 past the order-64 disc decay
    # slowly: they stay above rounding up to modes 129 and 108.  The products
    # of the exact composition stop at their factors' carriers (above
    # CARRIER_GATE**2 of the largest), so its last nonzero modes are 213 and 181
    disc = model_disc(_abs4(), ModelDiscParams(0.45, 1.0), n_max=64)
    disc = LiftedDisc(disc.c, disc.h, disc.g.truncate(64), validate=False)
    h_new, g_new = compose_disc(_survey_map(4), disc)
    h_exact, g_exact = _exact_composition(_survey_map(4), disc)
    assert (h_new.n_max, g_new.n_max) == (129, 108)
    assert (h_exact.n_max, g_exact.n_max) == (213, 181)
    for new, exact in ((h_new, h_exact), (g_new, g_exact)):
        kept, dropped = _kept_and_dropped(new, exact)
        assert np.array_equal(kept, new.coeffs)
        assert np.max(np.abs(dropped)) <= CARRIER_GATE * np.max(np.abs(exact.coeffs))


def _chain_of_p(model, h):
    # P(h, conj h) as a chain of + from the zero series
    ph = Powers(h)
    p = TrigSeries.zero(0)
    for j, alpha in model.alpha.items():
        p = p + (ph[j] * ph[model.d - j].conjugate()) * alpha
    return p


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_model_and_composed_discs_are_the_chain_of_additions_to_the_bit(d, monkeypatch):
    # model_disc's P and compose_disc's components go through series.sum_terms:
    # every mode must see the same additions as a chain of +, down to the sign of a zero
    seen = []
    real_symmetrized = TrigSeries.real_symmetrized.__func__

    def spy(cls, coeffs):
        seen.append(np.array(coeffs))
        return real_symmetrized(cls, coeffs)

    monkeypatch.setattr(TrigSeries, "real_symmetrized", classmethod(spy))
    # with three or more terms a component's sum depends on its order
    many = BiholoMap(
        d, {(1, 0): 1.0, (2, 0): 1e-2, (3, 1): 1e-3j, (5, 0): 3e-3}, {(0, 1): 1.0, (2, 1): 1e-2, (d, 1): 1e-3j}
    )
    rng = np.random.default_rng(d)
    for k0 in range(d // 2, d):
        model = random_admissible_model(rng, d, k0)
        for b in (0.0, 0.2j, 0.45 * np.exp(2j)):
            seen.clear()
            disc = model_disc(model, ModelDiscParams(b, np.exp(2j * np.pi * rng.uniform())), n_max=64)
            (p,) = seen
            assert p.tobytes() == _chain_of_p(model, disc.h).coeffs.tobytes()
            n_disc = max(disc.h.n_max, disc.g.n_max)
            for h_map in (BiholoMap.identity(d), _survey_map(d), many):
                for new, exact in zip(compose_disc(h_map, disc), _exact_composition(h_map, disc)):
                    gate = CARRIER_GATE * float(np.max(np.abs(exact.coeffs)))
                    kept = exact.truncate(max(n_disc, exact.trimmed(gate).n_max))
                    assert new.coeffs.tobytes() == kept.coeffs.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=1.0),
    t=st.floats(min_value=0.1, max_value=1.0),
    eps=st.floats(min_value=-1.0, max_value=1.0),
)
def test_dilate_is_multiplicative(s, t, eps):
    r = DefiningFunction(_abs4(), (_cubic_term(eps),), theta1={3: 0.5})
    once = dilate(r, s * t)
    twice = dilate(dilate(r, s), t)
    for a, b in zip(once.terms, twice.terms):
        for key in a.coeffs:
            assert a.coeffs[key] == pytest.approx(b.coeffs[key], rel=1e-12, abs=1e-300)
    for deg in once.theta1:
        assert once.theta1[deg] == pytest.approx(twice.theta1[deg], rel=1e-12)


# The two-component grading and the halve-then-recompute scale search as they
# were written out before one loop read the weights (1, d): the references
# for the bit-level test below.
def _dilate_map_by_component(h, t):
    if not (0 < t <= 1):
        raise ConfigError("dilation parameter must lie in (0, 1]")
    d = h.d
    new1 = {}
    for (j, l), c in h.h1.items():
        expo = j + d * l - 1
        if expo < 0:
            raise ConfigError(f"H1 monomial z^{j} w^{l} scales by t^{expo} < 0")
        new1[(j, l)] = c * t**expo
    new2 = {}
    for (j, l), c in h.h2.items():
        expo = j + d * l - d
        if expo < 0:
            raise ConfigError(f"H2 monomial z^{j} w^{l} scales by t^{expo} < 0")
        new2[(j, l)] = c * t**expo
    return BiholoMap(d, new1, new2)


def _tangency_by_deviation(h):
    dev1 = dict(h.h1)
    dev1[(1, 0)] = dev1.get((1, 0), 0.0 + 0.0j) - 1.0
    dev2 = dict(h.h2)
    dev2[(0, 1)] = dev2.get((0, 1), 0.0 + 0.0j) - 1.0
    degrees = [j + h.d * l for (j, l), v in dev1.items() if v != 0]
    degrees += [j + h.d * l for (j, l), v in dev2.items() if v != 0]
    return min(degrees) - 1 if degrees else math.inf


def _searched_scale(r, h_map, boundary_tol):
    t = 1.0
    for _ in range(40):
        r_t = dilate(r, t)
        if (
            x_norm_distance(r_t) <= jets_module.X_NORM_THRESHOLD
            and jets_module._boundary_defect(r_t, _dilate_map_by_component(h_map, t)) <= boundary_tol
        ):
            break
        t *= 0.5
    else:
        raise NumericalError("[scaling] no dilation parameter satisfies the thresholds")
    r_t = dilate(r, t)
    return t, x_norm_distance(r_t), jets_module._boundary_defect(r_t, _dilate_map_by_component(h_map, t))


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ConfigError as exc:
        return type(exc), str(exc)
    return out.to_dict() if isinstance(out, BiholoMap) else out


def test_one_grading_rule_is_the_two_component_loops_to_the_bit():
    maps = [
        BiholoMap.identity(4),
        _survey_map(4),
        _survey_map(6),
        # w-monomials in both components, a rotated z, and no w in H2
        BiholoMap(4, {(1, 0): 1.0, (3, 1): 1e-3 - 2e-4j, (0, 2): 5e-4}, {(0, 1): 1.0, (4, 1): 1e-3j, (2, 2): 3e-3}),
        BiholoMap(6, {(1, 0): np.exp(0.3j), (1, 1): 1e-2}, {(0, 2): 1.0, (6, 0): 1e-2}),
        # inadmissible: H2's z^4 scales by t^-2
        BiholoMap(6, {(1, 0): 1.0}, {(0, 1): 1.0, (4, 0): 1e-3}),
    ]
    for h in maps:
        assert h.tangency_order() == _tangency_by_deviation(h)
        for t in (1.0, 0.5, 0.125):
            assert _outcome(dilate_map, h, t) == _outcome(_dilate_map_by_component, h, t)
    assert _outcome(dilate_map, maps[-1], 0.5)[1] == "H2 monomial z^4 w^0 scales by t^-2 < 0"

    # the scale search settles where the references did, and its report is the given-t report
    bumpy = BiholoMap(4, {(1, 0): 1.0, (5, 0): 0.5}, {(0, 1): 1.0})
    bent = DefiningFunction(
        ModelPolynomial.from_upper(4, 3, {2: 1.0, 3: 0.25}), (PerturbationTerm(2, 1, 1, {(0, 0): 1.0, (1, 1): 0.5j}),), {2: 0.5}
    )
    sextic = DefiningFunction(ModelPolynomial.from_upper(6, 3, {3: 1.0}), (PerturbationTerm(4, 3, 0, {(0, 0): 0.5}),))
    for r, h_map, tol in ((DefiningFunction.pure(_abs4()), bumpy, 1e-5), (bent, _survey_map(4), 1e-3),
                          (sextic, _survey_map(6), 1e-3)):
        t, x_val, defect = _searched_scale(r, h_map, tol)
        assert t < 1.0
        reports = [
            jets_module.determination_experiment(
                r, h_map, factor_Q(r.model), SolverOptions(n_max=32, tol=1e-7), t=given, b_values=(0.1,), boundary_tol=tol
            )
            for given in (None, t)
        ]
        assert (reports[0]["t"], reports[0]["x_norm_scaled"], reports[0]["boundary_defect"]) == (t, x_val, defect)
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


def test_an_inadmissible_map_is_refused_whether_t_is_given_or_searched(tmp_path, capsys):
    # a d = 6 map whose H2 monomial z^4 scales by t^-2, under a perturbation no
    # scale brings within the threshold: a search that dilated only r once
    # ended in "[scaling] no dilation parameter satisfies the thresholds"
    config = {
        "model": {"d": 6, "k0": 3, "alpha": [{"j": 3, "re": 1.0}]},
        "perturbation": {"terms": [{"i": 4, "j": 3, "l": 0, "coeffs": [[0, 0, 1e15, 0.0]]}]},
        "solver": {"N": 32},
        "params": {"map": {"d": 6, "H1": [[1, 0, 1.0, 0.0]], "H2": [[0, 1, 1.0, 0.0], [4, 0, 1e-3, 0.0]]}},
    }
    for k, params in enumerate(({}, {"t": 0.5})):
        path = tmp_path / f"edge{k}.json"
        path.write_text(json.dumps({**config, "params": {**config["params"], **params}}))
        out = tmp_path / f"out{k}"
        assert main(["determine", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "H2 monomial z^4 w^0" in capsys.readouterr().err
