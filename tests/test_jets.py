import math

import numpy as np
import pytest
import sympy

import discforge.jets as jets_module
from discforge.exceptions import ConfigError, NumericalError
from discforge.jets import (
    determination_experiment,
    jet_map,
    jet_matrix,
    jet_reconstruct,
    surjectivity_gap,
)
from discforge.model import ModelPolynomial, QFactorization, factor_Q, random_admissible_model
from discforge.perturb import BiholoMap, DefiningFunction, PerturbationTerm, dilate, dilate_map
from discforge.series import TrigSeries, coeff_distance, multiply
from discforge.solver import SolverOptions, binomial_tail


def _abs_power(d):
    return ModelPolynomial.from_upper(d, d // 2, {d // 2: 1.0})


def _model_d4k3():
    return ModelPolynomial.from_upper(4, 3, {2: 1.0, 3: 0.25})


_OM = TrigSeries.from_mode_dict({0: 1.0, 1: -1.0})


def test_jet_map_examples():
    assert np.allclose(jet_map(_OM, 2), [-1.0, 0.0])
    ramp = multiply(_OM, TrigSeries.from_mode_dict({1: 1.0}))
    assert np.allclose(jet_map(ramp, 2), [-1.0, -2.0])
    with pytest.raises(ConfigError):
        jet_map(_OM, 0)


def test_jet_map_leibniz_identity():
    # v = (1 - zeta) u pins v^(n)(1) = -n u^(n-1)(1)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    u = TrigSeries.from_mode_dict({n: c for n, c in enumerate(coeffs)})
    v = multiply(_OM, u)
    v_jets = jet_map(v, 5)
    u_jets = np.concatenate(([u.value_at_one()], jet_map(u, 4)))
    for n in range(1, 6):
        lhs = v_jets[n - 1]
        rhs = -n * u_jets[n - 1]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def _derivative_at_one(h, order):
    """The mode-by-mode loop for one derivative at 1, the oracle for ``jet_map``."""
    k = h.n_max
    total = 0.0 + 0.0j
    for n in range(order, k + 1):
        fall = 1.0
        for i in range(order):
            fall *= n - i
        total += h.coeffs[k + n] * fall * 1.0 ** (n - order)
    return complex(total)


def test_jet_map_matches_the_mode_loop_to_the_bit():
    rng = np.random.default_rng(47)
    for k in [0, 1, 2, 1500] + [int(k) for k in rng.integers(0, 1501, 40)]:
        size = k + 1
        modes = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(-8, 6, size)
        h = TrigSeries(np.concatenate([np.zeros(k), modes]))
        got = jet_map(h, 6)
        want = np.array([_derivative_at_one(h, order) for order in range(1, 7)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k


def test_jet_matrix_quartic_frozen():
    model = _abs_power(4)
    jm = jet_matrix(model, factor_Q(model))
    assert jm.n == 2
    assert np.allclose(jm.entries, [[-1.0, -1.0], [0.0, -2.0]], atol=1e-15)
    assert abs(jm.determinant - 2.0) < 1e-14
    assert abs(jm.scale - 2.0) < 1e-14
    assert abs(jm.reduced_determinant - 1.0) < 1e-14
    assert np.isfinite(jm.condition_number)


def test_jet_matrix_chi_frozen():
    model = _model_d4k3()
    jm = jet_matrix(model, factor_Q(model))
    assert jm.n == 3
    # chi of the single inside root (8 - sqrt 55)/3 reduces to (sqrt 55 - 5)/10
    chi = jm.reduced[1, 2]
    assert abs(chi - (math.sqrt(55) - 5) / 10) < 1e-14
    assert abs(jm.determinant) > 0.1


def test_jet_matrix_columns_match_series_jets():
    # independent route: jets of the truncated basis series themselves
    model = _model_d4k3()
    qfac = factor_Q(model)
    jm = jet_matrix(model, qfac)
    basis = [_OM, multiply(_OM, TrigSeries.from_mode_dict({1: 1.0}))]
    for root, mult in qfac.roots_inside:
        for i in range(mult):
            basis.append(multiply(_OM, binomial_tail(root, i, 400)))
    for col, series in enumerate(basis):
        assert np.max(np.abs(jet_map(series, jm.n) - jm.entries[:, col])) < 1e-12


def test_jet_matrix_entries_against_symbolic_derivatives():
    # fabricated double root: every entry vs sympy differentiation
    root = 0.3 + 0.1j
    qfac = QFactorization(1.0, ((root, 2),), ())
    jm = jet_matrix(_abs_power(4), qfac)
    assert jm.n == 4
    x = sympy.symbols("x")
    rbar = sympy.sympify(np.conj(root))
    for i in (0, 1):
        v = (1 - x) / (1 - rbar * x) ** (i + 1)
        for n in range(1, 5):
            expect = complex(sympy.diff(v, x, n).subs(x, 1))
            assert abs(jm.entries[n - 1, 2 + i] - expect) < 1e-12 * max(1.0, abs(expect))


def test_jet_matrix_reduced_form_cross_check():
    for model, qfac in (
        (_model_d4k3(), None),
        (_abs_power(4), QFactorization(1.0, ((0.3 + 0.1j, 2),), ())),
        (_abs_power(4), QFactorization(1.0, ((0.2 + 0.1j, 1), (-0.3 + 0.05j, 1)), ())),
    ):
        qfac = qfac or factor_Q(model)
        jm = jet_matrix(model, qfac)
        assert abs(jm.determinant - jm.scale * jm.reduced_determinant) < 1e-10 * abs(jm.determinant)


def test_jet_matrix_simple_roots_vandermonde_oracle():
    # all multiplicities one: the reduced determinant factors as
    # prod chi_j^2 * prod_{j<k} (chi_k - chi_j)
    roots = (0.2 + 0.1j, -0.3 + 0.05j)
    qfac = QFactorization(1.0, tuple((r, 1) for r in roots), ())
    jm = jet_matrix(_abs_power(4), qfac)
    chis = [np.conj(r) / (1 - np.conj(r)) for r in roots]
    expect = chis[0] ** 2 * chis[1] ** 2 * (chis[1] - chis[0])
    assert abs(jm.reduced_determinant - expect) < 1e-10 * abs(expect)

    single = factor_Q(_model_d4k3())
    jm = jet_matrix(_model_d4k3(), single)
    chi = np.conj(single.roots_inside[0][0]) / (1 - np.conj(single.roots_inside[0][0]))
    assert abs(jm.reduced_determinant - chi**2) < 1e-12


def test_jet_matrix_nonsingular_on_random_models():
    rng = np.random.default_rng(19)
    for _ in range(40):
        d = int(rng.choice([2, 4, 6]))
        k0 = int(rng.integers(d // 2, d))
        model = random_admissible_model(rng, d, k0)
        jm = jet_matrix(model, factor_Q(model))
        row_norms = float(np.prod(np.linalg.norm(jm.entries, axis=1)))
        assert abs(jm.determinant) > 1e-12 * row_norms


def test_jet_matrix_degenerate_configurations_rejected():
    with pytest.raises(NumericalError):
        jet_matrix(_abs_power(4), QFactorization(1.0, ((1.0 - 1e-8, 1),), ()))
    nearly = QFactorization(1.0, ((0.3, 1), (0.3 + 1e-13, 1)), ())
    with pytest.raises(NumericalError):
        jet_matrix(_abs_power(4), nearly)


def test_jet_reconstruct_round_trips():
    model = _model_d4k3()
    qfac = factor_Q(model)
    back = jet_reconstruct(model, qfac, jet_map(_OM, 3))
    assert coeff_distance(back, _OM) < 1e-12

    rng = np.random.default_rng(2)
    jets = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    series = jet_reconstruct(model, qfac, jets)
    assert np.max(np.abs(jet_map(series, 3) - jets)) < 1e-9

    zero = jet_reconstruct(model, qfac, np.zeros(3))
    assert zero.sup_norm() == 0.0
    with pytest.raises(ConfigError):
        jet_reconstruct(model, qfac, np.zeros(4))


def test_jet_objects_are_built_once_per_factorization(monkeypatch):
    # a survey op reads one factorization's jet matrix and basis up to six
    # times: each tail is built once, and every reconstruction equals the one
    # from the basis written out here, to the bit
    calls = []

    def counting(root, order, n_max):
        calls.append((root, order))
        return binomial_tail(root, order, n_max)

    monkeypatch.setattr(jets_module, "binomial_tail", counting)
    qfac = QFactorization(1.0, ((0.31 + 0.12j, 2), (-0.22 + 0.05j, 1)), ())
    model = _abs_power(4)  # the jet objects read only the factorization
    jm = jet_matrix(model, qfac)
    assert jet_matrix(model, qfac) is jm
    for arr in (jm.entries, jm.reduced):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0

    n_tail = jets_module._tail_truncation(qfac, jm.n)
    basis = [_OM, multiply(_OM, TrigSeries.from_mode_dict({1: 1.0}))]
    basis += [multiply(_OM, binomial_tail(r, i, n_tail)) for r, m in qfac.roots_inside for i in range(m)]
    rng = np.random.default_rng(8)
    for _ in range(5):
        jets = rng.standard_normal(jm.n) + 1j * rng.standard_normal(jm.n)
        coeffs = np.linalg.solve(jm.entries, jets)
        want = basis[0] * coeffs[0]
        for series, coef in zip(basis[1:], coeffs[1:]):
            want = want + series * coef
        got = jet_reconstruct(model, qfac, jets)
        assert np.array_equal(got.coeffs.view(np.uint64), want.trimmed(0.0).coeffs.view(np.uint64))
    assert calls == [(0.31 + 0.12j, 0), (0.31 + 0.12j, 1), (-0.22 + 0.05j, 0)]


def test_surjectivity_gap_frozen_values():
    for theta in np.linspace(0, 2 * np.pi, 9):
        assert abs(surjectivity_gap(_abs_power(4), float(theta)) - 36.0) < 1e-10
    assert abs(surjectivity_gap(_abs_power(2), 0.7) - 1.0) < 1e-12
    # |z|^6 has k0 = d-3, so the second integral contributes 3 e^{i theta}
    assert abs(surjectivity_gap(_abs_power(6), 0.1) - 891.0) < 1e-9
    assert abs(surjectivity_gap(_model_d4k3(), 0.0) - 55.6875) < 1e-10


def test_surjectivity_gap_truncated_branch():
    # d=6, k0=4 keeps the j = d-3 term in the second integral; by hand:
    # I1(0) = -(20 + 15 + 20) = -55, I2(0) = 20 + 1.5 = 21.5
    model = ModelPolynomial.from_upper(6, 4, {4: 1.0, 3: 0.5})
    gap = surjectivity_gap(model, 0.0)
    assert abs(gap - (55.0**2 - 21.5**2)) < 1e-9


def test_surjectivity_gap_random_models_quadrature():
    # the closed forms are re-derived inside by circle quadrature; a branch
    # or sign slip would raise
    rng = np.random.default_rng(23)
    for _ in range(12):
        d = int(rng.choice([2, 4, 6]))
        k0 = int(rng.integers(d // 2, d))
        model = random_admissible_model(rng, d, k0)
        for theta in rng.uniform(0, 2 * np.pi, 3):
            surjectivity_gap(model, float(theta))


def test_surjectivity_gap_is_trig_polynomial():
    model = _model_d4k3()
    n_grid = 64
    angles = 2 * np.pi * np.arange(n_grid) / n_grid
    values = np.array([surjectivity_gap(model, float(a)) for a in angles], dtype=complex)
    n_fit = 2 * (2 * model.k0 - model.d) + 2
    spec = np.fft.fft(values) / n_grid
    kept = np.arange(-n_fit, n_fit + 1) % n_grid
    series = TrigSeries(spec[kept])
    assert np.max(np.abs(np.delete(spec, kept))) < 1e-9
    # off the fitting grid: the angles 2 pi j / 640 with j not a multiple of 10
    fine = series.sample(640)
    for j in (13, 131, 407):
        direct = surjectivity_gap(model, 2 * np.pi * j / 640)
        assert abs(fine[j].real - direct) < 1e-8


def _boundary_defect_by_rings(defn, h_map):
    # the ring-by-ring loop, kept as the reference for _boundary_defect's single batch
    angles = np.exp(2j * np.pi * np.arange(24) / 24)
    worst = 0.0
    for radius in (0.25, 0.5, 0.75, 1.0):
        for u in (0.0, 0.05, -0.05):
            z = radius * angles
            w = defn.eval_r(z, 1j * u) + 1j * u
            z2, w2 = h_map.apply_numeric(z, w)
            worst = float(np.maximum(worst, np.max(np.abs(defn.eval_r(z2, w2)))))
    return worst


def test_boundary_defect_is_the_ring_by_ring_loop_to_the_bit():
    # r depends on Im w (an l = 1 term and theta1), so every ring reads its own u
    term = PerturbationTerm(2, 1, 1, {(0, 0): 1e-3, (1, 2): 2e-3j})
    r = DefiningFunction(_model_d4k3(), (term,), {2: 3e-3, 5: 1e-3})
    bent = BiholoMap(4, {(1, 0): 1.0, (2, 1): 1e-2 + 1e-3j, (5, 0): 3e-3}, {(0, 1): 1.0, (4, 1): 1e-3j})
    # about half of the 288 points give NaN and some give inf: a max that skipped NaN would read inf
    blown = BiholoMap(4, {(1, 0): 1.0}, {(0, 1): 1.0, (0, 40): 1e300})
    for t in (1.0, 0.5, 0.125):
        r_t = dilate(r, t)
        for h_map in (BiholoMap.identity(4), bent, blown):
            h_t = dilate_map(h_map, t)
            with np.errstate(over="ignore", invalid="ignore"):
                batch, rings = jets_module._boundary_defect(r_t, h_t), _boundary_defect_by_rings(r_t, h_t)
            assert np.float64(batch).tobytes() == np.float64(rings).tobytes()
            assert math.isnan(batch) == (h_map is blown)


def _pure_quartic():
    return DefiningFunction(_abs_power(4), (), {})


def test_determination_identity_is_exact():
    r = _pure_quartic()
    qfac = factor_Q(r.model)
    report = determination_experiment(
        r, BiholoMap.identity(4), qfac, SolverOptions(n_max=32), t=0.125, b_values=(0.0, 0.2)
    )
    assert report["boundary_defect"] == 0.0
    assert report["tangency_order"] is None
    for run in report["runs"]:
        assert run["disc_distance"] == 0.0
        assert run["jet_distance"] == 0.0
        assert run["aligned_distance"] == 0.0
        assert run["center_distance"] == 0.0


def test_determination_shrinks_with_tangency_frozen():
    # the low-order map is the honest yardstick: at t = 1/8 its composed
    # residual sits near 1.9e-5, while the distances contract quadratically
    r = _pure_quartic()
    qfac = factor_Q(r.model)
    eps = 1e-4
    low = BiholoMap(4, {(1, 0): 1.0, (5, 0): eps}, {(0, 1): 1.0, (0, 2): eps})
    report = determination_experiment(
        r, low, qfac, SolverOptions(n_max=64), t=0.125, b_values=(0.0,)
    )
    run = report["runs"][0]
    assert abs(run["residual_composed"] - 1.875001464840194e-05) < 1e-10
    assert abs(run["disc_distance"] - 2.3437499994116706e-06) < 1e-11
    assert run["jet_distance"] < 1e-12

    high = BiholoMap(4, {(1, 0): 1.0, (9, 0): eps}, {(0, 1): 1.0, (0, 3): eps})
    report = determination_experiment(
        r, high, qfac, SolverOptions(n_max=64), t=0.125, b_values=(0.0,)
    )
    run = report["runs"][0]
    assert run["residual_composed"] < 1e-7
    assert run["disc_distance"] < 1e-6
    assert run["center_distance"] < 1e-8


def test_determination_hypothesis_checks():
    r = _pure_quartic()
    qfac = factor_Q(r.model)
    shallow = BiholoMap(4, {(1, 0): 1.0, (2, 0): 1e-4}, {(0, 1): 1.0})
    with pytest.raises(ConfigError):
        determination_experiment(r, shallow, qfac, SolverOptions(n_max=32), t=0.125)
    mover = BiholoMap(4, {(1, 0): 1.0}, {(0, 1): 1.0, (0, 2): 0.5})
    with pytest.raises(ConfigError):
        determination_experiment(r, mover, qfac, SolverOptions(n_max=32), t=1.0)
    mismatched = BiholoMap(6, {(1, 0): 1.0}, {(0, 1): 1.0})
    with pytest.raises(ConfigError):
        determination_experiment(r, mismatched, qfac, SolverOptions(n_max=32), t=0.125)


def test_determination_refuses_a_bad_boundary_tol():
    # a tolerance that is negative, NaN or infinite is bad input, not a map
    # that moves the zero set
    r = _pure_quartic()
    qfac = factor_Q(r.model)
    identity = BiholoMap.identity(4)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^boundary_tol"):
            determination_experiment(r, identity, qfac, SolverOptions(n_max=32), t=0.5, boundary_tol=tol)


def test_determination_auto_scale():
    r = _pure_quartic()
    qfac = factor_Q(r.model)
    bumpy = BiholoMap(4, {(1, 0): 1.0, (5, 0): 0.5}, {(0, 1): 1.0})
    report = determination_experiment(
        r, bumpy, qfac, SolverOptions(n_max=32), b_values=(0.0,), boundary_tol=1e-5
    )
    assert report["t"] < 1.0
    assert report["boundary_defect"] <= 1e-5
