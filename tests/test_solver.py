import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discforge.discs import (
    LiftedDisc,
    ModelDiscParams,
    boundary_powers,
    model_disc,
    stationarity_residual,
    substitute_boundary,
)
from discforge.exceptions import ConfigError, NumericalError
from discforge.model import ModelPolynomial, factor_Q
from discforge.perturb import DefiningFunction, PerturbationTerm
from discforge.series import ONE_MINUS, TrigSeries, coeff_distance, divide_one_minus_zeta, multiply
from discforge.solver import (
    SolverOptions,
    eval_T_prime,
    kernel_basis_p0,
    kernel_dim_svd,
    linearize_at,
    pack_series,
    shift_projection_matrix,
    solve_newton,
    stack_value,
    unpack_series,
)
from discforge import solver
from discforge.solver import (
    _Multipliers,
    _Point,
    _carrier_n_out,
    _default_n_out,
    _eliminate_g,
    _g_pinv,
    _h_only_step,
    _linearize,
    _multipliers,
    _nonzero_rows,
    _operator_value,
    _trace,
    _weight_from_coords,
)


def _abs_power(d):
    return ModelPolynomial.from_upper(d, d // 2, {d // 2: 1.0})


def _model_d4k3():
    return ModelPolynomial.from_upper(4, 3, {2: 1.0, 3: 0.25})


def _grid_model(d, split):
    """The newton_grid models: ``|z|^d``, or split roots with k0 = d/2 + 1."""
    half = d // 2
    return ModelPolynomial.from_upper(d, half + 1, {half + 1: 0.25, half: 1.0}) if split else _abs_power(d)


def _pure(model):
    return DefiningFunction(model, (), {})


def _cubic_pert(eps):
    # |z|^4 + eps * 2 Re(z^3 zbar^2)
    model = _abs_power(4)
    return DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): eps}),), {})


def test_options_from_dict_strict():
    opts = SolverOptions.from_dict({"N": 64, "tol": 1e-8})
    assert opts.n_max == 64 and opts.tol == 1e-8
    assert opts.max_iter == 25
    with pytest.raises(ConfigError):
        SolverOptions.from_dict({"N": 64, "tolerance": 1e-8})
    with pytest.raises(ConfigError):
        SolverOptions(n_max=2)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4 * 7)
    ht, gt = unpack_series(x, 6)
    assert ht.is_analytic(0)
    assert np.array_equal(pack_series(ht, gt, 6), x)
    for n_in in (3, 9):  # truncating and padding, against a per-mode loop
        ref = [part for s in (ht, gt) for n in range(n_in + 1) for part in (s.coeff(n).real, s.coeff(n).imag)]
        assert np.array_equal(pack_series(ht, gt, n_in), ref)


def test_operator_vanishes_at_model_discs():
    rng = np.random.default_rng(11)
    for model in (_abs_power(2), _abs_power(4), _model_d4k3()):
        qfac = factor_Q(model)
        r = _pure(model)
        disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=32)
        assert max(eval_T_prime(r, disc, qfac).sup_norms()) < 1e-10
        for _ in range(3):
            b = (rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3)) * 0.9
            v = rng.uniform(0.5, 1.5)
            disc = model_disc(model, ModelDiscParams(b, v), n_max=64)
            assert max(eval_T_prime(r, disc, qfac).sup_norms()) < 1e-10


def test_t2_shift_and_projection_exact():
    # with the weight 2 cos((k0+1) t), zero h and g, the second functional is
    # negative_project(zeta^k0 c) * (-1/2) = -zetabar/2 exactly
    model = _abs_power(4)
    qfac = factor_Q(model)
    k0 = model.k0
    c = TrigSeries.from_mode_dict({k0 + 1: 1.0, -(k0 + 1): 1.0})
    zero = TrigSeries.zero(0)
    disc = LiftedDisc(c, zero, zero, validate=False)
    val = eval_T_prime(_pure(model), disc, qfac)
    assert val.t1.sup_norm() == 0.0
    assert val.t3.sup_norm() == 0.0
    assert abs(val.t2.coeff(-1) + 0.5) < 1e-15
    assert (val.t2 - TrigSeries.from_mode_dict({-1: -0.5})).sup_norm() < 1e-15


def test_t3_sees_real_part_of_g_exactly():
    # shifting g by mu (1 - zeta) changes only the boundary trace, by the
    # real part -mu (1 - cos t)
    model = _abs_power(4)
    qfac = factor_Q(model)
    r = _pure(model)
    disc = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=32)
    mu = 0.25
    bump = TrigSeries.from_mode_dict({0: mu, 1: -mu})
    shifted = LiftedDisc(disc.c, disc.h, disc.g + bump)
    v0 = eval_T_prime(r, disc, qfac)
    v1 = eval_T_prime(r, shifted, qfac)
    assert coeff_distance(v0.t1, v1.t1) < 1e-12
    assert coeff_distance(v0.t2, v1.t2) < 1e-12
    delta = v1.t3 - v0.t3
    expect = TrigSeries.from_mode_dict({0: -mu, 1: mu / 2, -1: mu / 2})
    assert coeff_distance(delta, expect) < 1e-12


def test_reduced_and_plain_share_zero_set():
    # near the base disc the reduced functionals and the raw substitution
    # residuals vanish together and blow up together
    model = _abs_power(4)
    qfac = factor_Q(model)
    r = _pure(model)
    rng = np.random.default_rng(5)
    for _ in range(10):
        b = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.2, 0.2)
        disc = model_disc(model, ModelDiscParams(b, 1.0), n_max=48)
        assert max(eval_T_prime(r, disc, qfac).sup_norms()) < 1e-9
        assert max(stationarity_residual(disc, r)) < 1e-9
        noise = TrigSeries.from_mode_dict({1: 0.01, 2: -0.01})
        bad = LiftedDisc(disc.c, disc.h + noise, disc.g)
        assert max(eval_T_prime(r, bad, qfac).sup_norms()) > 1e-6
        assert max(stationarity_residual(bad, r)) > 1e-6


def _weight_coords(c, n_weight):
    out = np.zeros(2 * n_weight + 1)
    out[0] = c.coeff(0).real
    for n in range(1, n_weight + 1):
        val = c.coeff(n)
        out[2 * n - 1], out[2 * n] = val.real, val.imag
    return out


def _fd_matrix(r, qfac, c, htilde, gtilde, n_in, n_out, n_weight, eps=1e-6):
    x0 = np.concatenate([_weight_coords(c, n_weight), pack_series(htilde, gtilde, n_in)])

    def value(x):
        cx = _weight_from_coords(x[: 2 * n_weight + 1], n_weight)
        ht, gt = unpack_series(x[2 * n_weight + 1 :], n_in)
        return stack_value(_operator_value(r, qfac, cx, _Point(ht, gt)), n_out)

    cols = []
    for j in range(x0.size):
        step = np.zeros(x0.size)
        step[j] = eps
        cols.append((value(x0 + step) - value(x0 - step)) / (2 * eps))
    return np.column_stack(cols)


def test_disc_not_divisible_by_one_minus_zeta_is_config_error():
    # h(1) != 0: the operator and its linearization reject the disc alike
    model = _abs_power(4)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=8)
    bad = LiftedDisc(disc.c, disc.h + TrigSeries.constant(0.1), disc.g, validate=False)
    for entry in (eval_T_prime, linearize_at):
        with pytest.raises(ConfigError, match="not divisible by 1 - zeta"):
            entry(_pure(model), bad, factor_Q(model))


def test_linearization_matches_finite_differences_at_base():
    model = _abs_power(4)
    qfac = factor_Q(model)
    r = _pure(model)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=8)
    n_in, n_out = 5, 30
    op = linearize_at(r, disc, qfac, n_in=n_in, n_out=n_out)
    ht = divide_one_minus_zeta(disc.h).truncate(n_in).pad_to(n_in)
    gt = divide_one_minus_zeta(disc.g).truncate(n_in).pad_to(n_in)
    fd = _fd_matrix(r, qfac, disc.c, ht, gt, n_in, n_out, n_in)
    assert np.max(np.abs(op.matrix - fd)) < 1e-6


def test_linearization_matches_finite_differences_perturbed():
    model = _model_d4k3()
    qfac = factor_Q(model)
    terms = (
        PerturbationTerm(3, 2, 0, {(0, 0): 0.01}),
        PerturbationTerm(2, 1, 1, {(0, 0): 0.005 + 0.002j}),
    )
    r = DefiningFunction(model, terms, {2: 0.003})
    disc = model_disc(model, ModelDiscParams(0.15 - 0.1j, 0.8), n_max=8)
    n_in, n_out = 5, 40
    rng = np.random.default_rng(3)
    base = pack_series(
        divide_one_minus_zeta(disc.h).truncate(n_in).pad_to(n_in),
        divide_one_minus_zeta(disc.g).truncate(n_in).pad_to(n_in),
        n_in,
    )
    ht, gt = unpack_series(base + rng.standard_normal(base.size) * 0.01, n_in)
    op = _linearize(r, qfac, disc.c, _Point(ht, gt), n_in, n_out, n_in)
    fd = _fd_matrix(r, qfac, disc.c, ht, gt, n_in, n_out, n_in)
    assert np.max(np.abs(op.matrix - fd)) < 1e-6


def test_linearized_columns_at_base_frozen():
    # at the base disc of |z|^4 the first functional responds to the degree-1
    # direction of the inner factor of h with exactly 4 zetabar, and to the
    # weight direction 2 Re(zeta) with exactly 2 zetabar; the second
    # functional ignores every weight direction there
    model = _abs_power(4)
    qfac = factor_Q(model)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=8)
    op = linearize_at(_pure(model), disc, qfac, n_in=4, n_out=20, n_weight=2)
    n_out = op.n_out
    n_wcols = 2 * op.n_weight + 1

    col = op.matrix[:, n_wcols + 2]  # h block, mode 1, real direction
    t1 = col[: 2 * n_out]
    assert abs(t1[0] - 4.0) < 1e-12
    assert np.max(np.abs(t1[1:])) < 1e-12
    col_im = op.matrix[:, n_wcols + 3]
    t1 = col_im[: 2 * n_out]
    assert abs(t1[1] + 4.0) < 1e-12
    assert np.max(np.abs(np.delete(t1, 1))) < 1e-12

    assert np.max(np.abs(op.matrix[2 * n_out : 4 * n_out, :n_wcols])) == 0.0
    col = op.matrix[:, 1]  # weight block, 2 Re(zeta) direction
    t1 = col[: 2 * n_out]
    assert abs(t1[0] - 2.0) < 1e-12
    assert np.max(np.abs(t1[1:])) < 1e-12
    assert np.max(np.abs(op.matrix[: 2 * n_out, 0])) < 1e-12  # constant weight


_PERTURBATIONS = {
    0: (PerturbationTerm(3, 2, 0, {(0, 0): 0.01}),),
    1: (PerturbationTerm(2, 1, 1, {(0, 0): 0.005 + 0.002j}),),
}


def _perturbed_point(l, n_in=12):
    """A d=4, k0=3 defining function with an ``u^l`` term, and a point off the model discs."""
    model = _model_d4k3()
    r = DefiningFunction(model, _PERTURBATIONS[l], {})
    disc = model_disc(model, ModelDiscParams(0.15 - 0.1j, 0.8), n_max=16)
    base = pack_series(
        divide_one_minus_zeta(disc.h).truncate(n_in).pad_to(n_in),
        divide_one_minus_zeta(disc.g).truncate(n_in).pad_to(n_in),
        n_in,
    )
    rng = np.random.default_rng(3)
    ht, gt = unpack_series(base + rng.standard_normal(base.size) * 0.01, n_in)
    return r, factor_Q(model), disc.c, ht, gt


def _stack_reference(t1, t2, t3, n_out):
    """The row layout of ``stack_value``, mode by mode."""
    out = np.zeros(6 * n_out + 1)
    for block, series in enumerate((t1, t2)):
        for n in range(1, n_out + 1):
            v = series.coeff(-n)
            out[2 * n_out * block + 2 * n - 2] = v.real
            out[2 * n_out * block + 2 * n - 1] = v.imag
    out[4 * n_out] = t3.coeff(0).real
    for n in range(1, n_out + 1):
        v = t3.coeff(n)
        out[4 * n_out + 2 * n - 1] = v.real
        out[4 * n_out + 2 * n] = v.imag
    return out


def _linearize_reference(mults, n_in, n_out, n_weight):
    """The Jacobian column by column, from shifted multiplier series."""
    zero = TrigSeries.zero()

    def column(pairs, n, imaginary):
        blocks = []
        for lin, anti in pairs:
            up, down = lin.shift(n), anti.shift(-n)
            blocks.append(up * 1j - down * 1j if imaginary else up + down)
        return _stack_reference(*blocks, *[zero] * (3 - len(blocks)), n_out)

    cols = []
    if n_weight is not None:
        cols.append(_stack_reference(*mults.weight, zero, n_out))
        pairs = [(m, m) for m in mults.weight]
        cols += [column(pairs, n, im) for n in range(1, n_weight + 1) for im in (False, True)]
    for pairs in (mults.h, mults.g):
        cols += [column(pairs, n, im) for n in range(n_in + 1) for im in (False, True)]
    return np.column_stack(cols)


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("with_weight", [False, True])
def test_assembly_matches_per_column_reference(l, with_weight):
    r, qfac, c, ht, gt = _perturbed_point(l)
    n_in, n_out = 12, _default_n_out(4, 3, 12)
    n_weight = r.model.k0 if with_weight else None
    op = _linearize(r, qfac, c, _Point(ht, gt), n_in, n_out, n_weight)
    mults = _multipliers(r, qfac, c, _Point(ht, gt), with_weight)
    assert np.array_equal(op.matrix, _linearize_reference(mults, n_in, n_out, n_weight))
    val = _operator_value(r, qfac, c, _Point(ht, gt))
    for n in (5, n_out):  # truncating and padding the value series
        assert np.array_equal(stack_value(val, n), _stack_reference(val.t1, val.t2, val.t3, n))


@pytest.mark.parametrize("l", [0, 1])
def test_zero_rows_trimmed_exactly(l):
    r, qfac, c, ht, gt = _perturbed_point(l)
    n_in, n_out = 12, _default_n_out(4, 3, 12)
    matrix = _linearize(r, qfac, c, _Point(ht, gt), n_in, n_out, None).matrix
    t2 = matrix[2 * n_out : 4 * n_out]
    # a u-free perturbation leaves r_w constant, so every T2 multiplier vanishes;
    # a u-term fills the block, so the rows to drop must come from the data
    assert t2.any() == (l == 1)
    keep = _nonzero_rows(matrix)
    assert not matrix[~keep].any() and np.all(matrix[keep].any(axis=1))
    f = stack_value(_operator_value(r, qfac, c, _Point(ht, gt)), n_out)
    rcond = SolverOptions().svd_threshold
    full, *_ = np.linalg.lstsq(matrix, -f, rcond=rcond)
    trimmed, *_ = np.linalg.lstsq(matrix[keep], -f[keep], rcond=rcond)
    assert np.linalg.norm(trimmed - full) <= 1e-12 * np.linalg.norm(full)


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("l", [0, 1])
def test_trace_with_all_factors_is_plain_substitution(d, split, l):
    # extra = d - 1 keeps every (1 - zeta) the factored substitution cancels,
    # which is the plain trace along (h, conj h, Im g); extra = d is that times 1 - zeta
    model, half = _grid_model(d, split), d // 2
    if l == 0:
        r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 0.01}),), {})
    else:
        term = PerturbationTerm(half, half - 1, 1, {(0, 0): 0.005 + 0.002j})
        r = DefiningFunction(model, (term,), {2: 0.003})
    disc = model_disc(model, ModelDiscParams(0.15 - 0.1j, 0.8), n_max=16)
    n_in = 12
    ht, gt = (divide_one_minus_zeta(s).truncate(n_in) for s in (disc.h, disc.g))
    base = pack_series(ht, gt, n_in)
    noise = np.random.default_rng(d + l).standard_normal(base.size) * 0.01
    ht, gt = unpack_series(base + noise, n_in)
    point = _Point(ht, gt)
    pows = boundary_powers(point.h, point.g)
    for mon in (r.rz_mon(), r.rw_mon(), r.big_r_mon()):
        plain = substitute_boundary(mon, pows)
        tol = 1e-12 * plain.sup_norm()
        assert (_trace(mon, d, point, d - 1) - plain).sup_norm() <= tol
        assert (_trace(mon, d, point, d) - multiply(ONE_MINUS, plain)).sup_norm() <= tol


def _newton_row_counts(monkeypatch, d, split):
    """T1/T2/T3 rows that are not exactly zero, in each Jacobian of a newton_grid solve at N=64.

    Returns the counts of a formal-size Jacobian at each point the solve
    linearizes at, and those of the carrier-sized Jacobian the solve uses.
    """
    model, half = _grid_model(d, split), d // 2
    formal, carrier = [], []

    def counts(op):
        keep, n_out = _nonzero_rows(op.matrix), op.n_out
        blocks = ((0, 2 * n_out), (2 * n_out, 4 * n_out), (4 * n_out, None))
        return tuple(int(keep[i:j].sum()) for i, j in blocks)

    def recording(defn, qfac, c, point, n_in, n_out, n_weight):
        formal_n_out = _default_n_out(defn.model.d, defn.model.k0, n_in)
        formal.append(counts(_linearize(defn, qfac, c, point, n_in, formal_n_out, n_weight)))
        op = _linearize(defn, qfac, c, point, n_in, n_out, n_weight)
        carrier.append(counts(op))
        return op

    monkeypatch.setattr(solver, "_linearize", recording)
    r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=64)
    assert solve_newton(r, factor_Q(model), 0.1, init, SolverOptions(n_max=64)).converged
    return formal, carrier


@pytest.mark.parametrize(
    "d, split, counts",
    [
        (4, False, [(386, 0, 387), (390, 0, 391)]),
        (6, True, [(824, 0, 515), (824, 0, 521)]),
    ],
)
def test_newton_jacobian_nonzero_rows_pinned(monkeypatch, d, split, counts):
    # the T1/T2/T3 rows of the first two Newton Jacobians that are not exactly
    # zero, for a newton_grid case at N=64: a multiplier that fills structurally
    # zero modes with rounding noise grows every least-squares problem
    seen, _ = _newton_row_counts(monkeypatch, d, split)
    assert seen[:2] == counts


@pytest.mark.parametrize(
    "d, split, counts",
    [
        (4, False, [(162, 0, 163), (162, 0, 163)]),
        (6, True, [(168, 0, 169), (168, 0, 169)]),
    ],
)
def test_newton_jacobian_carrier_rows_pinned(monkeypatch, d, split, counts):
    # the same Jacobians stopped at the multipliers' numerical carrier: rows
    # only rounding-level coefficients reach are never assembled
    _, seen = _newton_row_counts(monkeypatch, d, split)
    assert seen[:2] == counts


@pytest.mark.parametrize(
    "block, side, mode, reach",
    [(0, 0, -30, 30), (0, 1, -30, 40), (1, 0, -25, 25), (1, 1, -25, 35), (2, 0, 30, 40), (2, 1, 30, 30)],
)
def test_carrier_reach_of_each_multiplier(block, side, mode, reach):
    # one multiplier holds a coefficient at ``mode`` and rounding-level ones at
    # +-100; a column n <= n_in shifts lin by zeta^n and anti by zeta^-n, so the
    # T1/T2 rows (negative modes) and the T3 rows (modes >= 0) see different ends
    n_in, zero = 10, TrigSeries.zero()
    series = TrigSeries.from_mode_dict({mode: 0.5 - 0.5j, -100: 1e-17, 100: 1e-17})
    pairs = tuple(tuple(series if (b, k) == (block, side) else zero for k in range(2)) for b in range(3))
    zeros = ((zero, zero),) * 3
    for mults in (_Multipliers(pairs, zeros, None), _Multipliers(zeros, pairs, None)):
        assert _carrier_n_out(mults, n_in, None, 1000) == reach
        assert _carrier_n_out(mults, n_in, None, 20) == 20
    if block < 2:  # the weight acts on T1/T2 with lin = anti, for n <= n_weight
        weight = (series, zero) if block == 0 else (zero, series)
        assert _carrier_n_out(_Multipliers(zeros, zeros, weight), n_in, 3, 1000) == 3 - mode


def test_newton_on_trimmed_rows_matches_full_rows(monkeypatch):
    model = _model_d4k3()
    qfac = factor_Q(model)
    r = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.1j, 1.0), n_max=48)
    opts = SolverOptions(n_max=48)
    trimmed = solve_newton(r, qfac, 0.1j, init, opts)
    monkeypatch.setattr(solver, "_nonzero_rows", lambda m: np.ones(m.shape[0], dtype=bool))
    full = solve_newton(r, qfac, 0.1j, init, opts)
    assert trimmed.iterations == full.iterations > 0
    assert coeff_distance(trimmed.disc.h, full.disc.h) < 1e-10
    assert coeff_distance(trimmed.disc.g, full.disc.g) < 1e-10


@pytest.mark.parametrize(
    "model, b, n, tol",
    [(_model_d4k3(), 0.1j, 48, 1e-12), (_grid_model(6, True), -0.45, 64, 1e-9)],
)
def test_newton_on_carrier_rows_matches_formal_rows(monkeypatch, model, b, n, tol):
    # dropping the rows only rounding-level multiplier coefficients reach moves
    # the iterates at rounding level: the same steps, the same disc
    qfac, half = factor_Q(model), model.d // 2
    r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(b, 1.0), n_max=n)
    opts = SolverOptions(n_max=n)
    carrier = solve_newton(r, qfac, b, init, opts)
    monkeypatch.setattr(solver, "_carrier_n_out", lambda mults, n_in, n_weight, n_out: n_out)
    formal = solve_newton(r, qfac, b, init, opts)
    assert carrier.iterations == formal.iterations > 0
    assert coeff_distance(carrier.disc.h, formal.disc.h) <= tol
    assert coeff_distance(carrier.disc.g, formal.disc.g) <= tol


@pytest.mark.parametrize("cols, serial", [(solver.SERIAL_LSTSQ_COLS, True), (0, False)])
def test_newton_steps_up_to_the_cap_run_on_one_blas_thread(monkeypatch, cols, serial):
    # the caller's thread count is restored after the solve and after a raise
    threads = solver._openblas_threads()
    count = (lambda: None) if threads is None else threads[0]
    before, seen = count(), []

    def recording(lapack):
        def call(*args, **kwargs):
            seen.append(count())
            return lapack(*args, **kwargs)

        return call

    # a step factors [B | b] (triangular factor only), then takes the SVD of
    # that factor and a QR of the lifted kernel of B
    for name in ("lstsq", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    monkeypatch.setattr(solver, "SERIAL_LSTSQ_COLS", cols)
    model = _model_d4k3()
    r = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.1j, 1.0), n_max=48)
    solve_newton(r, factor_Q(model), 0.1j, init, SolverOptions(n_max=48))
    expected = before if threads is None or not serial else 1
    assert seen and set(seen) == {expected}
    assert count() == before
    with pytest.raises(RuntimeError), solver._serial_blas():
        raise RuntimeError
    assert count() == before


def test_kernel_dimension_by_svd():
    for model, expected in (
        (_abs_power(2), 5),
        (_abs_power(4), 7),
        (_model_d4k3(), 11),
    ):
        qfac = factor_Q(model)
        disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=max(8, 2 * model.d))
        op = linearize_at(_pure(model), disc, qfac, n_in=48, n_weight=model.k0)
        assert kernel_dim_svd(op) == expected
        assert expected == 4 * model.k0 - model.d + 3
        # interleaved zero rows change no singular value
        padded = np.insert(op.matrix, np.arange(0, op.matrix.shape[0], 2), 0.0, axis=0)
        assert kernel_dim_svd(padded) == expected
    # fewer nonzero rows than columns: the rank is that of the nonzero rows
    wide = np.zeros((6, 3))
    wide[1, 0] = wide[4, 1] = 1.0
    assert kernel_dim_svd(wide) == 1


def test_kernel_dim_requires_clean_gap():
    smooth = np.diag(0.5 ** np.arange(12.0))
    with pytest.raises(NumericalError):
        kernel_dim_svd(smooth, threshold=1e-2)


def test_shift_projection_kernel_counts():
    for m in range(6):
        mat = shift_projection_matrix(m, 12)
        rank = np.linalg.matrix_rank(mat)
        assert mat.shape[1] - rank == m + 1
    with pytest.raises(ConfigError):
        shift_projection_matrix(3, 2)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=10))
@settings(max_examples=25, deadline=None)
def test_shift_projection_kernel_property(m, extra):
    n_modes = m + extra
    mat = shift_projection_matrix(m, n_modes)
    rank = np.linalg.matrix_rank(mat) if mat.size else 0
    assert mat.shape[1] - rank == m + 1


def test_kernel_basis_annihilates():
    for model in (_abs_power(2), _abs_power(4), _model_d4k3()):
        qfac = factor_Q(model)
        basis = kernel_basis_p0(model, qfac, n_in=48)
        assert basis.dim == 4 * model.k0 - model.d + 3
        assert max(basis.residuals) < 1e-9
        gram = basis.coords @ basis.coords.T
        assert np.linalg.cond(gram) < 1e6


def test_kernel_gate_scales_with_the_matrix(monkeypatch):
    # a random d=6, k0=5 model whose linearization has entries up to 2.1e2:
    # its basis annihilates to 8.9e-9, inside 1e-9 of the largest entry
    alpha = {
        3: 1.5391694096423825,
        4: -0.16099038295856888 - 0.23154544964129667j,
        5: 0.7135720856620185 + 0.6293821852620319j,
    }
    model = ModelPolynomial.from_upper(6, 5, alpha)
    qfac = factor_Q(model)
    basis = kernel_basis_p0(model, qfac)
    assert basis.dim == 4 * model.k0 - model.d + 3
    assert 1e-9 < max(basis.residuals)
    # a g component nudged by 1e-3 zeta off the kernel still fails the gate
    exact = solver.analytic_from_real_part
    nudge = TrigSeries.from_mode_dict({1: 1e-3, 2: -1e-3})
    monkeypatch.setattr(solver, "analytic_from_real_part", lambda p: exact(p) + nudge)
    with pytest.raises(NumericalError, match="fails to annihilate"):
        kernel_basis_p0(model, qfac)


def test_newton_refuses_an_oversized_jacobian():
    # d=6, k0=4 needs 1.2 GiB at N=1024: refused before anything is assembled
    model = _grid_model(6, True)
    init = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=16)
    with pytest.raises(ConfigError, match="Jacobian"):
        solve_newton(_pure(model), factor_Q(model), 0.1, init, SolverOptions(n_max=1024))
    with pytest.raises(ConfigError, match="exceeds the cap"):
        SolverOptions(n_max=solver.MAX_N + 1)


def test_kernel_basis_weight_coupling_frozen():
    # the vector induced by the weight direction Re(zeta) carries the inner
    # h factor -zeta/2 relative to the weight amplitude (plus a free
    # constant); the ratio of the degree-1 coefficients is exactly -1/2
    model = _abs_power(4)
    basis = kernel_basis_p0(model, factor_Q(model), n_in=24)
    hit = 0
    for cprime, hprime, _ in basis.vectors:
        c1 = cprime.coeff(1)
        if abs(c1) < 1e-12 or abs(cprime.coeff(0)) > 1e-12 or abs(cprime.coeff(2)) > 1e-12:
            continue
        ht = divide_one_minus_zeta(hprime, tol=1e-7)
        assert abs(ht.coeff(1) / c1 + 0.5) < 1e-9
        hit += 1
    assert hit == 2


def test_kernel_basis_tail_shapes_for_split_roots():
    # with an inside root the homogeneous directions include the binomial
    # tail sum_n conj(root)^n zeta^n in the inner h factor
    model = _model_d4k3()
    qfac = factor_Q(model)
    (root, mult), = qfac.roots_inside
    assert mult == 1
    basis = kernel_basis_p0(model, qfac, n_in=24)
    tails = []
    for cprime, hprime, _ in basis.vectors:
        if cprime.sup_norm() > 1e-12:
            continue
        ht = divide_one_minus_zeta(hprime, tol=1e-7)
        if abs(ht.coeff(1)) > 1e-12:
            tails.append(ht)
    assert len(tails) >= 2
    for ht in tails:
        ratio = ht.coeff(2) / ht.coeff(1)
        assert abs(ratio - np.conj(root)) < 1e-10


def test_newton_base_point_needs_no_steps():
    model = _abs_power(4)
    qfac = factor_Q(model)
    for b in (0.0, 0.1):
        init = model_disc(model, ModelDiscParams(b, 1.0), n_max=64)
        result = solve_newton(_pure(model), qfac, b, init, SolverOptions(n_max=64))
        assert result.converged and result.iterations == 0
        assert coeff_distance(result.disc.h, init.h) < 1e-12
        assert max(result.stationarity) < 1e-12


def test_newton_converges_on_cubic_perturbation():
    model = _abs_power(4)
    qfac = factor_Q(model)
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=64)
    for eps in (1e-4, 1e-3):
        result = solve_newton(_cubic_pert(eps), qfac, 0.0, init, SolverOptions(n_max=64))
        assert result.converged
        assert result.iterations <= 10
        assert max(result.stationarity) < 1e-9
        # the residual history must be strictly decreasing
        assert all(a > b for a, b in zip(result.history, result.history[1:]))


def test_newton_truncation_stability():
    model = _abs_power(4)
    qfac = factor_Q(model)
    r = _cubic_pert(1e-3)
    discs = []
    for n in (64, 128):
        init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=n)
        discs.append(solve_newton(r, qfac, 0.0, init, SolverOptions(n_max=n)).disc)
    assert coeff_distance(discs[0].h, discs[1].h) < 1e-8
    assert coeff_distance(discs[0].g, discs[1].g) < 1e-8


def test_newton_nonzero_b_perturbed():
    model = _abs_power(4)
    qfac = factor_Q(model)
    init = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=64)
    result = solve_newton(_cubic_pert(1e-3), qfac, 0.1, init, SolverOptions(n_max=64))
    assert result.converged
    assert max(result.stationarity) < 1e-9
    # the weight stays pinned at c(b)
    assert coeff_distance(result.disc.c, init.c) == 0.0


@pytest.mark.parametrize("n", [48, 56])
def test_newton_reports_under_resolution_not_the_line_search(n):
    # newton_grid seed 4 d4-k3-b0.45-p3 below the truncation it needs (it
    # converges from N=64): the line search stalls at an iterate whose
    # coefficients have not decayed, so the truncation is reported
    model = _grid_model(4, True)
    b, eps = 0.4006313092466119 + 0.20492572813423318j, -0.000640153662736693 + 0.0007682468926619856j
    r = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): eps}),), {})
    init = model_disc(model, ModelDiscParams(b, 1.0), n_max=n)
    with pytest.raises(NumericalError, match="truncation too small"):
        solve_newton(r, factor_Q(model), b, init, SolverOptions(n_max=n))


def _first_step(d, split, n=64):
    """The first Newton Jacobian and residual of a pinned newton_grid case (b = 0.1)."""
    model, half = _grid_model(d, split), d // 2
    r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.1, 1.0), n_max=n)
    qfac, c = factor_Q(model), init.c
    point = _Point(*(divide_one_minus_zeta(s, tol=1e-6).truncate(n).pad_to(n) for s in (init.h, init.g)))
    op = _linearize(r, qfac, c, point, n, None, None)
    return op, stack_value(_operator_value(r, qfac, c, point), op.n_out)


@pytest.mark.parametrize("d, split", [(4, False), (6, True)])
def test_h_only_step_is_the_full_minimal_norm_step(d, split):
    # the step the full lstsq gives on the first Jacobian, for the residual
    # there and for a random right-hand side, which the Jacobian does not
    # reach: the eliminated rows must keep their least-squares weight
    op, rhs = _first_step(d, split)
    keep = _nonzero_rows(op.matrix)
    jac = op.matrix[keep]
    _, sigma, vt = np.linalg.svd(jac)
    kernel = vt[np.sum(sigma > 1e-8 * sigma[0]) :]
    assert len(kernel) > 0
    for f in (rhs, np.random.default_rng(d).standard_normal(rhs.size)):
        full, *_ = np.linalg.lstsq(jac, -f[keep], rcond=1e-8)
        mat, vec, lift = _eliminate_g(op.matrix, f, op.n_in, op.n_out)
        assert mat.shape[1] == jac.shape[1] // 2
        step = _h_only_step(mat, vec, lift, 1e-8)
        assert np.linalg.norm(step - full) <= 1e-10 * np.linalg.norm(full)
        assert np.max(np.abs(kernel @ step)) <= 1e-10 * np.linalg.norm(step)


def test_g_pinv_inverts_g_on_its_range():
    # G: the T3 rows of modes 0 .. n_in + 1 against the gt columns; its range
    # is the orthogonal complement of w, evaluation at zeta = 1
    op, _ = _first_step(4, False, n=24)
    n_in, top = op.n_in, 4 * op.n_out
    g = op.matrix[top : top + 2 * n_in + 3, 2 * (n_in + 1) :]
    w = solver._eval_at_one(n_in)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((2 * n_in + 3, 3))
    assert np.max(np.abs(g @ _g_pinv(y, n_in) - (y - np.outer(w, w @ y) / (w @ w)))) <= 1e-14
    x = rng.standard_normal(2 * (n_in + 1))
    assert np.max(np.abs(_g_pinv(g @ x, n_in) - x)) <= 1e-12


def test_u_dependent_solve_takes_the_full_lstsq_path(monkeypatch):
    # an l = 1 term couples the T1/T2 rows to g: no elimination, the whole
    # [h | g] step goes to lstsq, and the outcome is that of the previous code
    model = _abs_power(4)
    r = DefiningFunction(model, (PerturbationTerm(2, 1, 1, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=32)
    cols, lstsq = [], np.linalg.lstsq

    def recording(a, *args, **kwargs):
        cols.append(a.shape[1])
        return lstsq(a, *args, **kwargs)

    def eliminated(*args):
        raise AssertionError("g eliminated for a u-dependent r")

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    monkeypatch.setattr(solver, "_eliminate_g", eliminated)
    expected = r"^no convergence in 25 iterations \(reduced 1\.612e-02, plain 7\.113e-02\)$"
    with pytest.raises(NumericalError, match=expected):
        solve_newton(r, factor_Q(model), 0.0, init, SolverOptions(n_max=32))
    assert cols == [4 * 33] * 25


def test_newton_converges_where_the_coupled_rank_cut_failed():
    # newton_grid seed 4 d4-k3-b0.45-p3 failed at every N in 24 .. 192 while
    # each step was cut at 1e-8 of the coupled [h | g] Jacobian's norm: that
    # cut dropped real directions.  Cut on the h-only matrix, it converges and
    # refines.
    model = _grid_model(4, True)
    b, eps = 0.4006313092466119 + 0.20492572813423318j, -0.000640153662736693 + 0.0007682468926619856j
    r = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): eps}),), {})
    refined = []
    for n in (96, 128):
        init = model_disc(model, ModelDiscParams(b, 1.0), n_max=n)
        result = solve_newton(r, factor_Q(model), b, init, SolverOptions(n_max=n))
        assert result.converged and max(result.stationarity) < 1e-9
        refined.append(result.disc)
    assert coeff_distance(refined[0].h, refined[1].h) <= 1e-12
    assert coeff_distance(refined[0].g, refined[1].g) <= 1e-12


def test_a_computed_disc_failing_the_pin_check_is_numerical(monkeypatch):
    # the disc is the solver's output, not the user's input: exit 1, not 2
    model = _abs_power(4)
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=64)
    monkeypatch.setattr("discforge.discs.PIN_TOL", 0.0)
    with pytest.raises(NumericalError, match="pin check"):
        solve_newton(_cubic_pert(1e-3), factor_Q(model), 0.0, init, SolverOptions(n_max=64))


def test_newton_error_paths():
    model = _abs_power(4)
    qfac = factor_Q(model)
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=64)
    with pytest.raises(ConfigError):
        solve_newton(_pure(model), qfac, 0.6, init)
    with pytest.raises(NumericalError):
        solve_newton(_cubic_pert(1e-3), qfac, 0.0, init, SolverOptions(n_max=64, max_iter=1))
    far = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): 40.0}),), {})
    with pytest.raises(NumericalError):
        solve_newton(far, qfac, 0.0, init, SolverOptions(n_max=64, x_norm_bound=10.0))
