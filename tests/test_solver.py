import dataclasses
import itertools
import math
import re
import warnings
import weakref
from pathlib import Path

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
from discforge.model import ModelPolynomial, QFactorization, factor_Q
from discforge.jets import jet_map
from discforge.perturb import DefiningFunction, PerturbationTerm, dilate
from discforge.series import (
    ONE_MINUS,
    Powers,
    TrigSeries,
    coeff_distance,
    divide_one_minus_zeta,
    multiply,
    sum_terms,
)
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
    # a NaN, infinite or non-positive bound would switch the distance gate off
    for bound in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ConfigError):
            SolverOptions(x_norm_bound=bound)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4 * 7)
    ht, gt = unpack_series(x, 6)
    assert ht.is_analytic(0)
    assert np.array_equal(pack_series(ht, gt, 6), x)
    for n_in in (3, 9):  # truncating and padding, against a per-mode loop
        ref = [part for s in (ht, gt) for n in range(n_in + 1) for part in (s.coeff(n).real, s.coeff(n).imag)]
        assert np.array_equal(pack_series(ht, gt, n_in), ref)


def _sup(value):
    """The largest sup norm of the three defects in an ``OperatorValue``."""
    return max(value.t1.sup_norm(), value.t2.sup_norm(), value.t3.sup_norm())


def test_operator_vanishes_at_model_discs():
    rng = np.random.default_rng(11)
    for model in (_abs_power(2), _abs_power(4), _model_d4k3()):
        qfac = factor_Q(model)
        r = _pure(model)
        disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=32)
        assert _sup(eval_T_prime(r, disc, qfac)) < 1e-10
        for _ in range(3):
            b = (rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3)) * 0.9
            v = rng.uniform(0.5, 1.5)
            disc = model_disc(model, ModelDiscParams(b, v), n_max=64)
            assert _sup(eval_T_prime(r, disc, qfac)) < 1e-10


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
        assert _sup(eval_T_prime(r, disc, qfac)) < 1e-9
        assert max(stationarity_residual(disc, r)) < 1e-9
        noise = TrigSeries.from_mode_dict({1: 0.01, 2: -0.01})
        bad = LiftedDisc(disc.c, disc.h + noise, disc.g)
        assert _sup(eval_T_prime(r, bad, qfac)) > 1e-6
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


def test_linearization_matches_finite_differences_past_the_disc_order():
    # the base disc of a perturbed m152 (|q| = 1.063) has order 8, yet the
    # columns up to n_in read the anti multipliers' 1/s tails up to mode n_in
    model = ModelPolynomial.from_upper(4, 3, {2: 2.077152838462987, 3: -1.0903275387821865 + 0.8494329612641656j})
    qfac = factor_Q(model)
    assert len(qfac.roots_outside) == 1
    r = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): 0.01}),), {})
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=8)
    n_in, n_out, n_weight = 24, 40, model.k0
    op = linearize_at(r, disc, qfac, n_in=n_in, n_out=n_out, n_weight=n_weight)
    ht = divide_one_minus_zeta(disc.h).pad_to(n_in)
    gt = divide_one_minus_zeta(disc.g).pad_to(n_in)
    fd = _fd_matrix(r, qfac, disc.c, ht, gt, n_in, n_out, n_weight)
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
    mults = _multipliers(r, qfac, c, _Point(ht, gt), n_in, n_weight)
    assert np.array_equal(op.matrix, _linearize_reference(mults, n_in, n_out, n_weight))
    val = _operator_value(r, qfac, c, _Point(ht, gt))
    for n in (5, n_out):  # truncating and padding the value series
        assert np.array_equal(stack_value(val, n), _stack_reference(val.t1, val.t2, val.t3, n))


@pytest.mark.parametrize("l", [0, 1])
def test_t2_rows_vanish_exactly_without_u(l):
    r, qfac, c, ht, gt = _perturbed_point(l)
    n_in, n_out = 12, _default_n_out(4, 3, 12)
    matrix = _linearize(r, qfac, c, _Point(ht, gt), n_in, n_out, None).matrix
    t2 = matrix[2 * n_out : 4 * n_out]
    # a u-free perturbation leaves r_w constant, so every T2 multiplier vanishes
    # and _eliminate_g may leave those rows out; a u-term fills the block
    assert t2.any() == (l == 1)


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
        keep, n_out = np.any(op.matrix, axis=1), op.n_out
        blocks = ((0, 2 * n_out), (2 * n_out, 4 * n_out), (4 * n_out, None))
        return tuple(int(keep[i:j].sum()) for i, j in blocks)

    def recording(defn, qfac, c, point, n_in, n_out, n_weight, h_only=False):
        formal_n_out = _default_n_out(defn.model.d, defn.model.k0, n_in)
        formal.append(counts(_linearize(defn, qfac, c, point, n_in, formal_n_out, n_weight, h_only)))
        op = _linearize(defn, qfac, c, point, n_in, n_out, n_weight, h_only)
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
        (6, True, [(514, 0, 515), (520, 0, 521)]),
    ],
)
def test_newton_jacobian_nonzero_rows_pinned(monkeypatch, d, split, counts):
    # the T1/T2/T3 rows of the first two Newton Jacobians that are not exactly
    # zero, for a newton_grid case at N=64: a multiplier that fills structurally
    # zero modes with rounding noise grows every least-squares problem.  The
    # division by s keeps the structural zeros of its dividend, so with an
    # outside root as without one, T1 stops one row below T3
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


def test_kernel_on_carrier_rows_matches_formal_rows(monkeypatch):
    # the kernel functions' linearizations stop at the multipliers' carrier,
    # as Newton's do: the rows only rounding-level coefficients reach leave the
    # spectrum, the kernel dimension and the basis as the formal rows give them
    model = _model_d4k3()
    qfac = factor_Q(model)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=8)
    step = solver._h_only_step

    def run():
        rows = []

        def recording_step(mat, *args):
            rows.append(mat.shape[0])
            return step(mat, *args)

        op = linearize_at(_pure(model), disc, qfac, n_in=48, n_weight=model.k0)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_h_only_step", recording_step)
            basis = kernel_basis_p0(model, qfac, n_in=48)
        sigma = np.linalg.svd(op.matrix, compute_uv=False)
        return op.matrix.shape[0], rows, kernel_dim_svd(op), sigma, basis

    rows, step_rows, dim, sigma, basis = run()
    monkeypatch.setattr(solver, "_carrier_n_out", lambda mults, n_in, n_weight, n_out: n_out)
    formal_rows, formal_step_rows, formal_dim, formal_sigma, formal_basis = run()
    assert rows < formal_rows and step_rows[0] < formal_step_rows[0]
    assert dim == formal_dim == basis.dim == formal_basis.dim
    rank = sigma.size - dim
    assert np.all(np.abs(sigma[:rank] - formal_sigma[:rank]) <= 1e-12 * formal_sigma[:rank])
    assert np.max(np.abs(basis.coords - formal_basis.coords)) <= 1e-10


def test_products_convolve_only_nonzero_windows(monkeypatch):
    # every product convolves factors that start and end on a nonzero
    # coefficient: no multiply-adds on the exact zeros of one-sided series
    convolve, calls = np.convolve, []

    def checked(a, v, *args, **kwargs):
        calls.append(all(x[0] != 0 and x[-1] != 0 for x in (a, v)))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr("discforge.series.np.convolve", checked)
    model = _abs_power(8)
    disc = model_disc(model, ModelDiscParams(0.3, 1.0), n_max=128)
    stationarity_residual(disc, _pure(model))
    model = _model_d4k3()
    r = DefiningFunction(model, (PerturbationTerm(3, 2, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.1j, 1.0), n_max=32)
    fft, ffts = np.fft.fft, []
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: ffts.append(1) or fft(*args, **kwargs))
    solve_newton(r, factor_Q(model), 0.1j, init, SolverOptions(n_max=32))
    assert calls and all(calls)
    assert not ffts  # the division by s (one outside root here) stays in coefficient space


@pytest.mark.parametrize(
    "roots",
    [(1.5 * np.exp(0.3j),), (1.1 * np.exp(2.0j), -2.5j), ((1 + 1e-7) * np.exp(0.7j),), ((1 + 1e-7) * np.exp(-1.2j), 1.2)],
)
@pytest.mark.parametrize("keep", [0, 40])
def test_division_by_s_is_exact_up_to_the_kept_order(monkeypatch, roots, keep):
    # the constant monomial's plain trace times c = x is x, so _trace returns
    # x / s, kept to max(n, keep); the quotient times s gives x back on every
    # kept mode, and a root just outside the circle cuts its kernel at the
    # max(n, keep) + n lags a kept mode reads
    d, n = 4, 24
    top = max(n, keep)
    rng = np.random.default_rng(len(roots))
    x = TrigSeries(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))
    qfac = QFactorization(constant=1.0, roots_inside=(), roots_outside=roots)
    point = _Point(TrigSeries.zero(), TrigSeries.zero())
    geometric, lags = TrigSeries.geometric, []

    def recording(ratio, n_max):
        lags.append(n_max)
        return geometric(ratio, n_max)

    monkeypatch.setattr(TrigSeries, "geometric", recording)
    quotient = _trace({(0, 0, 0): 1.0}, d, point, d - 1, x, 0, qfac, keep)
    assert quotient.n_max == top
    assert len(lags) == len(roots) and all(lag <= top + n for lag in lags)
    back = multiply(quotient, qfac.s_poly()).truncate(top)
    assert coeff_distance(back, x) <= 1e-13 * float(np.max(np.abs(x.coeffs)))


def _per_term_trace(mon, d, tildes, extra, c=None, k0=0, qfac=None, keep=0):
    """``_trace`` as a chain of series products per monomial: the reference for the product table.

    Each monomial's term is ``(1 - zeta)^expo ht^a conj(ht)^b u^e``, multiplied
    out from the powers of each factor, and the terms are summed as series.
    """
    htilde, gtilde = tildes
    bases = (ONE_MINUS, htilde, htilde.conjugate(), gtilde + gtilde.shift(1).conjugate())
    om, ph, phb, pu = (Powers(base) for base in bases)

    def terms():
        for (a, b, e), kappa in sorted(mon.items()):
            term = om[a + b + e + extra - (d - 1)]
            for pows, k in ((ph, a), (phb, b), (pu, e)):
                if k:
                    term = multiply(term, pows[k])
            yield term, kappa * (-1.0) ** b * (-0.5j) ** e, -b

    out = sum_terms(terms())
    if c is not None:
        out = multiply(c, out)
    out = out.shift(k0)
    n, top = out.n_max, max(out.n_max, keep)
    for q in qfac.roots_outside if qfac is not None else ():
        lags = min(top + n, math.ceil(39 / math.log(abs(q))))
        out = multiply(out, TrigSeries.geometric(1 / q, lags)).truncate(top).scale(1 / q)
    return out


class _KeptPoint(_Point):
    """A ``_Point`` that keeps the ``(ht, gt)`` it was made of, for the reference traces."""

    def __init__(self, htilde, gtilde):
        super().__init__(htilde, gtilde)
        self.tildes = (htilde, gtilde)


def _first_iterates(d, split, bmag, n, count=2):
    """``(r, qfac, c, points)``: the first ``count`` iterates of a newton_grid solve that linearizes at every one."""
    seen = []

    class Enough(Exception):
        pass

    linearize = solver._linearize

    def recording(defn, qfac, c, point, *args, **kwargs):
        seen.append((defn, qfac, c, point))
        if len(seen) == count:
            raise Enough
        return linearize(defn, qfac, c, point, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, pytest.raises(Enough):
        patch.setattr(solver, "_Point", _KeptPoint)
        patch.setattr(solver, "_linearize", recording)
        patch.setattr(solver, "CLOSE_LEVEL", 0.0)
        _grid_solve(d, split, bmag, 1e-3, n)
    return (*seen[0][:3], [point for *_, point in seen])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("bmag", [0.1, 0.45])
@pytest.mark.parametrize("d, split", [(4, False), (4, True), (6, False), (6, True)])
def test_traces_off_the_product_table_are_the_per_term_products(monkeypatch, d, split, bmag, n):
    # every trace the operator value and the multipliers read at the first and
    # second Newton iterate, the weight's included, has the order and, to 2e-13
    # of its largest coefficient, the coefficients of the chain of series
    # products per monomial that the product table replaced.  The bound is the
    # rounding of the sums, not a tolerance of the table: the d6-k4 |b| = 0.45
    # operator trace T1 cancels to 1e-14 in its negative modes, and there the
    # chain itself lies up to 1.4e-13 (and the table 1.5e-13) of the largest
    # coefficient from the same chain in extended precision
    r, qfac, c, points = _first_iterates(d, split, bmag, n)
    trace, seen = solver._trace, []

    def recording(mon, d, point, extra, *args, **kwargs):
        out = trace(mon, d, point, extra, *args, **kwargs)
        seen.append((out, _per_term_trace(mon, d, point.tildes, extra, *args, **kwargs)))
        return out

    monkeypatch.setattr(solver, "_trace", recording)
    for point in points:
        _operator_value(r, qfac, c, point)
        _multipliers(r, qfac, c, point, n, n)
    assert len(seen) == 2 * (3 + 8 + 2)
    for got, ref in seen:
        assert got.n_max == ref.n_max
        assert coeff_distance(got, ref) <= 2e-13 * np.max(np.abs(ref.coeffs))


@pytest.mark.parametrize("term", [PerturbationTerm(4, 3, 0, {(0, 0): 1e-3}), PerturbationTerm(2, 3, 1, {(0, 0): 1e-3})])
def test_each_table_entry_is_built_once_per_iterate(monkeypatch, term):
    # the operator value and the multipliers at one point read one table: each
    # entry (a, b, e) is built the first time a trace asks for it and never
    # again, also where r involves u and the entries carry powers of it
    model = _grid_model(6, True)
    r, qfac = DefiningFunction(model, (term,), {}), factor_Q(model)
    init = model_disc(model, ModelDiscParams(0.45, 1.0), n_max=64)
    point = _Point(*(divide_one_minus_zeta(s, tol=1e-6).truncate(64).pad_to(64) for s in (init.h, init.g)))
    build, built = _Point._build, []

    def counted(self, key):
        built.append(key)
        return build(self, key)

    monkeypatch.setattr(_Point, "_build", counted)
    for _ in range(2):
        _operator_value(r, qfac, init.c, point)
        _multipliers(r, qfac, init.c, point, 64, None)
    assert len(built) == len(set(built))
    assert set(built) == set(point.table) - {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert any(e for _, _, e in built) == bool(term.l)


@pytest.mark.parametrize("b", [0.0, 0.2])
def test_newton_converges_with_an_outside_root_near_the_circle(b):
    # model_survey's m152 (d=4, k0=3): 1/s decays only by 1/|q| = 0.94 per
    # mode, far past N=64, yet every mode the solve reads is exact
    model = ModelPolynomial.from_upper(4, 3, {2: 2.077152838462987, 3: -1.0903275387821865 + 0.8494329612641656j})
    qfac = factor_Q(model)
    assert [round(abs(q), 4) for q in qfac.roots_outside] == [1.0634]
    assert [round(abs(r), 4) for r, _ in qfac.roots_inside] == [0.9404]
    init = model_disc(model, ModelDiscParams(b, 1.0), n_max=64)
    res = solve_newton(_pure(model), qfac, b, init, SolverOptions(n_max=64))
    assert res.converged
    assert max(res.stationarity) <= 1e-13


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

    # a step factors the bordered [B | b | 0; C | 0 | I] (triangular factor
    # only), solves its diagonal blocks and factors the kernel and its lift
    # (the SVD only where the pin fails its check)
    for name in ("lstsq", "qr", "svd", "inv", "solve", "eigh"):
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
    # a g component nudged by 1e-3 zeta off the kernel still fails the gate:
    # every column of G⁺ y gains 1e-3 on the real part of gt's mode 1, so the
    # lift dg = -G⁺ A_top dh of each direction moves by a multiple of zeta
    exact = solver._g_pinv

    def nudged(y, n_in):
        out = exact(y, n_in)
        out[2] += 1e-3
        return out

    monkeypatch.setattr(solver, "_g_pinv", nudged)
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


def _counting(monkeypatch, name):
    """Count the calls of ``solver.<name>`` from here on."""
    calls, inner = [], getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def _grid_solve(d, split, b, eps, n):
    model, half = _grid_model(d, split), d // 2
    r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): eps}),), {})
    init = model_disc(model, ModelDiscParams(b, 1.0), n_max=n)
    return solve_newton(r, factor_Q(model), b, init, SolverOptions(n_max=n))


_FLOOR = r"stalls at (\S+) above inner_tol 1\.0e-11 at N = 64 .*; a larger N resolves the disc$"


def test_newton_stops_at_the_truncation_floor(monkeypatch):
    # newton_grid seed 1 d6-k4-b0.45-p4 at N=64 reaches a reduced residual just
    # above inner_tol in three steps; the closing step from there misses
    # inner_tol, which ends the solve after three Jacobians, one closing step
    # and five operator evaluations, with no line search halving alpha
    b, eps = 0.2700651796624754 - 0.35995110603229835j, 0.0009701697009155201 - 0.0002424267960137459j
    linearized = _counting(monkeypatch, "_linearize")
    closings = _counting(monkeypatch, "_closing_step")
    evaluated = _counting(monkeypatch, "_operator_value")
    with pytest.raises(NumericalError, match=_FLOOR) as info:
        _grid_solve(6, True, b, eps, 64)
    level = float(re.search(_FLOOR, str(info.value)).group(1))
    assert 1e-11 <= level < 1e-9
    assert (len(linearized), len(closings), len(evaluated)) == (3, 1, 5)


def _floor_without_closing_steps(monkeypatch, split, b, eps):
    """A newton_grid d=6 solve at N=64 that meets its floor with ``CLOSE_LEVEL = 0``: only a full step can.

    Returns its Jacobian count, the points the operator was evaluated at,
    and the points ``_truncation_floor`` was called with.
    """
    monkeypatch.setattr(solver, "CLOSE_LEVEL", 0.0)
    linearized = _counting(monkeypatch, "_linearize")
    points, floors = [], []
    operator_value, truncation_floor = solver._operator_value, solver._truncation_floor
    monkeypatch.setattr(solver, "_operator_value", lambda *args: points.append(args[-1]) or operator_value(*args))
    monkeypatch.setattr(solver, "_truncation_floor", lambda *args: floors.append(args[0]) or truncation_floor(*args))
    with pytest.raises(NumericalError, match=_FLOOR) as info:
        _grid_solve(6, split, b, eps, 64)
    assert "line search" not in str(info.value)
    return len(linearized), points, floors


def test_a_failed_line_search_at_the_floor_reports_the_floor(monkeypatch):
    # newton_grid seed 1 d6-k3-b0.45-p3: three full steps are accepted at
    # alpha = 1, and the fourth one's line search rejects alpha = 1 from an
    # iterate inside [inner_tol, tol); that ends the solve, with no halving,
    # at the iterate before the rejected trial
    b, eps = 0.30718294919856143 - 0.32884439438992125j, -0.0006543491135747826 + 0.0007561925929046755j
    jacobians, points, floors = _floor_without_closing_steps(monkeypatch, False, b, eps)
    assert jacobians == 4 and len(points) == 5
    assert len(floors) == 1 and floors[0] is points[-2]


def test_an_accepted_step_that_cannot_halve_the_level_ends_the_solve(monkeypatch):
    # newton_grid seed 8 d6-k4-b0.45-p1: the fourth full step is accepted at
    # alpha = 1 but leaves more than half of a level inside [inner_tol, tol);
    # the solve ends at the accepted iterate
    b, eps = 0.3585679197996044 + 0.2718989644897245j, -0.0007019860373009068 + 0.0007121907072087997j
    jacobians, points, floors = _floor_without_closing_steps(monkeypatch, True, b, eps)
    assert jacobians == 4 and len(points) == 5
    assert len(floors) == 1 and floors[0] is points[-1]


def test_a_floor_on_undecayed_coefficients_reports_them(monkeypatch):
    # the seed-4 case of the under-resolution test at N=48 stops at its floor
    # after three Jacobians, two closing steps and six operator evaluations;
    # its coefficients have not decayed, and that is the report
    b, eps = 0.4006313092466119 + 0.20492572813423318j, -0.000640153662736693 + 0.0007682468926619856j
    linearized = _counting(monkeypatch, "_linearize")
    closings = _counting(monkeypatch, "_closing_step")
    evaluated = _counting(monkeypatch, "_operator_value")
    with pytest.raises(NumericalError, match="coefficients have not decayed"):
        _grid_solve(4, True, b, eps, 48)
    assert (len(linearized), len(closings), len(evaluated)) == (3, 2, 6)


def test_a_stall_the_tails_do_not_explain_gets_no_advice_to_raise_n():
    # a dilated d=4, k0=3 model with an l = 1 term and theta1 stalls at the
    # same reduced residual at N = 32, 64 and 128, with tails far below it: a
    # larger N does not resolve that disc, and the report must not say so
    model = _model_d4k3()
    r = dilate(DefiningFunction(model, (PerturbationTerm(2, 1, 1, {(0, 0): 0.3}),), {2: 0.2}), 0.5)
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=32)
    with pytest.raises(NumericalError) as info:
        solve_newton(r, factor_Q(model), 0.0, init, SolverOptions(n_max=32))
    assert str(info.value) == (
        "reduced residual stalls at 1.257e-10 above inner_tol 1.0e-11 at N = 32 (relative coefficient "
        "tails h 4.1e-13, g 3.2e-14); the tails lie below that level, so the truncation does not explain it"
    )


def _first_jacobian(r, b, n):
    """The first Newton Jacobian and residual of ``r`` from its model's disc at ``b``."""
    init = model_disc(r.model, ModelDiscParams(b, 1.0), n_max=n)
    qfac, c = factor_Q(r.model), init.c
    point = _Point(*(divide_one_minus_zeta(s, tol=1e-6).truncate(n).pad_to(n) for s in (init.h, init.g)))
    op = _linearize(r, qfac, c, point, n, None, None)
    return op, stack_value(_operator_value(r, qfac, c, point), op.n_out)


def _first_step(d, split, n=64, b=0.1):
    """The first Newton Jacobian and residual of a pinned newton_grid case."""
    model, half = _grid_model(d, split), d // 2
    return _first_jacobian(DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 1e-3}),), {}), b, n)


@pytest.mark.parametrize("d, split, b", [(4, False, 0.1), (6, True, 0.45j)])
def test_h_only_jacobian_is_the_full_one_on_the_h_columns(d, split, b):
    # Newton fills only what _eliminate_g reads of a u-free Jacobian: the h
    # columns of the T1 and T3 rows; the g columns and T2 rows stay zero
    model, half = _grid_model(d, split), d // 2
    r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(b, 1.0), n_max=32)
    qfac = factor_Q(model)
    point = _Point(*(divide_one_minus_zeta(s, tol=1e-6).truncate(32).pad_to(32) for s in (init.h, init.g)))
    full = _linearize(r, qfac, init.c, point, 32, None, None)
    h_only = _linearize(r, qfac, init.c, point, 32, None, None, h_only=True)
    assert h_only.n_out == full.n_out
    assert not full.matrix[2 * full.n_out : 4 * full.n_out].any()
    assert h_only.matrix.shape == full.matrix.shape
    assert np.array_equal(h_only.matrix[:, : 2 * 33], full.matrix[:, : 2 * 33])
    assert not h_only.matrix[:, 2 * 33 :].any()


@pytest.mark.parametrize("d, split", [(4, False), (6, True)])
def test_h_only_step_is_the_full_minimal_norm_step(d, split):
    # the step the full lstsq gives on the first Jacobian, for the residual
    # there and for a random right-hand side, which the Jacobian does not
    # reach: the eliminated rows must keep their least-squares weight
    op, rhs = _first_step(d, split)
    keep = np.any(op.matrix, axis=1)
    jac = op.matrix[keep]
    _, sigma, vt = np.linalg.svd(jac)
    kernel = vt[np.sum(sigma > 1e-8 * sigma[0]) :]
    assert len(kernel) > 0
    for f in (rhs, np.random.default_rng(d).standard_normal(rhs.size)):
        full, *_ = np.linalg.lstsq(jac, -f[keep], rcond=1e-8)
        mat, vec, lift = _eliminate_g(op.matrix, f, op.n_in, op.n_out)
        assert mat.shape[1] == jac.shape[1] // 2
        step = _h_only_step(mat, vec, lift, 1e-8)
        assert np.array_equal(step, _h_only_step(mat, vec, lift, 1e-8))
        assert np.linalg.norm(step - full) <= 1e-10 * np.linalg.norm(full)
        assert np.max(np.abs(kernel @ step)) <= 1e-10 * np.linalg.norm(step)


def _counting_svd(monkeypatch):
    """Count the calls of ``np.linalg.svd`` from here on."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(None) or svd(*a, **k))
    return calls


def _svd_step(mat, rhs, lift, rcond, transposed=False):
    """``(step, rank)`` of the h-only step taken through an SVD of the triangular factor: the oracle.

    With ``transposed`` the SVD is that of the factor's transpose, an equally
    valid SVD; the two steps differ by what the SVD itself leaves undetermined.
    """
    gp_a, gp_f = lift
    n = mat.shape[1]
    tri = np.linalg.qr(np.column_stack([mat, rhs]), mode="r")[:n]
    if transposed:
        v, s, ut = np.linalg.svd(tri[:, :n].T)
        u, vt = ut.T, v.T
    else:
        u, s, vt = np.linalg.svd(tri[:, :n])
    rank = int(np.sum(s > rcond * s[0]))
    dh = -vt[:rank].T @ ((u[:, :rank].T @ tri[:, n]) / s[:rank])
    step = np.concatenate([dh, -(gp_a @ dh + gp_f)])
    kernel = vt[rank:].T
    if kernel.size:
        basis, _ = np.linalg.qr(np.vstack([kernel, -gp_a @ kernel]))
        step -= basis @ (basis.T @ step)
    return step, rank


def _assert_matches_the_svd_step(mat, rhs, lift, pin=None, pinned=None):
    """Check ``_h_only_step`` against the SVD oracle; return the oracle's own spread, relative.

    Where ``pinned`` (by default: where a ``pin`` is given) the step must
    take the pinned factor, whose null directions are as many as the
    oracle's, and make no SVD call; else it takes one SVD.  It must rerun
    to the bit, and lie within 1e-12 of the oracle's step, relative, or
    within four times the spread of the oracle itself (an SVD of ``R``
    against one of ``R^T``) where that is larger: no step is determined
    more closely than that.
    """
    n = mat.shape[1]
    ref, rank = _svd_step(mat, rhs, lift, 1e-8)
    with pytest.MonkeyPatch.context() as patch:
        svds = _counting_svd(patch)
        step, factor = _h_only_step(mat, rhs, lift, 1e-8, pin, keep=True)
    if pinned is None:
        pinned = pin is not None
    if pinned:
        assert factor is not None and factor.basis.shape[1] == n - rank and not svds
    else:
        assert factor is None and len(svds) == 1
    assert np.array_equal(step, _h_only_step(mat, rhs, lift, 1e-8, pin))  # no unseeded draw
    spread = np.linalg.norm(_svd_step(mat, rhs, lift, 1e-8, transposed=True)[0] - ref) / np.linalg.norm(ref)
    assert np.linalg.norm(step - ref) <= max(1e-12, 4 * spread) * np.linalg.norm(ref)
    return spread


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("bmag", [0.1, 0.45])
@pytest.mark.parametrize("d, split", [(4, False), (4, True), (6, False), (6, True)])
def test_h_only_step_matches_the_svd_step_on_every_newton_grid_shape(d, split, bmag, n):
    # the first step of each newton_grid shape, pinned as Newton pins it
    # (k0 - d/2 + 1 = split + 1 orders).  Where the smallest kept sigma is
    # only some 10^2 above the cut (split roots at |b| = 0.45), an SVD of R
    # and one of R^T already give steps up to ~1e-8 apart.  The pin holds
    # but at d6-k4, |b| = 0.45, N = 128, whose bordered factor's smallest
    # sigma is 5.4 times the cut, short of 2 PIN_MARGIN: that step takes the
    # SVD.  A random right-hand side, which the Jacobian does not reach, is a
    # large-residual problem no caller poses: unpinned, it takes the SVD
    # (pinned, its step lies up to 24 times the oracle's spread off on split
    # roots at |b| = 0.45, N = 64, where the bordered factor's smallest
    # sigma is 12 times below mat's smallest kept one)
    op, rhs = _first_step(d, split, n, bmag)
    mat, vec, lift = _eliminate_g(op.matrix, rhs, op.n_in, op.n_out)
    pinned = not (d == 6 and split and bmag == 0.45 and n == 128)
    assert _assert_matches_the_svd_step(mat, vec, lift, solver._jet_pin(n, split + 1), pinned) <= 1e-7
    mat, vec, lift = _eliminate_g(op.matrix, np.random.default_rng(d).standard_normal(rhs.size), op.n_in, op.n_out)
    assert _assert_matches_the_svd_step(mat, vec, lift) <= 1e-7


def test_h_only_step_keeps_null_directions_of_very_different_sigma():
    # at b = 0 the cubic perturbation's first h-only factor has two null
    # directions whose sigmas lie many orders apart; Newton's jet pin of
    # |z|^4 (one order, two rows) takes both
    op, rhs = _first_jacobian(_cubic_pert(1e-3), 0.0, 64)
    mat, vec, lift = _eliminate_g(op.matrix, rhs, op.n_in, op.n_out)
    assert _assert_matches_the_svd_step(mat, vec, lift, solver._jet_pin(64, 1)) <= 2.5e-13  # so held to 1e-12


def test_h_only_step_sweeps_until_the_kept_directions_are_gone():
    # d6-k4 at b = 0.45, N = 64: the smallest kept sigma is only ~190 times
    # the cut, and the oracle's own spread is 1.3e-8 here; the pinned
    # factor's one sweep still certifies the rank, and its step lies within
    # that spread
    op, rhs = _first_step(6, True, 64, 0.45)
    mat, vec, lift = _eliminate_g(op.matrix, rhs, op.n_in, op.n_out)
    assert _assert_matches_the_svd_step(mat, vec, lift, solver._jet_pin(64, 2)) <= 1e-7


def _triangular_problem(n, null_sigmas, smallest_kept, seed=3):
    """``_h_only_step``'s arguments for an upper-triangular ``mat``, which is then its own factor ``R``.

    Its kept sigmas run from 1 down to about ``smallest_kept``.  Each
    ``null_sigmas`` entry is the only entry of its row, on the diagonal, and
    gives one sigma of about its size, along a direction that the column
    above it tilts off the axes.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    tri = np.linalg.qr((u * np.geomspace(1.0, smallest_kept, n)) @ v.T, mode="r")
    rows = np.linspace(n // 4, n - 1, len(null_sigmas)).astype(int)
    tri[rows] = 0.0
    tri[rows, rows] = null_sigmas
    lift = (rng.standard_normal((n + 1, n)), rng.standard_normal(n + 1))
    return tri, rng.standard_normal(n), lift


def _singular_values(mat, rhs):
    n = mat.shape[1]
    return np.linalg.svd(np.linalg.qr(np.column_stack([mat, rhs]), mode="r")[:n, :n], compute_uv=False)


def test_h_only_step_on_null_sigmas_at_1e_30_and_1e_15():
    # the synthetic form of the cubic perturbation's two null directions
    mat, rhs, lift = _triangular_problem(96, (1e-30, 1e-15), 1e-4)
    sigma = _singular_values(mat, rhs)
    assert np.sum(sigma <= 1e-8 * sigma[0]) == 2
    assert _assert_matches_the_svd_step(mat, rhs, lift) <= 2.5e-13


def test_h_only_step_on_a_null_sigma_six_times_below_the_cut():
    # the largest null sigma seen in newton_grid is 6x below the cut; here
    # it sits next to kept sigmas only ~300x above the cut
    for seed in range(3):
        mat, rhs, lift = _triangular_problem(96, (1e-20, 1e-9), 3e-6, seed)
        sigma = _singular_values(mat, rhs)
        mat[mat == 1e-9] *= 1e-8 * sigma[0] / 6 / sigma[-2]  # that sigma scales with its entry
        sigma = _singular_values(mat, rhs)
        cut = 1e-8 * sigma[0]
        assert np.sum(sigma <= cut) == 2 and 5.9 < cut / sigma[-2] < 6.1 and sigma[-3] > 250 * cut
        assert _assert_matches_the_svd_step(mat, rhs, lift) <= 1e-11


@pytest.mark.parametrize(
    "null_sigmas, over_cut",
    [
        (np.geomspace(1e-25, 1e-12, 9), None),  # nine null directions
        ((1e-20, 1e-9), 1.5),  # a kept sigma within a factor 2 of the cut
        ((1e-20, 1e-9), 1 / 1.5),  # a null one within a factor 2
    ],
)
def test_h_only_step_takes_the_svd_where_the_block_cannot_certify(monkeypatch, null_sigmas, over_cut):
    # an unpinned step is the oracle's, to the bit, from one SVD, however
    # close to the cut its sigmas lie
    mat, rhs, lift = _triangular_problem(96, null_sigmas, 1e-4)
    if over_cut is not None:
        sigma = _singular_values(mat, rhs)
        mat[mat == 1e-9] *= 1e-8 * sigma[0] * over_cut / sigma[-2]
    calls = _counting_svd(monkeypatch)
    step = _h_only_step(mat, rhs, lift, 1e-8)
    assert len(calls) == 1
    assert np.array_equal(step, _svd_step(mat, rhs, lift, 1e-8)[0])


@pytest.mark.parametrize("d, k0", [(4, 2), (4, 3), (6, 3), (6, 4)])
def test_jet_pin_rows_are_the_jets_of_h(d, k0):
    # the pin reads the jets of h = (1 - zeta) ht at 1 off the packed ht
    n_in, orders = 40, k0 - d // 2 + 1
    rng = np.random.default_rng(d + k0)
    arr = np.zeros(2 * n_in + 1, dtype=complex)
    arr[n_in:] = (rng.standard_normal(n_in + 1) + 1j * rng.standard_normal(n_in + 1)) * 0.8 ** np.arange(n_in + 1)
    ht = TrigSeries(arr)
    pin = solver._jet_pin(n_in, orders)
    assert pin.shape == (2 * orders, 2 * (n_in + 1))
    jets = jet_map(multiply(ONE_MINUS, ht), orders)
    expected = np.column_stack([jets.real, jets.imag]).ravel()
    got = pin @ pack_series(ht, TrigSeries.zero(0), n_in)[: 2 * (n_in + 1)]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _newton_steps(d, split, b, n=64, count=2):
    """The arguments of the first ``count`` steps of a newton_grid case's solve, as Newton passes them."""
    calls = []

    class Enough(Exception):
        pass

    def recording(*args, **kwargs):
        calls.append(args)
        if len(calls) == count:
            raise Enough
        return _h_only_step(*args, **kwargs)

    model, half = _grid_model(d, split), d // 2
    r = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(b, 1.0), n_max=n)
    with pytest.MonkeyPatch.context() as patch, pytest.raises(Enough):
        patch.setattr(solver, "_h_only_step", recording)
        solve_newton(r, factor_Q(model), b, init, SolverOptions(n_max=n))
    return calls


@pytest.mark.parametrize("bmag", [0.1, 0.45])
@pytest.mark.parametrize("d, split", [(4, False), (4, True), (6, False), (6, True)])
def test_pinned_newton_step_is_the_unpinned_one_without_the_null_block(d, split, bmag):
    # Newton's u-free steps pass the jet pin and take the bordered factor,
    # with no SVD, and the step is the minimal-norm one: the unpinned step's,
    # which is the SVD oracle's, within 1e-12 or four times the oracle's own
    # spread (1.5e-12 against a spread of 1.65e-12 at d6-k4, |b| = 0.1; up
    # to ~5e-8 on split roots at |b| = 0.45)
    for mat, rhs, lift, rcond, pin in _newton_steps(d, split, bmag):
        assert pin is not None and len(pin) == 2 * (split + 1) and rcond == 1e-8
        _assert_matches_the_svd_step(mat, rhs, lift, pin)


def test_a_pin_that_does_not_fit_the_null_space_falls_back_to_the_svd(monkeypatch):
    # d4-k3 at |b| = 0.1 has four null directions: a pin one row short leaves
    # the bordered factor singular, one row long pins a kept direction, and a
    # fifth null direction makes the four rows too few.  Each takes the
    # unpinned path, one SVD, to the bit
    (mat, rhs, lift, rcond, pin), = _newton_steps(4, True, 0.1, count=1)
    v = mat.T @ np.ones(len(mat))  # in the row space, so off the null space: mat - (mat v) v^T adds v to it
    v /= np.linalg.norm(v)
    longer = np.vstack([pin, solver._jet_pin(mat.shape[1] // 2 - 1, len(pin) // 2 + 1)[-2]])
    for a, p in ((mat, pin[:-1]), (mat, longer), (mat - np.outer(mat @ v, v), pin)):
        svds = _counting_svd(monkeypatch)
        step = _h_only_step(a, rhs, lift, rcond, p)
        assert len(svds) == 1
        monkeypatch.undo()
        assert np.array_equal(step, _h_only_step(a, rhs, lift, rcond))


def _two_stage_pinned_step(mat, rhs, lift, pin):
    """The pinned step through two factorizations, the reference for the one-QR step.

    First ``[R | t]`` of ``[mat | rhs]``; then the pin's rows, scaled to
    ``R``'s largest singular value, border ``[R | t | 0; C | 0 | I]``, whose
    first ``n`` columns panels of 64 triangularize; one triangular solve
    gives ``dh`` and ``Z``, and the step is projected to the minimal norm.
    """
    gp_a, gp_f = lift
    n, p = mat.shape[1], len(pin)
    tri = np.linalg.qr(np.column_stack([mat, rhs]), mode="r")[:n]
    sigma = solver._sigma_max(tri[:, :n])
    full = np.zeros((n + p, n + 1 + p))
    full[:n, : n + 1] = tri
    full[n:, :n] = pin * (sigma / np.linalg.norm(pin, axis=1))[:, None]
    full[n:, n + 1 :] = np.eye(p)
    for j in range(0, n, 64):  # each panel changes only its own rows and the border's
        rows = np.r_[j : min(j + 64, n), n : n + p]
        full[rows, j:] = np.linalg.qr(full[rows, j : min(j + 64, n)], mode="complete")[0].T @ full[rows, j:]
    x = np.linalg.solve(np.triu(full[:n, :n]), full[:n, n:])
    dh, kernel = -x[:, 0], np.linalg.qr(x[:, 1:])[0]
    step = np.concatenate([dh, -(gp_a @ dh + gp_f)])
    basis, _ = np.linalg.qr(np.vstack([kernel, -gp_a @ kernel]))
    return step - basis @ (basis.T @ step)


@pytest.mark.parametrize("bmag", [0.1, 0.45])
@pytest.mark.parametrize("d, split", [(4, False), (4, True), (6, False), (6, True)])
def test_one_qr_pinned_step_is_the_two_stage_one(monkeypatch, d, split, bmag):
    # Newton's first step of each newton_grid shape factors [mat | rhs | 0; C | 0 | I]
    # once, with no SVD, and the step is the two-stage computation's within
    # the bounds the pinned and unpinned steps keep
    (mat, rhs, lift, rcond, pin), = _newton_steps(d, split, bmag, count=1)
    svds = _counting_svd(monkeypatch)
    step = _h_only_step(mat, rhs, lift, rcond, pin)
    assert not svds
    monkeypatch.undo()
    ref = _two_stage_pinned_step(mat, rhs, lift, pin)
    oracle = _svd_step(mat, rhs, lift, rcond)[0]
    spread = np.linalg.norm(_svd_step(mat, rhs, lift, rcond, transposed=True)[0] - oracle) / np.linalg.norm(oracle)
    bound = 1e-12 if bmag == 0.1 else max(1e-12, 4 * spread)
    assert np.linalg.norm(step - ref) <= bound * np.linalg.norm(ref)


@pytest.mark.parametrize("bmag", [0.1, 0.45])
@pytest.mark.parametrize("d, split", [(4, False), (4, True), (6, False), (6, True)])
def test_a_closing_step_on_its_own_right_hand_side_is_the_pinned_step(d, split, bmag):
    # the semi-normal equations with one refinement sweep give the factored
    # step back from the stored factor alone (measured <= 7.7e-12; without
    # the sweep d6-k3 at |b| = 0.45 is 3.5e-9 off)
    (mat, rhs, lift, rcond, pin), = _newton_steps(d, split, bmag, count=1)
    step, factor = _h_only_step(mat, rhs, lift, rcond, pin, keep=True)
    closing = solver._closing_step(factor, rhs, lift[1])
    assert np.linalg.norm(closing - step) <= 1e-10 * np.linalg.norm(step)


def test_a_zero_matrix_has_no_largest_singular_value_and_steps_quietly():
    # sigma_max of a null matrix is undefined: None before any 0 / 0, so the
    # step takes the SVD, pinned or not, without a floating-point warning
    rng = np.random.default_rng(2)
    mat, rhs = np.zeros((12, 10)), rng.standard_normal(12)
    lift = (rng.standard_normal((10, 10)), rng.standard_normal(10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver._sigma_max(mat) is None
        steps = [_h_only_step(mat, rhs, lift, 1e-8, pin) for pin in (None, solver._jet_pin(4, 1))]
    assert np.array_equal(steps[0], steps[1]) and np.all(np.isfinite(steps[0]))


def test_the_eliminated_problem_owns_its_arrays():
    # _eliminate_g copies what it reads, so the Jacobian can go before the step
    op, rhs = _first_step(6, True)
    mat, vec, lift = _eliminate_g(op.matrix, rhs, op.n_in, op.n_out)
    for arr in (mat, vec, *lift):
        assert not np.shares_memory(arr, op.matrix) and not np.shares_memory(arr, rhs)


# newton_grid seed 1 d4-k2-b0.1-p1 and d6-k3-b0.45-p0
_CLOSES = (0.01870030015726964 + 0.09823593422993453j, -0.0006235747020970552 + 0.0007817637692452682j)
_STALLS = (0.08462040990229774 + 0.4419721554894235j, 0.0009707562518859666 + 0.000240067281036608j)


def test_a_converging_solve_closes_on_its_last_factor(monkeypatch):
    # the third step of a three-step solve starts below CLOSE_LEVEL and comes
    # from the second step's factor: one Jacobian fewer, the same disc
    linearized = _counting(monkeypatch, "_linearize")
    closed = _grid_solve(4, False, *_CLOSES, 64)
    assert closed.iterations == 3 and len(linearized) == 2
    monkeypatch.setattr(solver, "CLOSE_LEVEL", 0.0)
    linearized.clear()
    full = _grid_solve(4, False, *_CLOSES, 64)
    assert full.iterations == 3 and len(linearized) == 3
    assert coeff_distance(closed.disc.h, full.disc.h) <= 1e-11
    assert coeff_distance(closed.disc.g, full.disc.g) <= 1e-11


def test_closing_steps_that_miss_leave_the_stall_as_it_was(monkeypatch):
    # a closing step from inside [inner_tol, tol) misses inner_tol and ends
    # the solve at that level, with the report that full steps alone give
    closings = _counting(monkeypatch, "_closing_step")
    with pytest.raises(NumericalError) as info:
        _grid_solve(6, False, *_STALLS, 64)
    assert len(closings) == 1
    assert str(info.value) == (
        "series truncation too small: reduced residual stalls at 2.244e-11 above inner_tol 1.0e-11 at N = 64 "
        "(relative coefficient tails h 1.7e-10, g 2.5e-08); a larger N resolves the disc"
    )
    monkeypatch.setattr(solver, "CLOSE_LEVEL", 0.0)
    with pytest.raises(NumericalError) as full:
        _grid_solve(6, False, *_STALLS, 64)
    assert len(closings) == 1 and str(full.value) == str(info.value)


@pytest.mark.parametrize("n", [64, 128])
def test_a_converging_solve_through_the_band_is_left_alone(monkeypatch, n):
    # newton_grid seed 1 d6-k4-b0.45-p1: the second full step lands inside
    # [inner_tol, tol), having more than halved the level, and the closing
    # step from there lands below inner_tol, at N=64 and at N=128
    b, eps = -0.3904849836748755 - 0.2236548177983927j, 0.0001604905366428888 + 0.0009870373790531327j
    linearized = _counting(monkeypatch, "_linearize")
    closings = _counting(monkeypatch, "_closing_step")
    evaluated = _counting(monkeypatch, "_operator_value")
    result = _grid_solve(6, True, b, eps, n)
    assert result.iterations == 3 and (len(linearized), len(closings), len(evaluated)) == (2, 1, 4)
    third = {64: 1.0708e-11, 128: 1.0530e-11}[n]
    assert result.history[:3] == pytest.approx([5.37004e-3, 6.17701e-6, third], rel=1e-4)
    assert result.history[-1] < 1e-11 <= result.history[2] < 1e-9


def test_the_stored_factor_holds_no_jacobian_and_goes_before_the_next_one(monkeypatch):
    # every field of a stored factor is its own array, and no factor is alive
    # when the next Jacobian is assembled
    jacobians, factors = [], []
    linearize, step = solver._linearize, solver._h_only_step

    def recording_linearize(*args, **kwargs):
        assert all(ref() is None for ref in factors)
        op = linearize(*args, **kwargs)
        jacobians.append(op.matrix)
        return op

    def recording_step(*args, **kwargs):
        out = step(*args, **kwargs)
        if kwargs.get("keep") and out[1] is not None:
            for f in dataclasses.fields(out[1]):
                assert not any(np.shares_memory(getattr(out[1], f.name), jac) for jac in jacobians)
            factors.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(solver, "_linearize", recording_linearize)
    monkeypatch.setattr(solver, "_h_only_step", recording_step)
    with pytest.raises(NumericalError, match="stalls"):
        _grid_solve(6, False, *_STALLS, 64)
    assert len(jacobians) == 3 and len(factors) == 3


def test_newton_linearizations_fault_few_pages(monkeypatch):
    # the first 8 ops of the benchmark's newton_grid stream at seed 1, run once
    # to grow the heap to what they need (about 80 minor page faults per
    # Jacobian) and then measured: no fault at all, against about 10 per
    # Jacobian over a 64-op benchmark run.  Heap the allocator hands back and
    # faults in again at every iteration costs ~900 per Jacobian (glibc's trim
    # storm, _linearize's comment), and assembling the eliminated system
    # straight into the step's buffer 150-250; the bound is 5 x 10
    resource = pytest.importorskip("resource")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    grid = workloads.NewtonGrid(None, 1)
    grid.setup()
    for op in itertools.islice(grid.ops(), 8):
        grid.run_op(op)
    linearized = _counting(monkeypatch, "_linearize")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for op in itertools.islice(grid.ops(), 8):
        grid.run_op(op)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert linearized and faults <= 50 * len(linearized)


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


def test_u_dependent_solve_takes_the_coupled_step(monkeypatch):
    # an l = 1 term couples the T1/T2 rows to g: no elimination, the whole
    # [h | g] step goes to _h_only_step with nothing to lift, and the outcome
    # is that of the lstsq step it replaced
    model = _abs_power(4)
    r = DefiningFunction(model, (PerturbationTerm(2, 1, 1, {(0, 0): 1e-3}),), {})
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=32)
    cols, step = [], solver._h_only_step

    def recording(mat, *args, **kwargs):
        cols.append(mat.shape[1])
        return step(mat, *args, **kwargs)

    def eliminated(*args):
        raise AssertionError("g eliminated for a u-dependent r")

    monkeypatch.setattr(solver, "_h_only_step", recording)
    monkeypatch.setattr(solver, "_eliminate_g", eliminated)
    expected = r"^no convergence in 25 iterations \(reduced 1\.612e-02, plain 7\.113e-02\)$"
    with pytest.raises(NumericalError, match=expected):
        solve_newton(r, factor_Q(model), 0.0, init, SolverOptions(n_max=32))
    assert cols == [4 * 33] * 25


def _no_lift(cols):
    """The lift of a problem with no eliminated ``dg``: the step is the solution itself."""
    return np.zeros((0, cols)), np.zeros(0)


@pytest.mark.parametrize(
    "model, terms, theta1, b",
    [
        # two null directions
        (_model_d4k3(), (PerturbationTerm(2, 1, 1, {(0, 0): 1e-3}),), {}, 0.1j),
        # one null direction
        (_abs_power(4), (), {2: 3e-3}, 0.0),
        # a kept sigma 1.3 times the cut
        (_abs_power(4), (PerturbationTerm(2, 1, 1, {(0, 0): 1e-3}),), {}, 0.0),
    ],
)
def test_coupled_step_is_the_lstsq_step(model, terms, theta1, b):
    # a u-dependent r steps on the whole [h | g] Jacobian, unpinned, through
    # the SVD with the same cut lstsq takes at rcond = 1e-8: the same
    # minimal-norm step
    op, rhs = _first_jacobian(DefiningFunction(model, terms, theta1), b, 48)
    ref, *_ = np.linalg.lstsq(op.matrix, -rhs, rcond=1e-8)
    step = _h_only_step(op.matrix, rhs, _no_lift(op.matrix.shape[1]), 1e-8)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_step_on_a_wide_matrix_is_the_lstsq_step():
    # fewer rows than unknowns: the factor is not square, so the step takes
    # the SVD; here the rank (30) is below the row count (40) too
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((40, 30)) @ rng.standard_normal((30, 60))
    rhs = rng.standard_normal(40)
    ref, *_ = np.linalg.lstsq(mat, -rhs, rcond=1e-8)
    step = _h_only_step(mat, rhs, _no_lift(60), 1e-8)
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", ["pinned", "svd"])
def test_step_on_four_columns_is_four_one_column_steps(monkeypatch, case):
    # a right-hand side of several columns (the kernel basis' weight
    # corrections) gives each column's own step: pinned by the jets of h on
    # a newton_grid first step, the kernel basis' path, and through the SVD
    # on a triangular problem with nine null directions
    rng = np.random.default_rng(7)
    if case == "pinned":
        op, rhs = _first_step(6, True)
        f = np.column_stack([rhs, rng.standard_normal((rhs.size, 3))])
        mat, vec, lift = _eliminate_g(op.matrix, f, op.n_in, op.n_out)
        columns = [_eliminate_g(op.matrix, f[:, i], op.n_in, op.n_out) for i in range(4)]
        pin = solver._jet_pin(op.n_in, 2)
    else:
        mat, _, (gp_a, _) = _triangular_problem(96, np.geomspace(1e-25, 1e-12, 9), 1e-4)
        vec, gp_f = rng.standard_normal((96, 4)), rng.standard_normal((97, 4))
        lift = (gp_a, gp_f)
        columns = [(mat, vec[:, i], (gp_a, gp_f[:, i])) for i in range(4)]
        pin = None
    svds = _counting_svd(monkeypatch)
    steps = _h_only_step(mat, vec, lift, 1e-8, pin)
    assert steps.shape == (mat.shape[1] + len(lift[0]), 4)
    for i, args in enumerate(columns):
        one = _h_only_step(*args, 1e-8, pin)
        assert np.linalg.norm(steps[:, i] - one) <= 1e-12 * np.linalg.norm(one)
    assert len(svds) == (0 if case == "pinned" else 5)


def _kernel_model(name, monkeypatch):
    """A kernel test model: one of the acceptance criteria's, or cli_cold seed 1's ``kernel-0``."""
    if name == "cli-kernel-0":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        return ModelPolynomial.from_dict(workloads.cli_configs(1)["kernel-0"]["model"])
    return {"d2-k1": _abs_power(2), "d4-k2": _abs_power(4), "d4-k3": _model_d4k3()}[name]


@pytest.mark.parametrize("name", ["d2-k1", "d4-k2", "d4-k3", "cli-kernel-0"])
def test_kernel_basis_takes_the_pinned_step(monkeypatch, name):
    # the weight corrections are one step pinned by the jets of h at 1, as
    # Newton's u-free steps are: no SVD, and each unit coordinate vector
    # within 1e-12 or four times the oracle's own spread of the SVD oracle's
    # (measured at most 1.5e-13); the homogeneous directions, which take no
    # step, are those of the unpinned basis to the bit
    model = _kernel_model(name, monkeypatch)
    qfac = factor_Q(model)
    svds = _counting_svd(monkeypatch)
    basis = kernel_basis_p0(model, qfac)
    assert not svds
    monkeypatch.undo()
    step = solver._h_only_step
    monkeypatch.setattr(solver, "_h_only_step", lambda mat, rhs, lift, rcond, pin: step(mat, rhs, lift, rcond))
    unpinned = kernel_basis_p0(model, qfac)
    n_w = 2 * model.k0 + 1
    assert np.array_equal(basis.coords[n_w:], unpinned.coords[n_w:])

    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=max(8, 2 * model.d))
    op = _linearize(_pure(model), qfac, disc.c, _Point.of_disc(disc), 64, None, model.k0)
    for j in range(n_w):
        mat, vec, lift = _eliminate_g(op.matrix[:, op.hg_cols], op.matrix[:, op.weight_cols][:, j], 64, op.n_out)
        ref, other = (np.concatenate([np.eye(n_w)[j], _svd_step(mat, vec, lift, 1e-8, t)[0]]) for t in (False, True))
        ref, other = ref / np.linalg.norm(ref), other / np.linalg.norm(other)
        spread = np.linalg.norm(other - ref)
        assert np.linalg.norm(basis.coords[j] - ref) <= max(1e-12, 4 * spread)


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
    # the disc is the solver's output, not the user's input: exit 1, not 2.
    # A negative tolerance fails the check by construction, whatever the
    # solved disc's rounding; it is set after the initial disc is built
    model = _abs_power(4)
    init = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=64)
    monkeypatch.setattr("discforge.discs.PIN_TOL", -1.0)
    with pytest.raises(NumericalError, match="computed disc fails its pin check"):
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
