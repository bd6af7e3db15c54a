"""The reduced stationarity operator: evaluation, linearization, kernel, Newton.

The three defect functionals of a lifted disc ``(c, h, g)`` against a defining
function ``r`` are

    T1 = negative_project( zeta^k0 c r_z(f) / ((1 - zeta)^(d-1) s(zeta)) )
    T2 = negative_project( zeta^k0 c r_w(f) )
    T3 = boundary trace of r(f)

where ``s`` collects the outside roots of the model's curvature polynomial.
The structural zero of order ``d - 1`` at ``zeta = 1`` is cancelled
symbolically: with ``h = (1 - zeta) ht``, ``g = (1 - zeta) gt`` and
``conj(1 - zeta) = -conj(zeta) (1 - zeta)`` every monomial ``z^a zbar^b u^e``
of a derivative of ``r`` contributes a clean power ``(1 - zeta)^(a+b+e)``, so
the quotient is polynomial; only the division by ``s`` is numerical (pointwise
on circle samples, where ``s`` does not vanish).  Every trace the operator and
its multipliers need is this one substitution, ``_trace``, multiplied back
by ``(1 - zeta)^extra`` (``extra = d - 1`` gives the plain trace).  Each iterate
``(ht, gt)`` is one ``_Point``: it holds ``h``, ``g``, ``Re g`` and the one
``series.Powers`` cache of ``1 - zeta``, ``ht``, ``conj ht`` and ``gt +
conj(zeta gt)`` that every trace at that point reads.

The linearization is assembled from multiplier series and index shifts, never
from finite differences; a difference quotient appears only in the tests as an
independent oracle.  When ``r`` does not involve ``u = Im w``, ``gt`` enters
the linearization only through ``-Re((1 - zeta) gt)`` in T3, the boundary
condition that fixes ``Re g`` once ``h`` is fixed; a Newton step then
eliminates ``gt`` in closed form and factors the ``h`` columns alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .discs import LiftedDisc, ModelDiscParams, model_disc, stationarity_residual, weight_series
from .exceptions import ConfigError, NumericalError, strict_keys
from .model import QFactorization
from .perturb import DefiningFunction, d_u, x_norm_distance
from .series import (
    ONE_MINUS,
    Powers,
    TrigSeries,
    analytic_from_real_part,
    divide_one_minus_zeta,
    from_samples,
    multiply,
)

__all__ = [
    "OperatorValue",
    "SolverOptions",
    "LinearizedOperator",
    "KernelBasis",
    "SolveResult",
    "eval_T_prime",
    "linearize_at",
    "kernel_dim_svd",
    "shift_projection_matrix",
    "kernel_basis_p0",
    "binomial_tail",
    "solve_newton",
]

@dataclass(frozen=True)
class OperatorValue:
    """Value of the three defect functionals at one point."""

    t1: TrigSeries
    t2: TrigSeries
    t3: TrigSeries

    def sup_norms(self) -> tuple[float, float, float]:
        return self.t1.sup_norm(), self.t2.sup_norm(), self.t3.sup_norm()


# Largest accepted truncation order N.  Substitutions along a disc of order N
# build series of order up to d (N + 2), which a run config keeps within
# series.MAX_ORDER (65536).  A solve is bounded separately, by the size of its
# Jacobian.
MAX_N = 4096
# Largest dense Jacobian ``solve_newton`` assembles, in bytes; lstsq works on a
# trimmed copy of up to the same size, so a solve may need twice this.
MAX_JACOBIAN_BYTES = 1 << 30


@dataclass(frozen=True)
class SolverOptions:
    n_max: int = 128
    tol: float = 1e-9
    max_iter: int = 25
    svd_threshold: float = 1e-8
    x_norm_bound: float = 10.0

    def __post_init__(self):
        if self.n_max < 4 or self.max_iter < 1:
            raise ConfigError("solver options out of range")
        if self.n_max > MAX_N:
            raise ConfigError(f"solver N = {self.n_max} exceeds the cap {MAX_N}")
        if not (0 < self.tol < 1) or not (0 < self.svd_threshold < 1):
            raise ConfigError("solver tolerances must lie in (0, 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "SolverOptions":
        strict_keys(data, {"N", "tol", "max_iter", "svd_threshold", "x_norm_bound"}, "solver option")
        kwargs = {}
        try:
            if "N" in data:
                kwargs["n_max"] = int(data["N"])
            for key in ("tol", "svd_threshold", "x_norm_bound"):
                if key in data:
                    kwargs[key] = float(data[key])
            if "max_iter" in data:
                kwargs["max_iter"] = int(data["max_iter"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed solver options: {exc}") from None
        return cls(**kwargs)


# ---- the point of one iterate -------------------------------------------------


class _Point:
    """The disc ``h = (1 - zeta) ht``, ``g = (1 - zeta) gt`` with the powers its substitutions read.

    ``factored`` holds the powers of ``1 - zeta``, ``ht``, ``conj ht`` and
    ``gt + conj(zeta gt)``, the one cache every ``_trace`` at this point reads;
    each power is built the first time a trace asks for it, and only then.
    """

    def __init__(self, htilde: TrigSeries, gtilde: TrigSeries):
        self.h = multiply(ONE_MINUS, htilde)
        self.g = multiply(ONE_MINUS, gtilde)
        self.re_g = (self.g + self.g.conjugate()) * 0.5
        u = gtilde + gtilde.shift(1).conjugate()
        self.factored = tuple(Powers(base) for base in (ONE_MINUS, htilde, htilde.conjugate(), u))

    @classmethod
    def of_disc(cls, disc: LiftedDisc) -> "_Point":
        try:
            htilde, gtilde = divide_one_minus_zeta(disc.h), divide_one_minus_zeta(disc.g)
        except ValueError as exc:
            raise ConfigError(f"disc components not divisible by 1 - zeta: {exc}") from None
        return cls(htilde, gtilde)


def _trace(
    mon: dict,
    d: int,
    point: _Point,
    extra: int,
    c: TrigSeries | None = None,
    k0: int = 0,
    qfac: QFactorization | None = None,
) -> TrigSeries:
    """Trace of ``mon`` along ``point``, divided by ``(1 - zeta)^(d - 1 - extra)``.

    Each monomial ``z^a zbar^b u^e`` carries ``(1 - zeta)^(a+b+e)`` along the
    point, so the quotient is exact: ``extra`` is 0 for the reduced ``r_z``, 1
    for a first-order direction of it, ``d - 1`` for the plain trace and ``d``
    for the plain trace times ``1 - zeta``.  The sum is then multiplied by
    ``c`` (if given), shifted by ``zeta^k0`` and divided by ``s`` on circle
    samples (if ``qfac`` has outside roots).
    """
    om, ph, phb, pu = point.factored
    out = TrigSeries.zero(0)
    for (a, b, e), kappa in sorted(mon.items()):
        expo = a + b + e + extra - (d - 1)
        if expo < 0:
            raise NumericalError("vanishing-order bookkeeping violated")
        term = om[expo]
        if a:
            term = multiply(term, ph[a])
        if b:
            term = multiply(term, phb[b])
        if e:
            term = multiply(term, pu[e])
        coef = kappa * (-1.0) ** b * (-0.5j) ** e
        out = out + term.shift(-b) * coef
    if c is not None:
        out = multiply(c, out)
    out = out.shift(k0)
    if qfac is None or not qfac.roots_outside:
        return out
    n_target = out.n_max + 64  # room for the modes the division by s adds
    k = 1 << max(8, int(math.ceil(math.log2(2 * n_target + 2))))
    vals = out.sample(k)
    svals = qfac.s_poly().sample(k)
    out, tail = from_samples(vals / svals, n_target)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if tail > 1e-9 * scale:
        raise NumericalError("sample division by s is under-resolved")
    return out


# ---- evaluation ---------------------------------------------------------------


def _operator_value(
    defn: DefiningFunction, qfac: QFactorization, c: TrigSeries, point: _Point
) -> OperatorValue:
    d, k0 = defn.model.d, defn.model.k0
    t1 = _trace(defn.rz_mon(), d, point, 0, c, k0, qfac).negative_project()
    t2 = _trace(defn.rw_mon(), d, point, d - 1, c, k0).negative_project()
    t3raw = _trace(defn.big_r_mon(), d, point, d - 1) - point.re_g
    t3 = TrigSeries.real_symmetrized(t3raw.coeffs)
    return OperatorValue(t1, t2, t3)


def eval_T_prime(
    r: DefiningFunction, disc: LiftedDisc, qfac: QFactorization
) -> OperatorValue:
    """Evaluate the reduced operator at a lifted disc."""
    return _operator_value(r, qfac, disc.c, _Point.of_disc(disc))


# ---- linearization -------------------------------------------------------------


@dataclass(frozen=True)
class LinearizedOperator:
    """Dense real matrix of the derivative of the reduced operator.

    Column layout: optional weight block (symbol degree ``n_weight``; real
    coordinates ``c0, Re c1, Im c1, ...``), then the analytic coefficients of
    ``ht`` and ``gt`` as ``Re/Im`` pairs up to degree ``n_in``.  Row layout:
    the T1 then T2 negative modes ``-1 .. -n_out`` as ``Re/Im`` pairs, then
    the T3 modes ``0 .. n_out`` (mode 0 real).
    """

    matrix: np.ndarray = field(repr=False)
    n_in: int
    n_out: int
    n_weight: int | None

    @property
    def weight_cols(self) -> slice:
        return slice(0, 0 if self.n_weight is None else 2 * self.n_weight + 1)

    @property
    def hg_cols(self) -> slice:
        return slice(self.weight_cols.stop, self.matrix.shape[1])


def _default_n_out(d: int, k0: int, n_in: int) -> int:
    return d * (n_in + 2) + 2 * k0 + 8


def _window(series: TrigSeries, n: int) -> np.ndarray:
    """Coefficients of the modes ``-n .. n``, zero outside the series' carrier."""
    return series.truncate(n).pad_to(n).coeffs


def _add_modes(dst: np.ndarray, row0: int, modes: np.ndarray, sym: bool) -> None:
    """Add complex mode values (along the first axis) to ``dst`` as stacked rows.

    From ``row0`` on every mode takes a ``Re/Im`` pair of rows; with ``sym``
    the first mode is mode 0 and takes only its real part, on one row.
    """
    if sym:
        dst[row0] += modes[0].real
        row0, modes = row0 + 1, modes[1:]
    stop = row0 + 2 * len(modes)
    dst[row0:stop:2] += modes.real
    dst[row0 + 1 : stop : 2] += modes.imag


def _nonzero_rows(matrix: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``matrix`` that hold at least one nonzero entry.

    An exactly zero row ``i`` adds the constant ``f_i^2`` to ``|A x + f|^2``
    and nothing to ``A^T A``: dropping it changes neither the least-squares
    minimisers, nor which of them has the smallest norm, nor the singular
    values.  No tolerance is involved, so the trimmed problem is the same
    problem, only smaller.
    """
    return np.any(matrix, axis=1)


def pack_series(htilde: TrigSeries, gtilde: TrigSeries, n_in: int) -> np.ndarray:
    out = np.zeros(4 * (n_in + 1))
    for row0, series in ((0, htilde), (2 * (n_in + 1), gtilde)):
        _add_modes(out, row0, _window(series, n_in)[n_in:], sym=False)
    return out


def unpack_series(x: np.ndarray, n_in: int) -> tuple[TrigSeries, TrigSeries]:
    half = 2 * (n_in + 1)
    out = []
    for block in range(2):
        arr = np.zeros(2 * n_in + 1, dtype=complex)
        seg = x[half * block : half * (block + 1)]
        arr[n_in:] = seg[0::2] + 1j * seg[1::2]
        out.append(TrigSeries(arr))
    return out[0], out[1]


def stack_value(val: OperatorValue, n_out: int) -> np.ndarray:
    out = np.zeros(6 * n_out + 1)
    for row0, series in ((0, val.t1), (2 * n_out, val.t2)):
        _add_modes(out, row0, _window(series, n_out)[n_out - 1 :: -1], sym=False)
    _add_modes(out, 4 * n_out, _window(val.t3, n_out)[n_out:], sym=True)
    return out


@dataclass(frozen=True)
class _Multipliers:
    """Multiplier series of the linearization, one ``(lin, anti)`` pair per block.

    The column of the real direction ``zeta^n`` of ``ht`` (or ``gt``) is the
    stacked value of ``lin zeta^n + anti zeta^-n`` in each of the T1, T2, T3
    row blocks, the imaginary direction that of ``i lin zeta^n - i anti
    zeta^-n``.  The weight direction ``2 Re zeta^n`` acts through ``weight``
    (T1 and T2 only) in the same way, with ``lin = anti``.
    """

    h: tuple[tuple[TrigSeries, TrigSeries], ...]
    g: tuple[tuple[TrigSeries, TrigSeries], ...]
    weight: tuple[TrigSeries, TrigSeries] | None


def _multipliers(
    defn: DefiningFunction, qfac: QFactorization, c: TrigSeries, point: _Point, with_weight: bool
) -> _Multipliers:
    d, k0 = defn.model.d, defn.model.k0

    # T1 multipliers carry the exact cancellation and the sample division by s;
    # T2 and T3 are plain traces times the 1 - zeta of the direction
    m1_hlin = _trace(defn.rzz_mon(), d, point, 1, c, k0, qfac)
    m1_hanti = -_trace(defn.rzzbar_mon(), d, point, 1, c, k0, qfac).shift(-1)
    m1_g = _trace(d_u(defn.rz_mon()), d, point, 1, c, k0, qfac) * (-0.5j)

    m2_hlin = _trace(defn.rzw_mon(), d, point, d, c, k0)
    m2_hanti = -_trace(defn.rwzbar_mon(), d, point, d, c, k0).shift(-1)
    m2_g = _trace(d_u(defn.rw_mon()), d, point, d, c, k0) * (-0.5j)

    # T3 is real, so each anti multiplier is the conjugate of its lin one
    m3_hlin = _trace(defn.rz_mon(), d, point, d)
    m3_glin = _trace(d_u(defn.big_r_mon()), d, point, d) * (-0.5j) - ONE_MINUS * 0.5

    weight = None
    if with_weight:
        weight = (
            _trace(defn.rz_mon(), d, point, 0, k0=k0, qfac=qfac),
            _trace(defn.rw_mon(), d, point, d - 1, k0=k0),
        )
    return _Multipliers(
        h=((m1_hlin, m1_hanti), (m2_hlin, m2_hanti), (m3_hlin, m3_hlin.conjugate())),
        g=((m1_g, m1_g.shift(-1)), (m2_g, m2_g.shift(-1)), (m3_glin, m3_glin.conjugate())),
        weight=weight,
    )


# A multiplier coefficient at most this fraction of the largest one is rounding
# noise, and so is every Jacobian entry made of it.  Rows that only such
# coefficients reach change the least-squares step at rounding level, so the
# Newton Jacobian stops at the last row a larger coefficient reaches.
CARRIER_GATE = np.finfo(float).eps


def _carrier_n_out(mults: _Multipliers, n_in: int, n_weight: int | None, n_out: int) -> int:
    """Largest row mode any multiplier coefficient above the gate reaches, at most ``n_out``.

    A column shifts ``lin`` by ``zeta^n`` and ``anti`` by ``zeta^-n``, ``0 <= n
    <= n_cols``: in the T1/T2 rows (modes ``-1 .. -n_out``) the pair reaches
    ``max(-lowest lin mode, n_cols - lowest anti mode)``, in the T3 rows
    (modes ``0 .. n_out``) ``max(highest lin mode + n_cols, highest anti mode)``.
    The gate is relative to the largest coefficient of all multipliers, that
    is to the largest Jacobian entry.
    """
    pairs = [(block, pair, n_in) for family in (mults.h, mults.g) for block, pair in enumerate(family)]
    if mults.weight is not None:
        pairs += [(block, (m, m), n_weight) for block, m in enumerate(mults.weight)]
    gate = CARRIER_GATE * max(float(np.max(np.abs(s.coeffs))) for _, pair, _ in pairs for s in pair)
    reach = 1
    for block, (lin, anti), n_cols in pairs:
        for series, offset in ((lin, 0), (anti, n_cols)) if block < 2 else ((lin, n_cols), (anti, 0)):
            big = np.flatnonzero(np.abs(series.coeffs) > gate) - series.n_max
            if big.size:
                reach = max(reach, offset - big[0] if block < 2 else big[-1] + offset)
    return min(int(reach), n_out)


def _linearize(
    defn: DefiningFunction,
    qfac: QFactorization,
    c: TrigSeries,
    point: _Point,
    n_in: int,
    n_out: int | None,
    n_weight: int | None,
) -> LinearizedOperator:
    """The Jacobian at ``point`` with rows up to mode ``n_out``.

    With ``n_out=None`` the rows stop at the multipliers' numerical carrier
    (``_carrier_n_out``), at most the formal ``_default_n_out``; the result's
    ``n_out`` says where.
    """
    mults = _multipliers(defn, qfac, c, point, with_weight=n_weight is not None)
    if n_out is None:
        formal = _default_n_out(defn.model.d, defn.model.k0, n_in)
        n_out = _carrier_n_out(mults, n_in, n_weight, formal)
    n_wcols = 0 if n_weight is None else 2 * n_weight + 1
    a = np.zeros((6 * n_out + 1, n_wcols + 4 * (n_in + 1)))

    # window positions of the T1/T2 rows (modes -1 .. -n_out) and the T3 rows
    # (modes 0 .. n_out); shifting a column by zeta^n moves them by -n
    pad = n_out + max(n_in, n_weight or 0) + 4
    neg = pad - np.arange(1, n_out + 1)[:, None]
    sym = pad + np.arange(0, n_out + 1)[:, None]
    row_blocks = ((0, neg, False), (2 * n_out, neg, False), (4 * n_out, sym, True))

    def add_pairs(cols, pairs, ns):
        # real direction on cols[0::2], imaginary direction on cols[1::2]
        for (row0, idx, is_sym), (lin, anti) in zip(row_blocks, pairs):
            up, down = _window(lin, pad)[idx - ns], _window(anti, pad)[idx + ns]
            _add_modes(a[:, cols.start : cols.stop : 2], row0, up + down, is_sym)
            _add_modes(a[:, cols.start + 1 : cols.stop : 2], row0, 1j * up - 1j * down, is_sym)

    if n_weight is not None:
        for row0, series in zip((0, 2 * n_out), mults.weight):
            _add_modes(a[:, :1], row0, _window(series, pad)[neg], sym=False)
        add_pairs(slice(1, n_wcols), [(m, m) for m in mults.weight], np.arange(1, n_weight + 1))
    ns = np.arange(n_in + 1)
    add_pairs(slice(n_wcols, n_wcols + 2 * (n_in + 1)), mults.h, ns)
    add_pairs(slice(n_wcols + 2 * (n_in + 1), a.shape[1]), mults.g, ns)
    return LinearizedOperator(a, n_in, n_out, n_weight)


def linearize_at(
    r: DefiningFunction,
    disc: LiftedDisc,
    qfac: QFactorization,
    n_in: int | None = None,
    n_out: int | None = None,
    n_weight: int | None = None,
) -> LinearizedOperator:
    """Assemble the real derivative matrix of the reduced operator at a disc.

    The weight block is included with symbol degree ``n_weight`` (defaults to
    the series truncation); pass the result to ``kernel_dim_svd`` or slice
    ``hg_cols`` for the frozen-weight subproblem.
    """
    point = _Point.of_disc(disc)
    if n_in is None:  # the degree of ht or gt, one below that of h or g
        n_in = max(point.h.n_max, point.g.n_max) - 1
    if n_weight is None:
        n_weight = n_in
    if n_out is None:
        n_out = _default_n_out(r.model.d, r.model.k0, n_in)
    return _linearize(r, qfac, disc.c, point, n_in, n_out, n_weight)


# ---- kernel --------------------------------------------------------------------


def kernel_dim_svd(op, threshold: float = 1e-8) -> int:
    """Number of singular values below ``threshold`` relative to the largest.

    Requires the spectrum to separate cleanly (factor 10 across the cut);
    otherwise the count would be grid noise and the call fails instead.
    The SVD runs on the rows that are not exactly zero: dropping a zero row
    leaves every nonzero singular value, and so the rank, as it is.
    """
    matrix = op.matrix if hasattr(op, "matrix") else np.asarray(op)
    sigma = np.linalg.svd(matrix[_nonzero_rows(matrix)], compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0:
        return matrix.shape[1]
    cut = threshold * sigma[0]
    rank = int(np.sum(sigma >= cut))
    if 0 < rank < sigma.size:
        below = sigma[rank]
        if below > 0 and sigma[rank - 1] / below < 10.0:
            raise NumericalError("singular spectrum has no clean gap at the threshold")
    return matrix.shape[1] - rank


def shift_projection_matrix(m: int, n_modes: int) -> np.ndarray:
    """Matrix of ``u -> negative_project(zeta^m u)`` on modes ``-n_modes..0``.

    A toy model of the index bookkeeping: the kernel is spanned by the modes
    ``-m..0``, hence has complex dimension ``m + 1``.
    """
    if m < 0 or n_modes < m:
        raise ConfigError("need 0 <= m <= n_modes")
    rows = n_modes - m
    out = np.zeros((rows, n_modes + 1), dtype=complex)
    for col, mode in enumerate(range(-n_modes, 1)):
        target = mode + m
        if target <= -1:
            out[-target - 1, col] = 1.0
    return out


@dataclass(frozen=True)
class KernelBasis:
    """Explicit kernel of the linearization at the base disc."""

    vectors: tuple[tuple[TrigSeries, TrigSeries, TrigSeries], ...]
    dim: int
    coords: np.ndarray = field(repr=False)
    residuals: tuple[float, ...] = ()


def binomial_tail(root: complex, order: int, n_max: int) -> TrigSeries:
    """Truncation of ``1 / (1 - conj(root) zeta)^(order+1)``."""
    arr = np.zeros(2 * n_max + 1, dtype=complex)
    rbar = np.conj(root)
    for n in range(n_max + 1):
        arr[n_max + n] = math.comb(n + order, order) * rbar**n
    return TrigSeries(arr)


def kernel_basis_p0(
    model, qfac: QFactorization, n_in: int = 64, threshold: float = 1e-8
) -> KernelBasis:
    """Kernel of the linearization at the base point, by explicit construction.

    Weight directions (the constant and ``2 Re zeta^n``, ``-2 Im zeta^n`` up
    to degree ``k0``) each get their induced minimal-norm ``(h, g)``
    correction by least squares; the homogeneous block is the complex span of
    the constant and one truncated binomial tail per inside root and order,
    with the ``g`` component completed through the boundary real-part solve.
    The weight corrections come from one multi-right-hand-side solve on the
    rows where the ``(h, g)`` block is not exactly zero; on the other rows
    the residual does not depend on the correction, so the minimal-norm
    solutions are those of the full system.
    """
    d, k0 = model.d, model.k0
    defn = DefiningFunction.pure(model)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=max(8, 2 * d))
    point = _Point.of_disc(disc)
    op = _linearize(defn, qfac, disc.c, point, n_in, _default_n_out(d, k0, n_in), k0)
    matrix = op.matrix
    hg = matrix[:, op.hg_cols]
    keep = _nonzero_rows(hg)
    sol, *_ = np.linalg.lstsq(hg[keep], -matrix[keep, op.weight_cols], rcond=threshold)
    weight_dirs = np.eye(2 * k0 + 1, matrix.shape[1])
    weight_dirs[:, op.hg_cols] = sol.T
    raw = list(weight_dirs)

    rz1 = _trace(defn.rz_mon(), d, point, d)  # r_z along the base disc, times 1 - zeta
    hom_shapes = [TrigSeries.constant(1.0).pad_to(n_in)]
    for root, mult in qfac.roots_inside:
        for order in range(mult):
            hom_shapes.append(binomial_tail(root, order, n_in))
    for shape in hom_shapes:
        for phase in (1.0, 1.0j):
            ht = shape * phase
            prod = multiply(rz1, ht)
            realpart = prod + prod.conjugate()
            gprime = analytic_from_real_part(TrigSeries.real_symmetrized(realpart.coeffs))
            gt = divide_one_minus_zeta(gprime).truncate(n_in)
            vec = np.zeros(matrix.shape[1])
            vec[op.hg_cols] = pack_series(ht, gt.pad_to(n_in), n_in)
            raw.append(vec)

    coords = np.array([v / np.linalg.norm(v) for v in raw])
    residuals = tuple(float(np.max(np.abs(matrix @ v))) for v in coords)
    # unit vectors against entries of up to hundreds: the gate scales with
    # max|A|, taken without a temporary the size of A
    gate = 1e-9 * max(matrix.max(), -matrix.min())
    bad = [res for res in residuals if res > gate]
    if bad:
        raise NumericalError(f"kernel candidate fails to annihilate: {max(bad):.3e}")
    gram = coords @ coords.T
    if np.linalg.cond(gram) > 1e6:
        raise NumericalError("kernel basis is numerically dependent")

    vectors = []
    for vec in coords:
        cprime = _weight_from_coords(vec[op.weight_cols], k0)
        ht, gt = unpack_series(vec[op.hg_cols], n_in)
        vectors.append((cprime, multiply(ONE_MINUS, ht), multiply(ONE_MINUS, gt)))
    dim = len(vectors)
    expected = 4 * k0 - d + 3
    if dim != expected:
        raise NumericalError(f"kernel basis size {dim} != {expected}")
    return KernelBasis(tuple(vectors), dim, coords, residuals)


def _weight_from_coords(w: np.ndarray, k0: int) -> TrigSeries:
    modes = {0: complex(w[0])}
    for n in range(1, k0 + 1):
        val = w[2 * n - 1] + 1j * w[2 * n]
        modes[n] = val
        modes[-n] = np.conj(val)
    return TrigSeries.from_mode_dict(modes)


# ---- Newton continuation --------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    disc: LiftedDisc
    converged: bool
    iterations: int
    history: tuple[float, ...]
    stationarity: tuple[float, float, float]


def _eval_at_one(n_in: int) -> np.ndarray:
    """``w``: ``w . y`` is the value at ``zeta = 1`` of the T3 rows ``y`` of modes ``0 .. n_in + 1``."""
    w = np.zeros(2 * n_in + 3)
    w[0], w[1::2] = 1.0, 2.0
    return w


def _g_pinv(y: np.ndarray, n_in: int) -> np.ndarray:
    """``G⁺ y``, for ``G: gt -> -Re((1 - zeta) gt)`` on the T3 rows of modes ``0 .. n_in + 1``.

    ``G`` is injective and its range is ``{y : w . y = 0}`` (``w`` from
    ``_eval_at_one``), so ``G⁺`` projects ``w`` out, reads ``p = (1 - zeta) gt``
    off the rows, with ``Im p_0`` from ``p(1) = 0``, and sums ``gt`` back
    from ``p``.  O(n) per column of ``y``.
    """
    w = _eval_at_one(n_in)
    y = y - np.multiply.outer(w, w @ y) / (w @ w)
    p = np.empty((n_in + 2,) + y.shape[1:], dtype=complex)
    p[1:] = -2.0 * (y[1::2] + 1j * y[2::2])
    p[0] = -y[0] - 1j * p[1:].imag.sum(axis=0)
    gt = np.cumsum(p, axis=0)[: n_in + 1]
    out = np.empty((2 * (n_in + 1),) + y.shape[1:])
    out[0::2], out[1::2] = gt.real, gt.imag
    return out


def _eliminate_g(
    jac: np.ndarray, rhs: np.ndarray, n_in: int, n_out: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The h-only least-squares problem of a Jacobian whose ``r`` does not involve ``u``.

    Then the T1/T2 rows do not see ``gt``, and the T3 rows see it only through
    ``G`` on the modes ``0 .. n_in + 1`` (``_g_pinv``).  For a fixed ``dh`` the
    best ``dg`` is ``-G⁺ (A_top dh + f_top)``, which leaves of those rows only
    their component along ``w``.  Returns the matrix and right-hand side of
    the T1 rows, that one row and the T3 rows above mode ``n_in + 1``, on the
    h columns, with ``(G⁺ A_top, G⁺ f_top)``; all are copies, so ``jac`` can be
    released.  The T2 rows are exactly zero and left out.
    """
    h = slice(0, 2 * (n_in + 1))
    top = slice(4 * n_out, 4 * n_out + 2 * n_in + 3)
    w = _eval_at_one(n_in)
    w /= np.linalg.norm(w)
    a_top, f_top = jac[top, h], rhs[top]
    mat = np.vstack([jac[: 2 * n_out, h], w @ a_top, jac[top.stop :, h]])
    vec = np.concatenate([rhs[: 2 * n_out], [w @ f_top], rhs[top.stop :]])
    return mat, vec, (_g_pinv(a_top, n_in), _g_pinv(f_top, n_in))


def _h_only_step(
    mat: np.ndarray, rhs: np.ndarray, lift: tuple[np.ndarray, np.ndarray], rcond: float
) -> np.ndarray:
    """The full system's minimal-norm least-squares step ``[dh; dg]``, from ``_eliminate_g``'s problem.

    ``mat dh ~ -rhs`` is factored once: the triangular factor of ``[mat |
    rhs]``, without ``Q``, then the SVD of its square part, cut at ``rcond``
    times ``mat``'s largest singular value.  ``dg`` follows from ``lift``.  The
    full system's least-squares steps are this one plus the lift of ``ker
    mat``, so projecting that lift out gives the minimal-norm step.
    """
    gp_a, gp_f = lift
    n = mat.shape[1]
    tri = np.linalg.qr(np.column_stack([mat, rhs]), mode="r")[:n]
    u, s, vt = np.linalg.svd(tri[:, :n])
    rank = int(np.sum(s > rcond * s[0]))
    dh = -vt[:rank].T @ ((u[:, :rank].T @ tri[:, n]) / s[:rank])
    step = np.concatenate([dh, -(gp_a @ dh + gp_f)])
    kernel = vt[rank:].T
    if kernel.size:
        basis, _ = np.linalg.qr(np.vstack([kernel, -gp_a @ kernel]))
        step -= basis @ (basis.T @ step)
    return step


def _check_decay(point: _Point) -> None:
    """Raise unless the coefficients of ``h`` and ``g`` have decayed within the truncation."""
    for series in (point.h, point.g):
        scale = max(1.0, float(np.max(np.abs(series.coeffs))))
        if series.coeff_decay() > 1e-7 * scale:
            raise NumericalError("series truncation too small: coefficients have not decayed")


# Newton steps that factor at most this many unknowns (2 (N + 1) when ``gt``
# is eliminated: N <= 383; else 4 (N + 1): N <= 191) are solved on one BLAS
# thread.  At that size a second OpenBLAS thread does not make lstsq faster
# (2 cores: 330 x 260 and 650 x 516 take the same time on one thread or two),
# but each of the many level-2 calls inside it then waits on the other core,
# so a step slows down two- to threefold whenever another process holds that
# core.  Larger steps keep the threads: at 1300 x 1028 two threads are about
# 25% faster.
SERIAL_LSTSQ_COLS = 768


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS bundled with numpy, or ``None``."""
    root = Path(np.__file__).resolve().parent
    names = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
             ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
             ("openblas_get_num_threads", "openblas_set_num_threads"))
    for path in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(root.glob(".dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same handle
        except OSError:
            continue
        for get, set_ in names:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


@contextlib.contextmanager
def _serial_blas():
    """Run the block on one OpenBLAS thread, then restore the count; a no-op without OpenBLAS."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def solve_newton(
    r: DefiningFunction,
    qfac: QFactorization,
    b: complex,
    init: LiftedDisc,
    opts: SolverOptions = SolverOptions(),
) -> SolveResult:
    """Damped Gauss-Newton continuation with the weight frozen at ``c(b)``.

    Unknowns are the analytic coefficients of ``ht, gt``; steps are
    minimal-norm least-squares solutions, which pins the in-fiber freedom (the
    update never moves along the residual kernel).  Each Jacobian stops at the
    multipliers' numerical carrier (``_carrier_n_out``): rows that only
    rounding-level coefficients reach are never assembled, which leaves a
    problem about as tall as it is wide and moves the step at rounding level.
    When ``r`` does not involve ``u``, ``dg`` is eliminated in closed form
    (``_eliminate_g``) and only the ``h`` columns are factored, a problem
    half as wide; the step is lifted back to the minimal-norm step of the
    full system (``_h_only_step``).  Its rank cut is taken on the ``h``-only
    matrix: the same ``svd_threshold`` on the coupled ``[h | g]`` matrix
    dropped real directions at ``|b| = 0.45``.  A ``u``-dependent ``r``
    couples the T1/T2 rows to ``g`` and keeps ``lstsq`` on the whole step.
    Either way the step is solved on the rows that are not exactly zero;
    such a row adds a constant to the squared residual, so the minimal-norm
    step is the one of the full system.  The line search and the
    convergence test use the residual at the formal size.  Convergence is
    declared on the reduced residual and re-checked with the plain
    substitution residual; an iterate whose ``h`` or ``g`` has not decayed
    within the truncation is reported as such, also when it is where the
    line search fails, and a final disc that fails ``LiftedDisc``'s pin check
    is a ``NumericalError``.  Steps that factor up to ``SERIAL_LSTSQ_COLS``
    unknowns run on one BLAS thread, which keeps their time steady when
    another process shares the cores.
    """
    model = r.model
    if abs(b) >= 0.5:
        raise ConfigError("solver requires |b| < 1/2")
    if x_norm_distance(r) > opts.x_norm_bound:
        raise NumericalError("defining function too far from its model")
    n_in = opts.n_max
    n_out = _default_n_out(model.d, model.k0, n_in)
    jac_bytes = 8 * (6 * n_out + 1) * 4 * (n_in + 1)
    if jac_bytes > MAX_JACOBIAN_BYTES:
        raise ConfigError(
            f"solver N = {n_in} needs a {jac_bytes / 2**30:.2f} GiB Jacobian at d = {model.d}, "
            f"k0 = {model.k0} (cap {MAX_JACOBIAN_BYTES / 2**30:g} GiB)"
        )
    c = weight_series(b, model.k0)
    htilde = divide_one_minus_zeta(init.h, tol=1e-6).truncate(n_in).pad_to(n_in)
    gtilde = divide_one_minus_zeta(init.g, tol=1e-6).truncate(n_in).pad_to(n_in)
    inner_tol = 0.01 * opts.tol
    u_free = not d_u(r.big_r_mon())

    x = pack_series(htilde, gtilde, n_in)
    point = _Point(htilde, gtilde)
    val = _operator_value(r, qfac, c, point)
    f = stack_value(val, n_out)
    history = [float(np.max(np.abs(f)))]
    iterations = 0
    while history[-1] >= inner_tol and iterations < opts.max_iter:
        op = _linearize(r, qfac, c, point, n_in, None, n_weight=None)
        rhs, jac = stack_value(val, op.n_out), op.matrix
        if u_free:
            jac, rhs, lift = _eliminate_g(jac, rhs, n_in, op.n_out)
        del op
        keep = _nonzero_rows(jac)
        # release the full matrix before the solve, the trimmed one and the
        # lift after it: none then lives on through the next assembly
        jac, rhs = jac[keep], rhs[keep]
        with _serial_blas() if jac.shape[1] <= SERIAL_LSTSQ_COLS else contextlib.nullcontext():
            if u_free:
                delta = _h_only_step(jac, rhs, lift, opts.svd_threshold)
                del lift
            else:
                delta, *_ = np.linalg.lstsq(jac, -rhs, rcond=opts.svd_threshold)
        del jac
        phi0 = float(f @ f)
        alpha = 1.0
        while True:
            x_try = x + alpha * delta
            point_try = _Point(*unpack_series(x_try, n_in))
            val_try = _operator_value(r, qfac, c, point_try)
            f_try = stack_value(val_try, n_out)
            if float(f_try @ f_try) <= (1.0 - 1e-4 * alpha) * phi0:
                break
            alpha *= 0.5
            if alpha < 1e-10:
                _check_decay(point)  # an under-resolved iterate is the cause to report
                raise NumericalError("line search failed to reduce the residual")
        x, point, val, f = x_try, point_try, val_try, f_try
        iterations += 1
        history.append(float(np.max(np.abs(f))))

    _check_decay(point)
    try:
        disc = LiftedDisc(c, point.h, point.g)
    except ConfigError as exc:  # the computed disc, not the input, fails the check
        raise NumericalError(f"computed disc fails its pin check: {exc}") from None
    res = stationarity_residual(disc, r)
    converged = history[-1] < inner_tol and max(res) < opts.tol
    if not converged:
        raise NumericalError(
            f"no convergence in {iterations} iterations "
            f"(reduced {history[-1]:.3e}, plain {max(res):.3e})"
        )
    return SolveResult(disc, converged, iterations, tuple(history), res)
