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
the quotient is polynomial.  The division by ``s`` stays in coefficient space
too: every root ``q`` of ``s`` lies outside the closed disc, so ``1 / (q -
zeta)`` is a one-sided geometric series in ``zeta``.  Every trace the
operator and its multipliers need is this one substitution, ``_trace``,
multiplied back by ``(1 - zeta)^extra`` (``extra = d - 1`` gives the plain
trace).  Each iterate ``(ht, gt)`` is one ``_Point``: it holds ``h``, ``g``,
``Re g`` and one product table, the products ``ht^a conj(ht)^b (gt +
conj(zeta gt))^e`` as raw coefficient windows, each built once and read by
every trace at that point.

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
from typing import NoReturn

import numpy as np

from .discs import LiftedDisc, ModelDiscParams, model_disc, stationarity_residual, weight_series
from .exceptions import ConfigError, NumericalError, integer, malformed, real, strict_keys
from .model import QFactorization, d_u
from .perturb import DefiningFunction, x_norm_distance
from .series import (
    CARRIER_GATE,
    ONE_MINUS,
    TrigSeries,
    divide_one_minus_zeta,
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


# Largest accepted truncation order N.  Substitutions along a disc of order N
# build series of order up to d (N + 2), which a run config keeps within
# series.MAX_ORDER (65536).  A solve is bounded separately, by the size of its
# Jacobian.
MAX_N = 4096
# Largest dense Jacobian ``solve_newton`` may assemble, in bytes, taken at the
# formal row count; the step factors a copy of up to the same size, so a solve
# may need twice this.
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
        if not 0 < self.x_norm_bound < math.inf:
            raise ConfigError("solver x_norm_bound must be positive and finite")

    @classmethod
    def from_dict(cls, data: dict) -> "SolverOptions":
        strict_keys(data, {"N", "tol", "max_iter", "svd_threshold", "x_norm_bound"}, "solver option")
        with malformed("malformed solver options"):
            kwargs = {key: real(data[key], key) for key in ("tol", "svd_threshold", "x_norm_bound") if key in data}
            if "N" in data:
                kwargs["n_max"] = integer(data["N"], "N")
            if "max_iter" in data:
                kwargs["max_iter"] = integer(data["max_iter"], "max_iter")
        return cls(**kwargs)


# ---- the point of one iterate -------------------------------------------------


def _nonzero(arr: np.ndarray, lo: int) -> tuple[np.ndarray, int] | None:
    """The raw window ``(coeffs, lowest mode)`` of the coefficients ``arr`` from mode ``lo``, or ``None`` if all are 0.

    It runs from the first to the last nonzero coefficient, so no product
    convolves exact zeros (an end can underflow, or a sum cancel, to 0).
    """
    idx = arr.nonzero()[0]
    if not idx.size:
        return None
    return arr[idx[0] : idx[-1] + 1], lo + int(idx[0])


class _Point:
    """The disc ``h = (1 - zeta) ht``, ``g = (1 - zeta) gt`` with the products its substitutions read.

    ``bases`` holds the raw nonzero windows (``_nonzero``) of ``ht``, ``conj ht``
    and ``u = gt + conj(zeta gt)``, and ``orders`` their formal orders.
    ``table`` is the one product table every ``_trace`` at this point reads:
    entry ``(a, b, e)`` is the raw window of ``ht^a conj(ht)^b u^e`` (``None``
    where it is 0), built by ``product`` the first time a trace asks for it,
    and only then: by one convolution of a lower entry with one base, or,
    without ``u`` and for ``a > b``, as the conjugate mirror of ``(b, a, 0)``.
    """

    def __init__(self, htilde: TrigSeries, gtilde: TrigSeries):
        self.h = multiply(ONE_MINUS, htilde)
        self.g = multiply(ONE_MINUS, gtilde)
        self.re_g = (self.g + self.g.conjugate()) * 0.5
        u = gtilde + gtilde.shift(1).conjugate()
        self.bases = tuple(_nonzero(base.coeffs, -base.n_max) for base in (htilde, htilde.conjugate(), u))
        self.orders = (htilde.n_max, htilde.n_max, u.n_max)
        unit = (np.ones(1, dtype=complex), 0)
        self.table = dict(zip([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], (unit, *self.bases)))

    @classmethod
    def of_disc(cls, disc: LiftedDisc) -> "_Point":
        try:
            htilde, gtilde = divide_one_minus_zeta(disc.h), divide_one_minus_zeta(disc.g)
        except ValueError as exc:
            raise ConfigError(f"disc components not divisible by 1 - zeta: {exc}") from None
        return cls(htilde, gtilde)

    def product(self, key: tuple[int, int, int]) -> tuple[np.ndarray, int] | None:
        """The table's entry ``(a, b, e)``: ``ht^a conj(ht)^b u^e`` as a raw window, or ``None`` for 0."""
        if key not in self.table:
            self.table[key] = self._build(key)
        return self.table[key]

    def _build(self, key: tuple[int, int, int]) -> tuple[np.ndarray, int] | None:
        """Entry ``key`` from a lower one: the conjugate mirror of ``(b, a, 0)``, or one convolution with a base.

        ``ht^a conj(ht)^b`` with ``a > b`` is the conjugate of ``ht^b
        conj(ht)^a``, so it costs no product; otherwise ``u``'s exponent is
        lowered first, then ``ht``'s, then ``conj ht``'s.
        """
        a, b, e = key
        if not e and a > b:
            mirror = self.product((b, a, 0))
            return None if mirror is None else (mirror[0][::-1].conj(), 1 - len(mirror[0]) - mirror[1])
        i = 2 if e else 0 if a else 1
        low, base = self.product(tuple(k - (j == i) for j, k in enumerate(key))), self.bases[i]
        if low is None or base is None:
            return None
        return _nonzero(np.convolve(low[0], base[0]), low[1] + base[1])


def _trace(
    mon: dict,
    d: int,
    point: _Point,
    extra: int,
    c: TrigSeries | None = None,
    k0: int = 0,
    qfac: QFactorization | None = None,
    keep: int = 0,
) -> TrigSeries:
    """Trace of ``mon`` along ``point``, divided by ``(1 - zeta)^(d - 1 - extra)``.

    Each monomial ``z^a zbar^b u^e`` carries ``(1 - zeta)^(a+b+e)`` along the
    point, so the quotient is exact: ``extra`` is 0 for the reduced ``r_z``, 1
    for a first-order direction of it, ``d - 1`` for the plain trace and ``d``
    for the plain trace times ``1 - zeta``.  The term of a monomial is
    ``kappa (-1)^b (-i/2)^e zeta^-b (1 - zeta)^expo`` times the point's table
    entry ``(a, b, e)`` (``_Point.product``); the terms go into one buffer
    over the union of their raw windows, by powers of ``1 - zeta`` from the
    highest down (Horner), each power's in sorted monomial order.  The sum
    is then multiplied by ``c`` (if given), shifted by ``zeta^k0`` and
    divided by ``s`` (if ``qfac`` has outside roots), all on raw windows;
    one series is made at the end, of the order a chain of series products
    would give it.  As ``1 / (q - zeta) = sum q^(-m-1) zeta^m`` for ``|q| >
    1``, mode ``m`` of a quotient reads only the modes at or below ``m``: it
    is kept to ``max(n, keep)``, ``n`` the dividend's order, and exact.
    """
    terms, n = [], 0  # n: the formal order of the sum
    for (a, b, e), kappa in sorted(mon.items()):
        expo = a + b + e + extra - (d - 1)
        if expo < 0:
            raise NumericalError("vanishing-order bookkeeping violated")
        n = max(n, expo + a * point.orders[0] + b * point.orders[1] + e * point.orders[2] + b)
        prod = point.product((a, b, e))
        if prod is not None:
            terms.append((expo, prod[0], prod[1] - b, kappa * (-1.0) ** b * (-0.5j) ** e))
    raw = None
    if terms:
        # Horner in 1 - zeta: the terms of the highest power first, those of one
        # power in sorted monomial order; each factor is a difference in place
        terms.sort(key=lambda term: -term[0])
        lo, power = min(term[2] for term in terms), terms[0][0]
        buf = np.zeros(max(start + len(coeffs) + expo for expo, coeffs, start, _ in terms) - lo, dtype=complex)
        for expo, coeffs, start, coef in terms:
            for _ in range(power - expo):
                buf[1:] -= buf[:-1]
            power = expo
            buf[start - lo : start - lo + len(coeffs)] += coeffs * coef
        for _ in range(power):
            buf[1:] -= buf[:-1]
        raw = _nonzero(buf, lo)
    if c is not None:
        wc = _nonzero(c.coeffs, -c.n_max)
        raw = None if raw is None or wc is None else (np.convolve(raw[0], wc[0]), raw[1] + wc[1])
        n += c.n_max
    if raw is not None:
        raw = raw[0], raw[1] + k0
    n += abs(k0)
    # no kept mode reads a lag past top + n, and lags past 39 / ln|q| weigh below e^-39
    hi, top = n, max(n, keep)
    for q in qfac.roots_outside if qfac is not None else ():
        lags = min(top + n, math.ceil(39 / math.log(abs(q))))
        geometric = TrigSeries.geometric(1 / q, lags).coeffs[lags:]
        if raw is not None:
            raw = np.convolve(raw[0], geometric)[: top - raw[1] + 1] * (1 / q), raw[1]
        hi = min(hi + lags, top)
    out = np.zeros(2 * hi + 1, dtype=complex)
    if raw is not None:
        out[hi + raw[1] : hi + raw[1] + len(raw[0])] = raw[0]
    return TrigSeries._adopt(out)


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
    defn: DefiningFunction, qfac: QFactorization, c: TrigSeries, point: _Point, n_in: int, n_weight: int | None
) -> _Multipliers:
    d, k0 = defn.model.d, defn.model.k0
    keep = max(n_in, n_weight or 0)  # no column reads a quotient by s past this mode

    # T1 multipliers carry the exact cancellation and the division by s;
    # T2 and T3 are plain traces times the 1 - zeta of the direction
    m1_hlin = _trace(defn.rzz_mon(), d, point, 1, c, k0, qfac, keep)
    m1_hanti = -_trace(defn.rzzbar_mon(), d, point, 1, c, k0, qfac, keep).shift(-1)
    m1_g = _trace(d_u(defn.rz_mon()), d, point, 1, c, k0, qfac, keep) * (-0.5j)

    m2_hlin = _trace(defn.rzw_mon(), d, point, d, c, k0)
    m2_hanti = -_trace(defn.rwzbar_mon(), d, point, d, c, k0).shift(-1)
    m2_g = _trace(d_u(defn.rw_mon()), d, point, d, c, k0) * (-0.5j)

    # T3 is real, so each anti multiplier is the conjugate of its lin one
    m3_hlin = _trace(defn.rz_mon(), d, point, d)
    m3_glin = _trace(d_u(defn.big_r_mon()), d, point, d) * (-0.5j) - ONE_MINUS * 0.5

    weight = None
    if n_weight is not None:
        weight = (
            _trace(defn.rz_mon(), d, point, 0, k0=k0, qfac=qfac, keep=keep),
            _trace(defn.rw_mon(), d, point, d - 1, k0=k0),
        )
    return _Multipliers(
        h=((m1_hlin, m1_hanti), (m2_hlin, m2_hanti), (m3_hlin, m3_hlin.conjugate())),
        g=((m1_g, m1_g.shift(-1)), (m2_g, m2_g.shift(-1)), (m3_glin, m3_glin.conjugate())),
        weight=weight,
    )


# A multiplier coefficient at most ``CARRIER_GATE`` of the largest one is
# rounding noise, and so is every Jacobian entry made of it.  Rows that only
# such coefficients reach change the least-squares step and the singular values
# at rounding level, so every Jacobian stops at the last row a larger
# coefficient reaches.
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
    h_only: bool = False,
) -> LinearizedOperator:
    """The Jacobian at ``point`` with rows up to mode ``n_out``.

    With ``n_out=None`` the rows stop at the multipliers' numerical carrier
    (``_carrier_n_out``), at most the formal ``_default_n_out``; the result's
    ``n_out`` says where.  With ``h_only`` (for a ``u``-free ``r`` without a
    weight block) only the ``h`` columns of the T1 and T3 rows are filled,
    which is all ``_eliminate_g`` reads; the ``g`` columns and the T2 rows
    (exactly zero in the ``h`` columns) stay zero.  The layout and ``n_out``
    are the full Jacobian's, and so is every entry it fills.
    """
    mults = _multipliers(defn, qfac, c, point, n_in, n_weight)
    if n_out is None:
        formal = _default_n_out(defn.model.d, defn.model.k0, n_in)
        n_out = _carrier_n_out(mults, n_in, n_weight, formal)
    n_wcols = 0 if n_weight is None else 2 * n_weight + 1
    # full width also with h_only: an h-wide buffer let glibc's trim threshold
    # (twice the largest freed mmap'd block) fall below one N=128 iteration's
    # temporaries, so each iteration handed its heap back and faulted ~5 MB in
    a = np.zeros((6 * n_out + 1, n_wcols + 4 * (n_in + 1)))

    # window positions of the T1/T2 rows (modes -1 .. -n_out) and the T3 rows
    # (modes 0 .. n_out); shifting a column by zeta^n moves them by -n
    pad = n_out + max(n_in, n_weight or 0) + 4
    neg = pad - np.arange(1, n_out + 1)[:, None]
    sym = pad + np.arange(0, n_out + 1)[:, None]
    row_blocks = ((0, neg, False), (2 * n_out, neg, False), (4 * n_out, sym, True))

    def add_pairs(cols, pairs, ns):
        # real direction on cols[0::2], imaginary direction on cols[1::2]
        for block, ((row0, idx, is_sym), (lin, anti)) in enumerate(zip(row_blocks, pairs)):
            if h_only and block == 1:
                continue
            up, down = _window(lin, pad)[idx - ns], _window(anti, pad)[idx + ns]
            _add_modes(a[:, cols.start : cols.stop : 2], row0, up + down, is_sym)
            _add_modes(a[:, cols.start + 1 : cols.stop : 2], row0, 1j * up - 1j * down, is_sym)

    if n_weight is not None:
        for row0, series in zip((0, 2 * n_out), mults.weight):
            _add_modes(a[:, :1], row0, _window(series, pad)[neg], sym=False)
        add_pairs(slice(1, n_wcols), [(m, m) for m in mults.weight], np.arange(1, n_weight + 1))
    ns = np.arange(n_in + 1)
    add_pairs(slice(n_wcols, n_wcols + 2 * (n_in + 1)), mults.h, ns)
    if not h_only:
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
    ``hg_cols`` for the frozen-weight subproblem.  The rows stop at the
    multipliers' numerical carrier unless ``n_out`` is given.
    """
    point = _Point.of_disc(disc)
    if n_in is None:  # the degree of ht or gt, one below that of h or g
        n_in = max(point.h.n_max, point.g.n_max) - 1
    if n_weight is None:
        n_weight = n_in
    return _linearize(r, qfac, disc.c, point, n_in, n_out, n_weight)


# ---- kernel --------------------------------------------------------------------


def kernel_dim_svd(op, threshold: float = 1e-8) -> int:
    """Number of singular values below ``threshold`` relative to the largest.

    Requires the spectrum to separate cleanly (factor 10 across the cut);
    otherwise the count would be grid noise and the call fails instead.
    """
    matrix = op.matrix if hasattr(op, "matrix") else np.asarray(op)
    with _blas_threads(matrix.shape[1]):
        sigma = np.linalg.svd(matrix, compute_uv=False)
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
    the constant and one truncated binomial tail per inside root and order.
    The weight corrections are one Newton step, a right-hand-side column per
    direction, on the linearization whose rows stop at the multipliers'
    carrier: the pure model is ``u``-free and the weight columns' T2 rows
    are zero (``-1/2 zeta^k0 2 Re zeta^n`` has no negative mode).  It
    takes Newton's jet pin (``_jet_pin``), since its ``h``-only matrix has
    the same ``2 k0 - d + 2`` null directions.  Each
    homogeneous direction ``dh`` gets its ``g`` from the same step's lift,
    ``dg = -G⁺ A_top dh`` (``_eliminate_g``): the harmonic conjugation that
    fixes ``Re g`` on the boundary, as in every Newton step.
    """
    d, k0 = model.d, model.k0
    defn = DefiningFunction.pure(model)
    disc = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=max(8, 2 * d))
    op = _linearize(defn, qfac, disc.c, _Point.of_disc(disc), n_in, None, k0)
    matrix = op.matrix
    mat, rhs, lift = _eliminate_g(matrix[:, op.hg_cols], matrix[:, op.weight_cols], n_in, op.n_out)
    sol = _h_only_step(mat, rhs, lift, threshold, _jet_pin(n_in, k0 - d // 2 + 1))
    shapes = [TrigSeries.constant(1.0)]
    shapes += [binomial_tail(root, order, n_in) for root, mult in qfac.roots_inside for order in range(mult)]
    zero = TrigSeries.zero(0)
    dh = np.array([pack_series(s * phase, zero, n_in)[: 2 * (n_in + 1)] for s in shapes for phase in (1.0, 1.0j)])
    raw = np.zeros((2 * k0 + 1 + len(dh), matrix.shape[1]))
    raw[: 2 * k0 + 1, op.weight_cols] = np.eye(2 * k0 + 1)
    # a homogeneous direction's dg is the lift of a step with no residual: -G⁺ A_top dh
    raw[:, op.hg_cols] = np.vstack([sol.T, np.hstack([dh, -dh @ lift[0].T])])
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
    from ``p``.  ``w`` is 1 on row 0, 2 on the odd rows and 0 on the even
    ones, so the projection touches only the rows ``p`` reads of the former.
    O(n) per column of ``y``.
    """
    w = _eval_at_one(n_in)
    along = w @ y
    # Re p and Im p of the modes 0 .. n_in; p_m = -2 (y_{2m-1} + i y_{2m}) for m >= 1
    re, im = np.empty((2, n_in + 1) + y.shape[1:])
    re[0], im[0] = -(y[0] - along / (w @ w)), 2.0 * y[2::2].sum(axis=0)
    np.subtract(y[1:-2:2], 2.0 * along / (w @ w), out=re[1:])
    re[1:] *= -2.0
    np.multiply(y[2:-1:2], -2.0, out=im[1:])
    out = np.empty((2 * (n_in + 1),) + y.shape[1:])
    np.cumsum(re, axis=0, out=out[0::2])
    np.cumsum(im, axis=0, out=out[1::2])
    return out


def _jet_pin(n_in: int, orders: int) -> np.ndarray:
    """Rows of the jets of ``h = (1 - zeta) ht`` at 1, orders ``1 .. orders``, on the packed ``ht``.

    ``h^(m)(1) = -m sum_n n (n-1) ... (n-m+2) ht_n``; each order takes a row
    for its real part (on the ``Re ht_n`` columns) and one for its imaginary
    part.  With ``orders = k0 - d/2 + 1`` these are the family's free
    coordinates: a ``u``-free Newton step's matrix has a null space of
    ``2 orders`` real directions, on which the rows are one-to-one, which
    ``_pinned_step`` checks at every step.
    """
    n = np.arange(n_in + 1.0)
    fall, out = np.ones(n_in + 1), np.zeros((2 * orders, 2 * (n_in + 1)))
    for m in range(1, orders + 1):
        out[2 * m - 2, 0::2] = out[2 * m - 1, 1::2] = -m * fall
        fall *= n - m + 1
    return out


def _split_top(y: np.ndarray, n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """``y``'s rows of the ``h``-only problem, and its T3 rows of modes ``0 .. n_in + 1``.

    ``y`` is the Jacobian's ``h`` columns or a right-hand side, on the rows of
    a Jacobian with ``n_out``.  The first part is a new array of the T1 rows,
    the component of the top T3 rows along ``w`` (``_eval_at_one``), as one
    row, and the T3 rows above mode ``n_in + 1``.
    """
    top = slice(4 * n_out, 4 * n_out + 2 * n_in + 3)
    w = _eval_at_one(n_in)
    w /= np.linalg.norm(w)
    return np.concatenate([y[: 2 * n_out], (w @ y[top])[None], y[top.stop :]]), y[top]


def _eliminate_g(
    jac: np.ndarray, rhs: np.ndarray, n_in: int, n_out: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The h-only least-squares problem of a Jacobian whose ``r`` does not involve ``u``.

    Then the T1/T2 rows do not see ``gt``, and the T3 rows see it only through
    ``G`` on the modes ``0 .. n_in + 1`` (``_g_pinv``).  For a fixed ``dh`` the
    best ``dg`` is ``-G⁺ (A_top dh + f_top)``, which leaves of those rows only
    their component along ``w``.  Returns the matrix and right-hand side of
    the T1 rows, that one row and the T3 rows above mode ``n_in + 1``, on the
    h columns (``_split_top``), with the lift ``(G⁺ A_top, G⁺ f_top)``; all
    are new arrays, so ``jac`` can be released.  The T2 rows are exactly
    zero and left out.
    """
    mat, a_top = _split_top(jac[:, : 2 * (n_in + 1)], n_in, n_out)
    vec, f_top = _split_top(rhs, n_in, n_out)
    return mat, vec, (_g_pinv(a_top, n_in), _g_pinv(f_top, n_in))


def _lift(dh: np.ndarray, lift: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``[dh; -(G⁺ A_top dh + G⁺ f_top)]`` for ``lift = (G⁺ A_top, G⁺ f_top)``: ``dg`` completes the step."""
    gp_a, gp_f = lift
    return np.concatenate([dh, -(gp_a @ dh + gp_f)])


def _minimal_norm(step: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """``step`` with its component along the orthonormal ``basis`` (if any) projected out."""
    return step if basis is None else step - basis @ (basis.T @ step)


def _sigma_max(a: np.ndarray) -> float | None:
    """The largest singular value of ``a`` by power iteration, or ``None`` where it is 0 or not finite.

    It starts from ``a^T a`` times the unit vector of ``a``'s longest column,
    so ``a`` and its triangular factor ``R`` (``a^T a = R^T R``, equal column
    norms) give the same iteration.
    """
    v, s2 = a.T @ a[:, np.argmax(np.einsum("ij,ij->j", a, a))], 0.0
    if not 0.0 < v @ v < math.inf:  # a null (or non-finite) start: sigma_max is 0 or undefined
        return None
    for _ in range(100):  # until sigma_max^2 gains under 1e-3 of itself
        w = a @ (v / math.sqrt(v @ v))
        last, s2 = s2, w @ w
        if not s2 - last > 1e-3 * s2:
            break
        v = a.T @ w
    return math.sqrt(s2) if 0.0 < s2 < math.inf else None


def _start(n: int, block: int) -> np.ndarray:
    """A fixed pseudo-random ``n x block`` start in ``[-1/2, 1/2)``.

    A sine hash, since importing numpy.random adds ~13 ms to a cold run.
    """
    return np.sin(np.arange(1.0, n * block + 1).reshape(n, block) * 12.9898) * 43758.5453 % 1.0 - 0.5


def _blocks(n: int) -> list[tuple[int, int]]:
    """The diagonal blocks of 64 rows in which a triangle of order ``n`` is solved."""
    return [(j, min(j + 64, n)) for j in range(0, n, 64)]


def _back_substitute(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``T^-1 b`` for the upper triangle ``T`` of order ``len(b)`` that leads ``t``, 64 rows at a time."""
    n = len(b)
    x = np.zeros(b.shape)
    for j, e in reversed(_blocks(n)):
        x[j:e] = np.linalg.solve(t[j:e, j:e], b[j:e] - t[j:e, e:n] @ x[e:])
    return x


def _forward_substitute(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``T^-T b`` for ``T`` as in ``_back_substitute``: forward substitution, 64 rows at a time."""
    y = np.array(b, dtype=float)
    for j, e in _blocks(len(b)):
        y[j:e] = np.linalg.solve(t[j:e, j:e].T, y[j:e] - t[:j, j:e].T @ y[:j])
    return y


# The pinned factor's smallest singular value is read from one sweep of
# inverse iteration, which can only overestimate it, so it must clear twice
# the cut by this factor.  On the 1,020 u-free steps of newton_grid seeds 1-3
# (N = 64 and 128) the sweep read at most 1.58 times the exact value, and the
# exact value was at least 15.7 times the cut.
PIN_MARGIN = 4.0


@dataclass(frozen=True)
class _PinnedFactor:
    """What a closing step reads of an accepted pinned step (``_closing_step``).

    ``tri`` holds the triangle ``T`` of ``[mat; C]`` in its leading rows and
    columns, ``pin`` the scaled jet rows ``C``, ``basis`` the orthonormal
    lifted null directions and ``gp_a`` the lift's ``G⁺ A_top``.  No field is a
    view of the Jacobian.
    """

    tri: np.ndarray
    mat: np.ndarray
    pin: np.ndarray
    basis: np.ndarray
    gp_a: np.ndarray


def _pinned_step(
    mat: np.ndarray, rhs: np.ndarray, pin: np.ndarray, sigma: float, cut: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """``(dh, K, tri, C)`` of ``_h_only_step`` from one factorization with a pin of ``mat``'s null space, or ``None``.

    The pin's rows, each scaled to ``sigma`` (``mat``'s largest singular
    value) as ``C``, border ``[mat | rhs | 0; C | 0 | I]``; its triangular
    factor ``tri`` (no ``Q``) and one back-substitution give a least-squares
    ``dh`` of ``mat dh ~ -rhs`` (with ``C dh ~ 0``) and ``Z = [mat; C]^+ [0;
    I]``, whose columns ``mat`` maps to zero wherever ``C`` is one-to-one on
    ``ker mat``.  ``K = orth(Z)``.  ``None`` unless ``mat`` then provably has
    exactly as many singular values at or below ``cut / 2`` as ``C`` has
    rows, and none in ``(cut / 2, 2 cut]``: ``|mat K| <= cut / 2`` gives at
    least that many, and a smallest singular value of ``[mat; C]`` above ``2
    cut`` at most that many.  The latter is read from one sweep of inverse
    iteration over ``len(pin) + 4`` starts (at most ``n``), with
    ``PIN_MARGIN`` against its overestimate.
    """
    (m, n), p = mat.shape, len(pin)
    k = rhs.size // m
    scaled = pin * (sigma / np.linalg.norm(pin, axis=1))[:, None]
    full = np.zeros((m + p, n + k + p))
    full[:m, :n], full[:m, n : n + k] = mat, rhs.reshape(m, k)
    full[m:, :n], full[m:, n + k :] = scaled, np.eye(p)
    try:
        tri = np.linalg.qr(full, mode="r")
        # one sweep of inverse iteration: y = T^-T s, then T^-1 y with the right-hand sides
        y = _forward_substitute(tri, _start(n, min(p + 4, n)))
        x = _back_substitute(tri, np.column_stack([tri[:n, n:], y]))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    kernel = np.linalg.qr(x[:, k : k + p])[0]
    smallest = np.min(np.linalg.norm(y, axis=0) / np.linalg.norm(x[:, k + p :], axis=0))
    if np.linalg.norm(mat @ kernel, 2) > cut / 2 or not smallest > PIN_MARGIN * 2 * cut:
        return None
    return -x[:, :k], kernel, tri, scaled


def _unpinned_step(mat: np.ndarray, rhs: np.ndarray, rcond: float) -> tuple[np.ndarray, np.ndarray]:
    """``(dh, K)`` of ``_h_only_step`` through the SVD of ``mat``'s triangular factor.

    ``[R | t]`` of ``[mat | rhs]`` (without ``Q``), then the SVD of ``R`` cut
    at ``rcond`` times its largest singular value: ``K`` holds the right
    singular vectors below the cut and ``dh`` solves ``R dh ~ -t`` on the
    ones above it.
    """
    n = mat.shape[1]
    tcols = n if rhs.ndim == 1 else slice(n, None)  # the columns of t, one per column of rhs
    tri = np.linalg.qr(np.column_stack([mat, rhs]), mode="r")[:n]
    r, t = tri[:, :n], tri[:, tcols]
    u, s, vt = np.linalg.svd(r)
    rank = int(np.sum(s > rcond * s[0]))
    return -vt[:rank].T @ ((u[:, :rank].T @ t).T / s[:rank]).T, vt[rank:].T


def _h_only_step(
    mat: np.ndarray,
    rhs: np.ndarray,
    lift: tuple[np.ndarray, np.ndarray],
    rcond: float,
    pin: np.ndarray | None = None,
    keep: bool = False,
):
    """The full system's minimal-norm least-squares step ``[dh; dg]``, from ``_eliminate_g``'s problem.

    One step per column of ``rhs``; with the empty lift
    ``(np.zeros((0, n)), np.zeros(0))`` it is ``mat``'s own minimal-norm
    step.  The directions ``K`` that ``mat`` maps below ``rcond`` times its
    largest singular value come, with ``dh``, from one factorization where
    ``pin`` is given and passes ``_pinned_step``'s rank check: rows that are
    one-to-one on ``ker mat``, as many as its dimension, border ``[mat |
    rhs]``, scaled to ``sigma_max`` from a power iteration on ``mat``.
    Without a pin, or where it fails that check, the SVD of ``mat``'s
    triangular factor finds them (``_unpinned_step``).  ``dg`` follows
    from ``lift`` (``_lift``).  The full system's least-squares steps are
    this one plus the lift ``[K; -G⁺ A_top K]`` of ``ker mat``, so
    projecting that out gives the minimal-norm step, whatever part of
    ``dh`` lies along ``K``: a pin chooses no disc.  With ``keep`` it
    returns ``(step, factor)``, ``factor`` the ``_PinnedFactor`` of a
    pinned step and ``None`` for an unpinned one.  It runs on one BLAS
    thread up to ``SERIAL_LSTSQ_COLS`` unknowns.
    """
    n = mat.shape[1]
    with _blas_threads(n):
        sigma = _sigma_max(mat) if pin is not None and len(mat) >= n else None
        pinned = None if sigma is None else _pinned_step(mat, rhs, pin, sigma, rcond * sigma)
        if pinned is not None:
            dh, kernel, tri, scaled = pinned
            dh = dh.reshape((n,) + rhs.shape[1:])
        else:
            dh, kernel = _unpinned_step(mat, rhs, rcond)
        basis = np.linalg.qr(np.vstack([kernel, -lift[0] @ kernel]))[0] if kernel.size else None
        step = _minimal_norm(_lift(dh, lift), basis)
    if not keep:
        return step
    return step, None if pinned is None else _PinnedFactor(tri, mat, scaled, basis, lift[0])


# A reduced residual below this level tries one step from the last accepted
# pinned factor (``_closing_step``) before it linearizes, and keeps the step
# only if it lands below ``inner_tol``; a miss costs one operator evaluation,
# a hit saves a Jacobian and its factorization.  On newton_grid seeds 1-6
# (64 ops each, N = 64 and 128) 1e-6 tried 644 closing steps and kept 432,
# 1e-7 tried 595 and kept 430, 1e-8 tried 541 and kept 382; every kept one
# moved its disc by at most 3.7e-12.
CLOSE_LEVEL = 1e-7


def _closing_step(factor: _PinnedFactor, vec: np.ndarray, gp_f: np.ndarray) -> np.ndarray:
    """The minimal-norm step of ``mat dh ~ -vec`` from a stored pinned factor, without a new factorization.

    ``gp_f`` is ``G⁺ f_top`` of the new right-hand side.  The semi-normal
    equations ``T^T T dh = -mat^T vec`` (``T^T T = mat^T mat + C^T C``)
    with one sweep of refinement on the bordered residual give the pinned
    ``dh``; ``dg`` and the projection are ``_h_only_step``'s.
    """
    t, mat, pin = factor.tri, factor.mat, factor.pin
    with _blas_threads(mat.shape[1]):
        dh = -_back_substitute(t, _forward_substitute(t, mat.T @ vec))
        dh -= _back_substitute(t, _forward_substitute(t, mat.T @ (mat @ dh + vec) + pin.T @ (pin @ dh)))
        return _minimal_norm(_lift(dh, (factor.gp_a, gp_f)), factor.basis)


def _relative_tail(series: TrigSeries) -> float:
    """The coefficient tail of ``series`` (``coeff_decay``) relative to ``max(1, max |c_n|)``."""
    return series.coeff_decay() / max(1.0, float(np.max(np.abs(series.coeffs))))


def _check_decay(point: _Point) -> None:
    """Raise unless the coefficients of ``h`` and ``g`` have decayed within the truncation."""
    if max(_relative_tail(point.h), _relative_tail(point.g)) > 1e-7:
        raise NumericalError("series truncation too small: coefficients have not decayed")


# A reduced residual in ``[inner_tol, tol)`` is at the truncation's floor when
# a step cannot halve it: a closing step misses ``inner_tol``, the line search
# rejects the full step, or an accepted step leaves above STALL_FACTOR of it.
# None of the 1,022 converged solves of newton_grid seeds 1-10 did so.  The
# rule never fires above ``tol``, where a weight frozen at ``c(b)`` stalls for
# a reason a larger N does not cure.
STALL_FACTOR = 0.5


def _truncation_floor(point: _Point, level: float, inner_tol: float, n: int) -> NoReturn:
    """Raise the stall of a solve at ``level`` in ``[inner_tol, tol)``.

    It is the truncation's floor, with the advice to raise N, where the
    larger relative coefficient tail is at least ``level``; tails below it
    cannot account for the stall, and the report says so.
    """
    _check_decay(point)  # coefficients that have not decayed are the plainer report
    tail_h, tail_g = _relative_tail(point.h), _relative_tail(point.g)
    stall = (
        f"reduced residual stalls at {level:.3e} above inner_tol {inner_tol:.1e} at N = {n} "
        f"(relative coefficient tails h {tail_h:.1e}, g {tail_g:.1e})"
    )
    if max(tail_h, tail_g) >= level:
        raise NumericalError(f"series truncation too small: {stall}; a larger N resolves the disc")
    raise NumericalError(f"{stall}; the tails lie below that level, so the truncation does not explain it")


# Factorizations of at most this many columns run on one BLAS thread: every
# least-squares step (a Newton step has 2 (N + 1) unknowns when ``gt`` is
# eliminated: N <= 383; else 4 (N + 1): N <= 191; the kernel basis'
# weight corrections 2 (n_in + 1)), every closing step and the kernel
# dimension's SVD.  At that size a second OpenBLAS thread buys a step little
# or nothing it can keep (2 cores, numpy 2.4.6, the fastest of 5 runs of
# ``_h_only_step`` on first Newton steps of the split d=4 model at b = 0.1,
# pinned as Newton pins them, four sets: a 327 x 258 step 2.7-2.8 ms on one
# thread and 3.5-3.6 on two, a 583 x 514 step 10.3-10.7 and 11.9-12.8),
# because each of the many level-2 calls inside it then waits on the other
# core, so a step slows down two- to threefold whenever another process
# holds that core.  Larger ones keep the threads: an 839 x 770 pinned step
# took 27.5-30.6 ms on one and 27.3-29.2 on two, and a 1645 x 1028 coupled
# step 797 on one and 564 on two.
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


def _blas_threads(cols: int):
    """``_serial_blas()`` for a factorization of at most ``SERIAL_LSTSQ_COLS`` columns, else nothing."""
    return _serial_blas() if cols <= SERIAL_LSTSQ_COLS else contextlib.nullcontext()


def solve_newton(
    r: DefiningFunction,
    qfac: QFactorization,
    b: complex,
    init: LiftedDisc,
    opts: SolverOptions = SolverOptions(),
) -> SolveResult:
    """Damped Gauss-Newton continuation with the weight frozen at ``c(b)``.

    Unknowns are the analytic coefficients of ``ht, gt``; every step is the
    minimal-norm least-squares step of a Jacobian, which pins the in-fiber
    freedom (the update never moves along the residual kernel).  A step
    linearizes and takes ``_h_only_step``'s step.  For a ``u``-free ``r``
    that kernel is found through the jets of ``h`` at 1 (``_jet_pin``), one
    factorization per step, and through the SVD only where the pin fails
    its rank check.  The accepted pinned factor is kept for
    one more step: where the next reduced residual lies below
    ``CLOSE_LEVEL``, a closing step from it (``_closing_step``: no Jacobian,
    no factorization) is tried first, and kept if it lands below
    ``inner_tol``.  The factor goes before the next Jacobian is assembled.
    Each Jacobian stops at the multipliers' numerical carrier
    (``_carrier_n_out``), which leaves a problem about as tall as it is wide.
    When ``r`` does not involve ``u``, ``dg`` is eliminated in closed form
    (``_eliminate_g``): only the Jacobian's ``h`` columns are filled
    (``_linearize``'s ``h_only``), and the step factors them and lifts
    back, so its rank cut is on the ``h``-only matrix (the same
    ``svd_threshold`` on the coupled ``[h | g]`` matrix dropped real
    directions at ``|b| = 0.45``).  A ``u``-dependent ``r`` couples the T1/T2
    rows to ``g`` and steps on the whole ``[h | g]`` Jacobian, with nothing
    to lift.  The line search and the convergence test use the residual at
    the formal size.  Convergence is declared on the reduced residual and
    re-checked with the plain substitution residual; an iterate whose ``h``
    or ``g`` has not decayed within the truncation is reported as such, also
    where the line search fails, and a final disc that fails ``LiftedDisc``'s
    checks is a ``NumericalError`` (``LiftedDisc.computed``).  A reduced
    residual in ``[inner_tol, tol)`` is the truncation's floor at the first
    step that cannot halve it (``STALL_FACTOR``): the solve then stops with a
    ``NumericalError`` naming the level, N and the coefficient tails
    (``_truncation_floor``).  Above ``tol`` the line search keeps its message.
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
    pin = _jet_pin(n_in, model.k0 - model.d // 2 + 1) if u_free else None

    x = pack_series(htilde, gtilde, n_in)
    point = _Point(htilde, gtilde)
    val = _operator_value(r, qfac, c, point)
    f = stack_value(val, n_out)
    history = [float(np.max(np.abs(f)))]
    iterations = 0
    factor, rows = None, 0  # the last accepted pinned step's factor and its Jacobian's n_out

    def floor_in_band():  # after a step that cannot halve the level (STALL_FACTOR)
        if inner_tol <= history[-1] < opts.tol:
            _truncation_floor(point, history[-1], inner_tol, n_in)

    def evaluate(x_try):
        point_try = _Point(*unpack_series(x_try, n_in))
        val_try = _operator_value(r, qfac, c, point_try)
        return x_try, point_try, val_try, stack_value(val_try, n_out)

    while history[-1] >= inner_tol and iterations < opts.max_iter:
        closed = factor is not None and history[-1] < CLOSE_LEVEL
        if closed:
            vec, f_top = _split_top(stack_value(val, rows), n_in, rows)
            x_try, point_try, val_try, f_try = evaluate(x + _closing_step(factor, vec, _g_pinv(f_top, n_in)))
            closed = float(np.max(np.abs(f_try))) < inner_tol
            if not closed:
                floor_in_band()
        factor = None  # no stored factor lives on through the next assembly
        if not closed:
            op = _linearize(r, qfac, c, point, n_in, None, n_weight=None, h_only=u_free)
            rows, rhs, jac = op.n_out, stack_value(val, op.n_out), op.matrix
            if u_free:
                jac, rhs, lift = _eliminate_g(jac, rhs, n_in, rows)
            else:  # the coupled [h | g] problem: no dg to lift
                lift = (np.zeros((0, jac.shape[1])), np.zeros(0))
            # the full matrix goes now, the step's matrix and the lift right after
            # the solve: none then lives on through the next assembly but in the
            # pinned factor, which goes before it
            del op
            delta, factor = _h_only_step(jac, rhs, lift, opts.svd_threshold, pin, keep=True)
            del jac, lift
            phi0 = float(f @ f)
            alpha = 1.0
            while True:
                x_try, point_try, val_try, f_try = evaluate(x + alpha * delta)
                if float(f_try @ f_try) <= (1.0 - 1e-4 * alpha) * phi0:
                    break
                floor_in_band()
                alpha *= 0.5
                if alpha < 1e-10:
                    _check_decay(point)  # an under-resolved iterate is the cause to report
                    raise NumericalError("line search failed to reduce the residual")
        x, point, val, f = x_try, point_try, val_try, f_try
        iterations += 1
        history.append(float(np.max(np.abs(f))))
        if history[-1] > STALL_FACTOR * history[-2]:
            floor_in_band()

    _check_decay(point)
    disc = LiftedDisc.computed(c, point.h, point.g, "computed disc")
    res = stationarity_residual(disc, r)
    converged = history[-1] < inner_tol and max(res) < opts.tol
    if not converged:
        raise NumericalError(
            f"no convergence in {iterations} iterations "
            f"(reduced {history[-1]:.3e}, plain {max(res):.3e})"
        )
    return SolveResult(disc, converged, iterations, tuple(history), res)
