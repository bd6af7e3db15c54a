"""Two-sided trigonometric polynomials on the unit circle.

A series holds coefficients ``c[n]`` for ``n`` in ``[-N, N]`` and represents
``sum_n c[n] zeta^n`` for ``|zeta| = 1``.  Everything downstream (hypersurface
symbols, disc components, boundary operators) is carried by this type, so the
algebra here is kept to rounding: products convolve the numerical carriers of
their factors (``TrigSeries.window``: the coefficients above ``CARRIER_GATE**2``
of the largest, so the exact zeros of one-sided series and the tails that only
underflow are skipped), projections act on coefficients, and no operation
drops a mode that the product's own rounding does not already bury.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrigSeries",
    "multiply",
    "sum_terms",
    "analytic_from_real_part",
    "divide_one_minus_zeta",
    "coeff_distance",
]

# Hard cap on truncation order; anything larger is a bug upstream.
MAX_ORDER = 1 << 16

# A coefficient at most this fraction of the largest one in its series is
# rounding noise: the numerical carrier of a series ends at its last mode above
# the gate.  The solver's Jacobian rows and the composed disc both stop there;
# products convolve down to its square (``TrigSeries.window``).
CARRIER_GATE = np.finfo(float).eps


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size % 2 != 1:
        raise ValueError("coefficient array must be 1-d with odd length 2N+1")
    if arr.size > 2 * MAX_ORDER + 1:
        raise ValueError(f"series order exceeds MAX_ORDER={MAX_ORDER}")
    return arr


@dataclass(frozen=True)
class TrigSeries:
    """Trigonometric polynomial ``sum c[n] zeta^n``, ``n in [-N, N]``.

    ``coeffs`` is stored in ascending mode order ``-N .. N`` and is
    read-only after construction.  The constructor validates and copies its
    input; the package's own operations build a fresh array and hand it over
    through ``_adopt``, which freezes it without a copy.
    """

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "TrigSeries":
        """The series of a 1-d complex array of odd length that nothing else writes to, frozen in place."""
        if arr.size > 2 * MAX_ORDER + 1:
            raise ValueError(f"series order exceeds MAX_ORDER={MAX_ORDER}")
        arr.setflags(write=False)
        out = object.__new__(cls)
        out.__dict__["coeffs"] = arr
        return out

    @property
    def window(self) -> tuple[int, int] | None:
        """Index range ``[lo, hi)`` of ``coeffs`` that products convolve: the numerical carrier.

        It runs from the first to the last coefficient whose modulus exceeds
        ``CARRIER_GATE**2`` times the largest.  A term of a product left out
        with it is below ``CARRIER_GATE`` times the product's rounding bound
        ``8 eps conv(|a|, |b|)`` at its largest mode, so the modes the product
        carries keep that bound; the geometric tails of Blaschke-type discs
        end there instead of running on into subnormals, whose arithmetic is
        several times slower.  A series with a non-finite coefficient keeps
        the range from the first to the last nonzero one, so an overflow
        reaches its product (and the non-finite gates) whole.  Computed on
        first use and kept; ``None`` for the zero series.
        """
        cache = self.__dict__
        if "_window" not in cache:
            mod = np.abs(self.coeffs)
            top = np.maximum.reduce(mod)
            idx = (mod > CARRIER_GATE**2 * top if math.isfinite(top) else self.coeffs).nonzero()[0]
            cache["_window"] = (int(idx[0]), int(idx[-1]) + 1) if idx.size else None
        return cache["_window"]

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_max: int = 0) -> "TrigSeries":
        return cls._adopt(np.zeros(2 * n_max + 1, dtype=complex))

    @classmethod
    def constant(cls, value: complex) -> "TrigSeries":
        return cls(np.array([value], dtype=complex))

    @classmethod
    def monomial(cls, n: int, value: complex = 1.0) -> "TrigSeries":
        """The single mode ``value * zeta^n``."""
        k = abs(int(n))
        arr = np.zeros(2 * k + 1, dtype=complex)
        arr[k + n] = value
        return cls._adopt(arr)

    @classmethod
    def from_mode_dict(cls, modes: dict[int, complex]) -> "TrigSeries":
        if not modes:
            return cls.zero()
        k = max(abs(int(n)) for n in modes)
        arr = np.zeros(2 * k + 1, dtype=complex)
        for n, v in modes.items():
            arr[k + int(n)] += v
        return cls._adopt(arr)

    @classmethod
    def geometric(cls, ratio: complex, n_max: int) -> "TrigSeries":
        """Truncated analytic geometric series ``sum ratio^n zeta^n``."""
        if abs(ratio) >= 1.0:
            raise ValueError("geometric ratio must have modulus < 1")
        arr = np.zeros(2 * n_max + 1, dtype=complex)
        arr[n_max:] = ratio ** np.arange(n_max + 1)
        return cls._adopt(arr)

    @classmethod
    def real_symmetrized(cls, coeffs) -> "TrigSeries":
        """Enforce ``c[n] = conj(c[-n])`` exactly by Hermitian averaging."""
        arr = _as_coeff_array(coeffs)
        arr = 0.5 * (arr + np.conj(arr[::-1]))
        return cls._adopt(arr)

    # ---- basic structure ----------------------------------------------

    @property
    def n_max(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coeff(self, n: int) -> complex:
        k = self.n_max
        if -k <= n <= k:
            return complex(self.coeffs[k + n])
        return 0.0 + 0.0j

    def pad_to(self, n_max: int) -> "TrigSeries":
        k = self.n_max
        if n_max < k:
            raise ValueError("pad_to cannot shrink; use truncate")
        if n_max == k:
            return self
        arr = np.zeros(2 * n_max + 1, dtype=complex)
        arr[n_max - k : n_max + k + 1] = self.coeffs
        return TrigSeries._adopt(arr)

    def truncate(self, n_max: int) -> "TrigSeries":
        """Drop modes with ``|n| > n_max`` (no renormalization)."""
        k = self.n_max
        if n_max >= k:
            return self
        return TrigSeries._adopt(self.coeffs[k - n_max : k + n_max + 1])

    def trimmed(self, tol: float = 0.0) -> "TrigSeries":
        """Shrink the carrier to the smallest window holding all modes > tol and every non-finite mode."""
        k = self.n_max
        mask = ~(np.abs(self.coeffs) <= tol) | np.isinf(self.coeffs)
        if not mask.any():
            return TrigSeries.zero()
        idx = np.nonzero(mask)[0]
        m = max(abs(int(idx[0]) - k), abs(int(idx[-1]) - k))
        return self.truncate(m)

    # ---- flags ----------------------------------------------------------

    def is_real(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))) <= tol)

    def is_analytic(self, tol: float = 0.0) -> bool:
        k = self.n_max
        if k == 0:
            return True
        return bool(np.max(np.abs(self.coeffs[:k])) <= tol)

    # ---- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        k = max(self.n_max, other.n_max)
        return TrigSeries._adopt(self.pad_to(k).coeffs + other.pad_to(k).coeffs)

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        k = max(self.n_max, other.n_max)
        return TrigSeries._adopt(self.pad_to(k).coeffs - other.pad_to(k).coeffs)

    def __neg__(self) -> "TrigSeries":
        return TrigSeries._adopt(-self.coeffs)

    def scale(self, factor: complex) -> "TrigSeries":
        return TrigSeries._adopt(self.coeffs * factor)

    def __mul__(self, other):
        if isinstance(other, TrigSeries):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def shift(self, m: int) -> "TrigSeries":
        """Multiply by the monomial ``zeta^m`` (exact mode shift)."""
        k = self.n_max
        nk = k + abs(m)
        arr = np.zeros(2 * nk + 1, dtype=complex)
        arr[nk - k + m : nk + k + 1 + m] = self.coeffs
        return TrigSeries._adopt(arr)

    def conjugate(self) -> "TrigSeries":
        """Pointwise complex conjugate on the circle: ``c[n] -> conj(c[-n])``."""
        return TrigSeries._adopt(np.conj(self.coeffs[::-1]))

    # ---- projections ----------------------------------------------------

    def negative_project(self) -> "TrigSeries":
        """Keep modes ``n < 0``."""
        arr = self.coeffs.copy()
        arr[self.n_max :] = 0.0
        return TrigSeries._adopt(arr)

    # ---- evaluation -------------------------------------------------------

    def value_at_one(self) -> complex:
        """The value at the pinned point ``zeta = 1``.

        Two sequential folds from 0, the positive modes from the top down and
        the negative modes from the bottom up, added to the mode-0
        coefficient: at 1 every Horner product is exact, so this is Horner's
        value to the bit (for finite coefficients).
        """
        k = self.n_max
        c = self.coeffs
        if k == 0:
            return c[0]
        pos = np.add.accumulate(np.concatenate(([0j], c[:k:-1])))[-1]
        neg = np.add.accumulate(np.concatenate(([0j], c[:k])))[-1]
        return c[k] + pos + neg

    def sample(self, num: int) -> np.ndarray:
        """Values at the ``num``-th roots of unity via an aliasing-free FFT."""
        if num < 2 * self.n_max + 1:
            raise ValueError("sample count must resolve all modes")
        buf = np.zeros(num, dtype=complex)
        buf[np.arange(-self.n_max, self.n_max + 1) % num] += self.coeffs
        vals = np.fft.ifft(buf)
        vals *= num  # in place: the sup norm of a long series holds one array of samples, not two
        return vals

    def sup_norm(self) -> float:
        """Max modulus over ``max(4N + 4, 64)`` circle samples."""
        return float(np.max(np.abs(self.sample(max(4 * self.n_max + 4, 64)))))

    def coeff_decay(self) -> float:
        """Max |c[n]| over the top quartile of |n|; 0 means fully resolved."""
        k = self.n_max
        if k == 0:
            return 0.0
        q = max(1, int(np.ceil(0.75 * k)))
        tail = np.concatenate([self.coeffs[: k - q + 1], self.coeffs[k + q :]])
        return float(np.max(np.abs(tail)))

    # ---- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "N": self.n_max,
            "re": [float(v) for v in self.coeffs.real],
            "im": [float(v) for v in self.coeffs.imag],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrigSeries":
        n = int(data["N"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.size != 2 * n + 1 or im.size != 2 * n + 1:
            raise ValueError("coefficient list length must be 2N+1")
        return cls(re + 1j * im)


# ---- module-level operations ------------------------------------------------

ONE_MINUS = TrigSeries.from_mode_dict({0: 1.0, 1: -1.0})


class Powers:
    """The powers ``base^n`` of one series, each built once and on demand.

    Power ``n`` is ``multiply(base^(n-1), base)``; power 0 is the constant 1
    and power 1 is ``base`` itself.  The plain boundary traces and disc
    composition read their powers here; the solver's factored traces read
    the products of its own table (``solver._Point``).
    """

    def __init__(self, base: TrigSeries):
        self._pows = [TrigSeries.constant(1.0), base]

    def __getitem__(self, n: int) -> TrigSeries:
        pows = self._pows
        while len(pows) <= n:
            pows.append(multiply(pows[-1], pows[1]))
        return pows[n]


def multiply(a: TrigSeries, b: TrigSeries) -> TrigSeries:
    """Product on the numerical carriers; the result carries order ``Na + Nb``.

    Only the windows of the factors (``TrigSeries.window``: the coefficients
    above ``CARRIER_GATE**2`` of each factor's largest, or every nonzero one
    where a coefficient is not finite) are convolved, so the exact zeros of
    one-sided series (``h``, its powers, ``conj h``) and the geometric tails
    below the gate cost nothing; every mode outside the sum of the two
    windows is exactly zero.  The gate is squared so that a term left out
    lies below ``CARRIER_GATE`` times the product's rounding bound ``8 eps
    conv(|a|, |b|)`` at its largest mode.  The product's own window is found
    from its coefficients, not taken as that sum, so the next product
    convolves the product's own carrier.
    """
    out = np.zeros(a.coeffs.size + b.coeffs.size - 1, dtype=complex)
    wa, wb = a.window, b.window
    if wa is not None and wb is not None:
        (lo_a, hi_a), (lo_b, hi_b) = wa, wb
        out[lo_a + lo_b : hi_a + hi_b - 1] = np.convolve(a.coeffs[lo_a:hi_a], b.coeffs[lo_b:hi_b])
    return TrigSeries._adopt(out)


def sum_terms(terms) -> TrigSeries:
    """``sum coef * series.shift(m)`` over the ``(series, coef, m)`` of ``terms``, in their order.

    Each scaled term is added into one buffer, which grows (zero-padded) when
    a term reaches past it, so every mode is the same sequence of additions
    from 0 as a chain of ``+``; that chain also adds the exact zeros of its
    padding, which change nothing (a sum that starts at +0 never reaches -0).
    ``terms`` may be a generator: no term is kept once it is added.  No terms
    give the zero series.
    """
    n, buf = 0, np.zeros(1, dtype=complex)
    for series, coef, m in terms:
        k = series.n_max
        if k + abs(m) > n:
            grown = np.zeros(2 * (k + abs(m)) + 1, dtype=complex)
            grown[k + abs(m) - n : k + abs(m) + n + 1] = buf
            n, buf = k + abs(m), grown
        lo = n - k + m
        buf[lo : lo + 2 * k + 1] += series.coeffs * coef
    return TrigSeries._adopt(buf)


def analytic_from_real_part(p: TrigSeries) -> TrigSeries:
    """The unique analytic g with ``Re g = p`` on the circle and ``g(1) = 0``.

    Requires ``p`` real-valued with ``p(1) = 0`` (to 1e-9 times ``max(1, max|p[n]|)``);
    the recipe is ``g[n] = 2 p[n]`` for ``n >= 1``, ``g[0] = p[0]``, then subtract ``g(1)``.
    """
    tol = 1e-9 * max(1.0, float(np.max(np.abs(p.coeffs))))
    if not p.is_real(tol):
        raise ValueError("real part data must be a real-valued series")
    at_one = complex(np.sum(p.coeffs))
    if abs(at_one) > tol:
        raise ValueError("real part data must vanish at zeta = 1")
    k = p.n_max
    arr = np.zeros(2 * k + 1, dtype=complex)
    arr[k] = p.coeffs[k]
    arr[k + 1 :] = 2.0 * p.coeffs[k + 1 :]
    arr[k] -= np.sum(arr)
    return TrigSeries._adopt(arr)


def divide_one_minus_zeta(a: TrigSeries, tol: float = 1e-9) -> TrigSeries:
    """Exact quotient ``a / (1 - zeta)`` for analytic ``a`` with ``a(1) = 0``.

    Coefficientwise this is a prefix sum; the top coefficient folds the
    (checked) residual ``a(1)``.
    """
    scalebound = max(1.0, float(np.max(np.abs(a.coeffs))))
    if not a.is_analytic(tol * scalebound):
        raise ValueError("quotient requires an analytic series")
    if abs(np.sum(a.coeffs)) > tol * scalebound:
        raise ValueError("quotient requires a(1) = 0")
    k = a.n_max
    if k == 0:
        return TrigSeries.zero()
    partial = np.cumsum(a.coeffs[k:])[:-1]
    arr = np.zeros(2 * (k - 1) + 1, dtype=complex)
    arr[k - 1 :] = partial
    return TrigSeries._adopt(arr)


def coeff_distance(a: TrigSeries, b: TrigSeries) -> float:
    """Max coefficientwise distance after aligning carriers."""
    k = max(a.n_max, b.n_max)
    return float(np.max(np.abs(a.pad_to(k).coeffs - b.pad_to(k).coeffs)))
