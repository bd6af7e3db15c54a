"""Even-degree model hypersurface polynomials and their circle analysis.

A model is the real polynomial ``P(z, conj z) = sum_j a[j] z^j conj(z)^(d-j)``
with ``d`` even, half-degree pole bound ``d/2 <= k0 <= d-1``, Hermitian
coefficients ``a[j] = conj(a[d-j])`` supported on ``d-k0 <= j <= k0`` and
``a[k0] != 0``.  The central object is the polynomial ``Q`` defined by

    zeta^k0 * P_zzbar(1 - zeta, 1 - conj(zeta)) = (zeta - 1)^(d-2) * Q(zeta)

whose root split (inside / outside the unit circle) drives the kernel
dimensions and jet bases downstream.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, NumericalError, strict_keys
from .series import TrigSeries, multiply

__all__ = [
    "ModelPolynomial",
    "QFactorization",
    "compute_Q",
    "factor_Q",
    "check_subharmonic",
    "winding_number",
    "random_admissible_model",
]


# Highest accepted model degree.  A model lists 2 k0 - d + 1 coefficients and
# its curvature polynomial Q has degree about 2 d, so d is capped before either
# is built; 64 is eight times the largest degree the tests, examples and
# benchmarks use.  How far a disc of degree d can be resolved is checked
# separately, against the truncation order (``RunConfig``).
MAX_DEGREE = 64


@dataclass(frozen=True)
class ModelPolynomial:
    """Hermitian coefficient data for one model hypersurface."""

    d: int
    k0: int
    alpha: dict[int, complex] = field(repr=False)

    def __post_init__(self):
        d, k0 = self.d, self.k0
        if d < 2 or d % 2 != 0:
            raise ConfigError("degree d must be even and >= 2")
        if d > MAX_DEGREE:
            raise ConfigError(f"degree d = {d} exceeds the cap {MAX_DEGREE}")
        if not (d // 2 <= k0 <= d - 1):
            raise ConfigError("k0 must satisfy d/2 <= k0 <= d-1")
        full = {}
        for j, v in self.alpha.items():
            j = int(j)
            if not (d - k0 <= j <= k0):
                raise ConfigError(f"coefficient index {j} outside [d-k0, k0]")
            full[j] = complex(v)
            if not cmath.isfinite(full[j]):
                raise ConfigError(f"coefficient a[{j}] must be finite")
        for j in range(d - k0, k0 + 1):
            full.setdefault(j, 0.0 + 0.0j)
        for j in list(full):
            if abs(full[j] - np.conj(full[d - j])) > 1e-14 * max(1.0, abs(full[j])):
                raise ConfigError("coefficients must satisfy a[j] = conj(a[d-j])")
        if full[k0] == 0:
            raise ConfigError("leading coefficient a[k0] must be nonzero")
        object.__setattr__(self, "alpha", dict(sorted(full.items())))

    @classmethod
    def from_upper(cls, d: int, k0: int, upper: dict[int, complex]) -> "ModelPolynomial":
        """Build from coefficients with ``j >= d/2``; the mirror is derived."""
        alpha: dict[int, complex] = {}
        for j, v in upper.items():
            j = int(j)
            if 2 * j < d:
                raise ConfigError("from_upper takes only indices with j >= d/2")
            if 2 * j == d and abs(complex(v).imag) > 1e-14 * max(1.0, abs(v)):
                raise ConfigError("the middle coefficient must be real")
            alpha[j] = complex(v)
            alpha[d - j] = np.conj(complex(v))
        return cls(d, k0, alpha)

    def gamma(self, j: int) -> complex:
        return j * (self.d - j) * self.alpha.get(j, 0.0)

    # ---- pointwise evaluation (vectorized over z) ----------------------

    def eval_Pz(self, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        return sum(j * a * z ** (j - 1) * zb ** (self.d - j) for j, a in self.alpha.items() if j >= 1)

    def eval_Pzbar(self, z):
        return np.conj(self.eval_Pz(z))

    def eval_Pzzbar(self, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        return sum(
            j * (self.d - j) * a * z ** (j - 1) * zb ** (self.d - j - 1)
            for j, a in self.alpha.items()
            if 1 <= j <= self.d - 1
        )

    # ---- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        entries = []
        for j, a in self.alpha.items():
            if 2 * j >= self.d:
                entries.append({"j": j, "re": float(a.real), "im": float(a.imag)})
        return {"d": self.d, "k0": self.k0, "alpha": entries}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelPolynomial":
        strict_keys(data, {"d", "k0", "alpha"}, "model")
        upper: dict[int, complex] = {}
        try:
            d = int(data["d"])
            k0 = int(data["k0"])
            for item in data["alpha"]:
                strict_keys(item, {"j", "re", "im"}, "alpha entry")
                j = int(item["j"])
                if 2 * j < d:
                    raise ConfigError("model data lists only j >= d/2; mirrors are derived")
                upper[j] = float(item["re"]) + 1j * float(item.get("im", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed model data: {exc}") from None
        return cls.from_upper(d, k0, upper)


def check_subharmonic(model: ModelPolynomial, n_radii: int = 64, n_angles: int = 256) -> float:
    """Minimum of ``P_zzbar(z) / |z|^(d-2)`` over a polar grid.

    By homogeneity the ratio depends only on the angle; the radial sweep is a
    consistency check, not extra information.  A positive return value
    certifies strict subharmonicity away from the origin.
    """
    n_radii = max(64, int(n_radii))
    n_angles = max(64, int(n_angles))
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    ratio_circle = model.eval_Pzzbar(angles).real
    radii = np.linspace(1.0 / n_radii, 1.0, n_radii)
    grid = np.outer(radii, angles)
    ratio_grid = model.eval_Pzzbar(grid).real / np.abs(grid) ** (model.d - 2)
    if np.max(np.abs(ratio_grid - ratio_circle[None, :])) > 1e-8 * max(
        1.0, float(np.max(np.abs(ratio_circle)))
    ):
        raise NumericalError("homogeneity violated in curvature ratio (internal fault)")
    return float(np.min(ratio_circle))


def compute_Q(model: ModelPolynomial) -> TrigSeries:
    """The analytic polynomial ``Q`` extracted from the boundary curvature.

    ``Q(zeta) = sum_j (-1)^(j-1) * gamma[j] * zeta^(k0 + j + 1 - d)`` with
    ``gamma[j] = j (d-j) a[j]``; the constant term is always zero (a forced
    root at the origin) and ``deg Q = 2 k0 + 1 - d``.
    """
    d, k0 = model.d, model.k0
    deg = 2 * k0 + 1 - d
    coeffs = np.zeros(2 * deg + 1, dtype=complex)
    for j in range(d - k0, k0 + 1):
        coeffs[deg + (k0 + j + 1 - d)] += (-1) ** (j - 1) * model.gamma(j)
    return TrigSeries(coeffs)


@dataclass(frozen=True)
class QFactorization:
    """Root split ``Q = C * zeta * s(zeta) * t(zeta)``.

    ``s`` collects the factors ``(q - zeta)`` over roots outside the closed
    unit disc, ``t`` the factors ``(r - zeta)^m`` over roots inside, both
    excluding the forced root at the origin.
    """

    constant: complex
    roots_inside: tuple[tuple[complex, int], ...]
    roots_outside: tuple[complex, ...]

    @property
    def ell0(self) -> int:
        return sum(m for _, m in self.roots_inside)

    @property
    def i0(self) -> int:
        return len(self.roots_outside)

    @property
    def ell1(self) -> int:
        return len(self.roots_inside)

    def s_poly(self) -> TrigSeries:
        out = TrigSeries.constant(1.0)
        for q in self.roots_outside:
            out = multiply(out, TrigSeries.from_mode_dict({0: q, 1: -1.0}))
        return out

    def t_poly(self) -> TrigSeries:
        out = TrigSeries.constant(1.0)
        for r, m in self.roots_inside:
            factor = TrigSeries.from_mode_dict({0: r, 1: -1.0})
            for _ in range(m):
                out = multiply(out, factor)
        return out

    def q_poly(self) -> TrigSeries:
        return multiply(self.s_poly(), self.t_poly()).shift(1).scale(self.constant)


def _polish_root(poly: np.ndarray, root: complex, multiplicity: int) -> complex:
    # multiplicity-aware Newton steps on the power-basis polynomial
    deriv = np.polyder(poly)
    for _ in range(8):
        val = np.polyval(poly, root)
        dval = np.polyval(deriv, root)
        if dval == 0:
            break
        step = multiplicity * val / dval
        root = root - step
        if abs(step) < 1e-15 * max(1.0, abs(root)):
            break
    return root


def factor_Q(model: ModelPolynomial, circle_margin: float = 1e-8) -> QFactorization:
    """Factor ``Q`` over its nonzero roots and split them across the circle.

    Roots come from the companion matrix with a Newton polish; any root with
    modulus within ``circle_margin`` of 1 means the boundary curvature
    vanishes on the circle: the input breaks the paper's hypotheses, a
    ``ConfigError``.  For an admissible model the counts must balance:
    ``ell0 = i0 = k0 - d/2``.
    """
    d, k0 = model.d, model.k0
    q = compute_Q(model)
    deg = 2 * k0 + 1 - d
    # power-basis coefficients of Q/zeta, highest power first
    power = np.array([q.coeff(p) for p in range(deg, 0, -1)], dtype=complex)
    expected = k0 - d // 2
    if deg == 1:
        roots = np.array([], dtype=complex)
    else:
        roots = np.roots(power)
    # cluster numerically coincident roots into multiplicities
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda v: (abs(v), v.real, v.imag)):
        for cl in clusters:
            if abs(r - cl[0]) < 1e-6 * max(1.0, abs(cl[0])):
                cl.append(r)
                break
        else:
            clusters.append([r])
    inside: list[tuple[complex, int]] = []
    outside: list[complex] = []
    scale = max(1.0, float(np.max(np.abs(power))))
    for cl in clusters:
        m = len(cl)
        r = _polish_root(power, complex(np.mean(cl)), m)
        if abs(np.polyval(power, r)) > 1e-10 * scale * max(1.0, abs(r)) ** (deg - 1):
            raise NumericalError("root polish failed to converge")
        if abs(abs(r) - 1.0) <= circle_margin:
            raise ConfigError(
                f"[hypothesis] root {r} lies within {circle_margin} of the unit circle"
            )
        if abs(r) < 1.0:
            inside.append((r, m))
        else:
            outside.extend([r] * m)
    ell0 = sum(m for _, m in inside)
    if ell0 != expected or len(outside) != expected:
        raise NumericalError(
            f"root split {ell0}/{len(outside)} does not match k0 - d/2 = {expected}"
        )
    # leading coefficient of zeta*s*t is (-1)^(ell0+i0); match it to Q's
    lead = power[0] if deg >= 1 else 0.0
    constant = complex(lead * (-1.0) ** (ell0 + len(outside)))
    fac = QFactorization(
        constant=constant,
        roots_inside=tuple(inside),
        roots_outside=tuple(outside),
    )
    from .series import coeff_distance

    if coeff_distance(fac.q_poly(), q) > 1e-9 * scale:
        raise NumericalError("reassembled factorization does not reproduce Q")
    return fac


def winding_number(series: TrigSeries, n_samples: int | None = None) -> int:
    """Total argument increment around the circle, in whole turns.

    The symbol must stay away from zero (min modulus > 1e-8), otherwise the
    winding is ill-defined at this resolution.
    """
    num = n_samples or max(4 * series.n_max, 256)
    vals = series.sample(num)
    if np.min(np.abs(vals)) <= 1e-8:
        raise NumericalError("symbol vanishes on the circle; winding undefined")
    ang = np.unwrap(np.angle(vals))
    closing = np.angle(vals[0] / vals[-1]) + ang[-1] - ang[0]
    turns = closing / (2 * np.pi)
    n = int(np.round(turns))
    if abs(turns - n) > 0.1:
        raise NumericalError("winding number did not converge to an integer")
    return n


def random_admissible_model(rng: np.random.Generator, d: int, k0: int) -> ModelPolynomial:
    """Draw a random admissible model by rejection.

    Coefficients are complex Gaussians (Hermitian-symmetrized); the rotation
    invariant part ``lambda |z|^d`` is raised geometrically until the
    subharmonicity margin is positive, and the root split is retried on the
    astronomically rare event of a root pinned to the circle.
    """
    half = d // 2
    for _ in range(64):
        upper: dict[int, complex] = {}
        for j in range(max(half, d - k0), k0 + 1):
            if j == half:
                upper[j] = complex(rng.standard_normal())
            else:
                upper[j] = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(upper[k0]) < 1e-3:
            continue
        lam = 0.0
        for _ in range(40):
            trial = dict(upper)
            trial[half] = trial.get(half, 0.0) + lam
            if abs(trial[k0]) == 0.0:
                break
            candidate = ModelPolynomial.from_upper(d, k0, trial)
            if check_subharmonic(candidate) > 1e-6:
                try:
                    factor_Q(candidate)
                except (ConfigError, NumericalError):
                    break  # circle-pinned root: redraw
                return candidate
            lam = 0.5 if lam == 0.0 else 2.0 * lam
    raise NumericalError("failed to sample an admissible model")
