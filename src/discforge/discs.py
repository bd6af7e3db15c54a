"""Stationary disc construction and residual diagnostics.

A lifted boundary disc is a triple ``(c, h, g)`` of circle series: a real
nonvanishing weight ``c``, and analytic components ``h`` (the z-coordinate)
and ``g`` (the w-coordinate lift), both pinned to 0 at ``zeta = 1``.  For a
model surface the family is explicit: ``h = v (1 - zeta) / (1 - conj(a) zeta)``
with the Blaschke parameter ``a = mobius_a(b)`` tied to the weight parameter
``b``, and ``g`` recovered from its real boundary part ``P(h, conj h)``.

``stationarity_residual`` measures how far a candidate disc is from
stationarity for a given defining function by plain boundary substitution
into the three defect functionals; it makes no structural assumptions, so it
works as an independent check on discs produced by any code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericalError, malformed, pair, real, strict_keys
from .model import ModelPolynomial
from .perturb import DefiningFunction
from .series import ONE_MINUS, Powers, TrigSeries, analytic_from_real_part, sum_terms

__all__ = [
    "ModelDiscParams",
    "LiftedDisc",
    "mobius_a",
    "model_disc",
    "stationarity_residual",
    "boundary_powers",
    "substitute_boundary",
    "weight_series",
]

PIN_TOL = 1e-12


def mobius_a(b: complex) -> complex:
    """Blaschke parameter of the model disc family.

    The root of ``b a^2 + a + conj(b) = 0`` inside the unit disc, in the
    cancellation-free form ``a = -2 conj(b) / (1 + sqrt(1 - 4 |b|^2))`` (so
    ``a = -conj(b) (1 + |b|^2) + O(|b|^5)`` for small ``b``); requires
    ``|b| < 1/2``.  The geometric ratio of the disc component ``h`` is the
    conjugate ``conj(a)``: that is the value killing the inside pole of
    ``zeta c' conj(h)`` for the weight built from ``b``.
    """
    b = complex(b)
    disc = 1.0 - 4.0 * abs(b) ** 2
    if disc <= 0:
        raise ConfigError("mobius_a requires |b| < 1/2")
    return -2.0 * np.conj(b) / (1.0 + math.sqrt(disc))


@dataclass(frozen=True)
class ModelDiscParams:
    """Parameters of the explicit model disc family."""

    b: complex
    v: complex
    theta: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each check too
        if not abs(self.b) < 0.5:
            raise ConfigError("model disc parameter needs |b| < 1/2")
        if not 0 < abs(self.v) < math.inf or not math.isfinite(self.theta):
            raise ConfigError("model disc needs a finite v != 0 and a finite theta")

    def to_dict(self) -> dict:
        return {
            "b": [self.b.real, self.b.imag],
            "v": [self.v.real, self.v.imag],
            "theta": self.theta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelDiscParams":
        strict_keys(data, {"b", "v", "theta"}, "disc parameter")
        with malformed("malformed disc parameters"):
            return cls(pair(data["b"], "b"), pair(data["v"], "v"), real(data.get("theta", 0.0), "theta"))


@dataclass(frozen=True)
class LiftedDisc:
    """Boundary disc ``(c, h, g)`` with real weight and pinned components."""

    c: TrigSeries
    h: TrigSeries
    g: TrigSeries

    def __init__(self, c, h, g, validate: bool = True):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        if not validate:
            return
        if not c.is_real(PIN_TOL):
            raise ConfigError("disc weight c must be real on the circle")
        if not h.is_analytic(PIN_TOL) or not g.is_analytic(PIN_TOL):
            raise ConfigError("disc components h, g must be analytic")
        if abs(h.value_at_one()) > PIN_TOL or abs(g.value_at_one()) > PIN_TOL:
            raise ConfigError("disc components must vanish at zeta = 1")
        samples = c.sample(max(4 * c.n_max + 4, 64)).real
        if samples.min() <= 1e-10:
            raise ConfigError("disc weight c must be strictly positive")

    @classmethod
    def computed(cls, c, h, g, what: str) -> "LiftedDisc":
        """A disc the package computed; a failed check is a ``NumericalError`` naming ``what``.

        The model disc, a solved disc and a composed disc come through here:
        their components are the package's output, not the user's input.
        """
        try:
            return cls(c, h, g)
        except ConfigError as exc:
            raise NumericalError(f"{what} fails its pin check: {exc}") from None

    def center(self) -> tuple[complex, complex]:
        return complex(self.h.coeff(0)), complex(self.g.coeff(0))

    def to_dict(self) -> dict:
        return {"c": self.c.to_dict(), "h": self.h.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "LiftedDisc":
        strict_keys(data, {"c", "h", "g"}, "disc")
        with malformed("malformed disc data"):
            return cls(*(TrigSeries.from_dict(data[key]) for key in "chg"))

    def boundary_samples(self, num: int) -> np.ndarray:
        """Structured boundary trace on ``num`` equispaced angles.

        Each component is sampled on the smallest multiple of ``num`` points
        that resolves its modes, and every ``step``-th value is kept.
        """

        def trace(series: TrigSeries) -> np.ndarray:
            step = math.ceil((2 * series.n_max + 1) / num)
            return series.sample(num * step)[::step]

        out = np.zeros(num, dtype=[("angle", float), ("c", float), ("h", complex), ("g", complex)])
        out["angle"] = 2.0 * np.pi * np.arange(num) / num
        out["c"] = trace(self.c).real
        out["h"] = trace(self.h)
        out["g"] = trace(self.g)
        return out


def weight_series(b: complex, k0: int) -> TrigSeries:
    """The frozen disc weight ``c = (conj(b)/zeta + 1 + b zeta)^k0``."""
    return Powers(TrigSeries.from_mode_dict({-1: np.conj(b), 0: 1.0, 1: b}))[k0]


def model_disc(model: ModelPolynomial, params: ModelDiscParams, n_max: int = 128) -> LiftedDisc:
    """Explicit stationary disc of a model surface.

    Truncation leaves ``h(1)`` of size ``|a|^n_max``, and rounding leaves
    ``g(1)`` of size ``eps * max|g|``; both constants are pulled back out so
    the pinning is exact at the stated tolerance.  The disc is computed, so a
    check it fails is numerical (``LiftedDisc.computed``): the weight
    ``(1 - 2|b|)^k0`` of an accepted ``|b|`` near 1/2 can fall under the
    positivity gate.
    """
    if n_max < 4:
        raise ConfigError("disc order must be at least 4")
    ratio = np.conj(mobius_a(params.b))
    v = params.v * np.exp(1j * params.theta)
    geo = TrigSeries.geometric(ratio, n_max) if ratio != 0 else TrigSeries.constant(1.0)
    h = (geo * ONE_MINUS).truncate(n_max) * v
    h = h + TrigSeries.constant(-h.value_at_one())
    c = weight_series(params.b, model.k0)

    ph = Powers(h)
    p = sum_terms((ph[j] * ph[model.d - j].conjugate(), alpha, 0) for j, alpha in model.alpha.items())
    if not np.isfinite(p.coeffs).all():
        raise NumericalError(f"model disc overflows: P(h, conj h) is not finite at |v| = {abs(params.v):.3e}")
    g = analytic_from_real_part(TrigSeries.real_symmetrized(p.coeffs))
    g = g + TrigSeries.constant(-g.value_at_one())
    return LiftedDisc.computed(c, h, g, "model disc")


def boundary_powers(h: TrigSeries, g: TrigSeries) -> tuple[Powers, Powers, Powers]:
    """The powers of ``h``, ``conj h`` and ``Im g`` that ``substitute_boundary`` reads."""
    return Powers(h), Powers(h.conjugate()), Powers((g - g.conjugate()) * (-0.5j))


def substitute_boundary(mon: dict, pows: tuple[Powers, Powers, Powers]) -> TrigSeries:
    """Boundary trace of a trivariate polynomial along ``(h, conj h, Im g)``.

    ``pows`` comes from ``boundary_powers(h, g)``; every substitution at the
    same disc can share it, so each power is built once.  The terms are added
    into one buffer, in the order of ``mon`` (``series.sum_terms``).
    """
    ph, phb, pu = pows

    def terms():
        for (a, b, e), coeff in mon.items():
            term = ph[a] * phb[b]
            yield (term * pu[e] if e else term), coeff, 0

    return sum_terms(terms())


def stationarity_residual(disc: LiftedDisc, defn: DefiningFunction) -> tuple[float, float, float]:
    """Sup norms of the three stationarity defects by plain substitution.

    The first two are the negative-frequency parts of ``zeta^k0 c r_z(f)``
    and ``zeta^k0 c r_w(f)``, the third is the boundary trace of ``r(f)``
    itself.  Each sup norm is sampled (``TrigSeries.sup_norm``) on ``max(4N
    + 4, 64)`` circle points, with ``N`` that defect's own order; so the
    same disc carried to a different order (a composed disc kept to its
    numerical carrier, say) is sampled on a different grid, and its
    residual moves at the sampling error.
    """
    pows = boundary_powers(disc.h, disc.g)
    rz = substitute_boundary(defn.rz_mon(), pows)
    rw = substitute_boundary(defn.rw_mon(), pows)
    big_r = substitute_boundary(defn.big_r_mon(), pows)
    del pows  # the powers are the largest series here: none is held through the sampling

    weighted_z = (disc.c * rz).shift(defn.model.k0)
    weighted_w = (disc.c * rw).shift(defn.model.k0)
    res1 = weighted_z.negative_project().sup_norm()
    res2 = weighted_w.negative_project().sup_norm()
    res3 = (big_r - (disc.g + disc.g.conjugate()) * 0.5).sup_norm()
    return res1, res2, res3
