"""Polynomial perturbations of the defining function and anisotropic scaling.

A defining function is ``r(z, w) = -Re w + P(z, conj z) + theta`` where the
higher-order block ``theta`` collects terms

    z^i conj(z)^j p(z)                    with i + j = d + 1        (l = 0)
    z^i conj(z)^j (Im w)^l p(z, Im w)     with i + j = d - l, l >= 1
    theta1(Im w)                          vanishing to second order

each stored once per unordered index pair and Hermitian-symmetrized, so ``r``
is real by construction.  Internally everything is flattened to a trivariate
polynomial in ``(z, conj z, Im w)``, which keeps every partial derivative and
the anisotropic dilation ``r_t = t^-d * r o (t z, t^d w)`` exact.

Biholomorphic test maps ``H = (H1, H2)`` of the ambient space are polynomial
and graded by the same weights (z carries weight 1, w carries weight d); the
tangency order of ``H`` is the lowest weighted degree of ``H - Id`` minus 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .exceptions import ConfigError, integer, malformed, pair, real, strict_keys
from .model import ModelPolynomial, d_u, d_z, d_zbar, eval_mon
from .series import CARRIER_GATE, MAX_ORDER, Powers, TrigSeries, multiply, sum_terms

__all__ = [
    "PerturbationTerm",
    "DefiningFunction",
    "BiholoMap",
    "dilate",
    "dilate_map",
    "compose_disc",
    "x_norm_distance",
    "d_z",
    "d_zbar",
    "d_u",
    "eval_mon",
]

MAX_POLY_DEGREE = 8

def _scaled(mon: dict, factor: complex) -> dict:
    return {key: factor * c for key, c in mon.items()}


@dataclass(frozen=True)
class PerturbationTerm:
    """One stored block ``z^i conj(z)^j (Im w)^l p(z, Im w)``.

    ``coeffs`` maps ``(deg_z, deg_u) -> complex``; for ``l = 0`` the
    polynomial may not depend on ``Im w``.
    """

    i: int
    j: int
    l: int
    coeffs: dict[tuple[int, int], complex] = field(repr=False)

    def __post_init__(self):
        if self.i < 0 or self.j < 0 or self.l < 0:
            raise ConfigError("term indices must be nonnegative")
        clean = {}
        for (m, n), c in self.coeffs.items():
            m, n = int(m), int(n)
            if m > MAX_POLY_DEGREE or n > MAX_POLY_DEGREE:
                raise ConfigError(f"term polynomial degree exceeds {MAX_POLY_DEGREE}")
            if self.l == 0 and n != 0:
                raise ConfigError("l = 0 terms may not depend on Im w")
            if c != 0:
                clean[(m, n)] = complex(c)
        object.__setattr__(self, "coeffs", clean)


def _theta_dict(terms, theta1) -> dict:
    """Flatten stored blocks plus their Hermitian mirrors into one trivariate dict."""
    out: dict[tuple[int, int, int], complex] = {}

    def add(key, val):
        out[key] = out.get(key, 0.0 + 0.0j) + val
        if out[key] == 0:
            del out[key]

    for term in terms:
        for (m, n), c in term.coeffs.items():
            a, b, e = term.i + m, term.j, term.l + n
            add((a, b, e), c)
            add((b, a, e), np.conj(c))
    for deg, val in theta1.items():
        add((0, 0, deg), complex(val))
    return out


def _view(build):
    """A monomial view of a ``DefiningFunction``, built once per instance and returned read-only."""
    key = "_" + build.__name__

    @functools.wraps(build)
    def view(self):
        cache = self.__dict__
        if key not in cache:
            cache[key] = MappingProxyType(build(self))
        return cache[key]

    return view


@dataclass(frozen=True)
class DefiningFunction:
    """``r = -Re w + P + theta`` with polynomial higher-order block."""

    model: ModelPolynomial
    terms: tuple[PerturbationTerm, ...] = ()
    theta1: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        d = self.model.d
        seen = set()
        for term in self.terms:
            if term.l == 0:
                if term.i + term.j != d + 1:
                    raise ConfigError("l = 0 terms need i + j = d + 1")
            else:
                if term.l > d - 1:
                    raise ConfigError("terms need 1 <= l <= d - 1")
                if term.i + term.j != d - term.l:
                    raise ConfigError("l >= 1 terms need i + j = d - l")
            if (term.i, term.j, term.l) in seen or (term.j, term.i, term.l) in seen:
                raise ConfigError("store only one of each (i, j)/(j, i) pair")
            seen.add((term.i, term.j, term.l))
        th1 = {}
        for deg, val in self.theta1.items():
            deg = int(deg)
            if deg < 2:
                raise ConfigError("theta1 must vanish to second order in Im w")
            if deg > MAX_POLY_DEGREE:
                raise ConfigError(f"theta1 degree exceeds {MAX_POLY_DEGREE}")
            if abs(complex(val).imag) > 0 or not math.isfinite(complex(val).real):
                raise ConfigError("theta1 coefficients must be real and finite")
            if val != 0:
                th1[deg] = float(val)
        object.__setattr__(self, "theta1", th1)
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def pure(cls, model: ModelPolynomial) -> "DefiningFunction":
        return cls(model)

    # ---- trivariate views -------------------------------------------------

    def theta_mon(self) -> dict:
        return _theta_dict(self.terms, self.theta1)

    @_view
    def big_r_mon(self) -> dict:
        """Model plus theta: everything except the ``-Re w`` part."""
        out = dict(self.theta_mon())
        for key, a in self.model.mon.items():
            out[key] = out.get(key, 0.0 + 0.0j) + a
        return out

    # First and second Wirtinger derivatives as trivariate dicts.  With
    # w = s + i u the chain rule gives d/dw = (1/2) d/ds - (i/2) d/du and the
    # ``-Re w`` part contributes the constants.

    @_view
    def rz_mon(self) -> dict:
        return d_z(self.big_r_mon())

    @_view
    def rw_mon(self) -> dict:
        out = _scaled(d_u(self.big_r_mon()), -0.5j)
        out[(0, 0, 0)] = out.get((0, 0, 0), 0.0 + 0.0j) - 0.5
        return out

    @_view
    def rzz_mon(self) -> dict:
        return d_z(d_z(self.big_r_mon()))

    @_view
    def rzzbar_mon(self) -> dict:
        return d_zbar(d_z(self.big_r_mon()))

    @_view
    def rzw_mon(self) -> dict:
        return _scaled(d_u(d_z(self.big_r_mon())), -0.5j)

    @_view
    def rwzbar_mon(self) -> dict:
        return _scaled(d_u(d_zbar(self.big_r_mon())), -0.5j)

    # ---- pointwise evaluation ----------------------------------------------

    def eval_r(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        val = -w.real + eval_mon(self.big_r_mon(), z, np.conj(z), w.imag)
        return val.real if np.iscomplexobj(val) else val

    # ---- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        terms = []
        for t in self.terms:
            rows = [[m, n, float(c.real), float(c.imag)] for (m, n), c in sorted(t.coeffs.items())]
            terms.append({"i": t.i, "j": t.j, "l": t.l, "coeffs": rows})
        th1 = [[deg, val] for deg, val in sorted(self.theta1.items())]
        return {"terms": terms, "theta1": th1}

    @classmethod
    def from_dict(cls, model: ModelPolynomial, data: dict) -> "DefiningFunction":
        strict_keys(data, {"terms", "theta1"}, "perturbation")
        terms = []
        with malformed("malformed perturbation"):
            for item in data.get("terms", []):
                strict_keys(item, {"i", "j", "l", "coeffs"}, "perturbation term")
                coeffs = {(integer(m, "m"), integer(n, "n")): pair(c, "coefficient") for m, n, *c in item["coeffs"]}
                terms.append(PerturbationTerm(*(integer(item[key], key) for key in "ijl"), coeffs))
            theta1 = {integer(deg, "theta1 degree"): real(val, "theta1 value") for deg, val in data.get("theta1", [])}
        return cls(model, tuple(terms), theta1)


def dilate(r: DefiningFunction, t: float) -> DefiningFunction:
    """Exact coefficient form of ``t^-d * r o (t z, t^d w)``.

    A monomial of degree ``p`` in ``(z, conj z)`` and ``q`` in ``Im w`` picks
    up ``t^(p + dq - d)``: a stored coefficient of ``z^m (Im w)^n`` in the
    ``(i, j, l)`` block has ``p = i + j + m`` and ``q = l + n``, and
    ``theta1``'s degree-c coefficient has ``p = 0`` and ``q = c``.  The model
    part (``p = d``, ``q = 0``) is invariant.
    """
    if not (0 < t <= 1):
        raise ConfigError("dilation parameter must lie in (0, 1]")
    d = r.model.d

    def factor(p: int, q: int) -> float:
        return t ** (p + d * q - d)

    new_terms = []
    for term in r.terms:
        p0 = term.i + term.j
        scaled = {(m, n): c * factor(p0 + m, term.l + n) for (m, n), c in term.coeffs.items()}
        new_terms.append(PerturbationTerm(term.i, term.j, term.l, scaled))
    th1 = {deg: val * factor(0, deg) for deg, val in r.theta1.items()}
    return DefiningFunction(r.model, tuple(new_terms), th1)


def _coeff_weight(m: int) -> float:
    return float(sum(math.perm(m, o) for o in range(min(m, 4) + 1)))


def x_norm_distance(r: DefiningFunction) -> float:
    """Proxy distance of ``r`` from its model in the perturbation space.

    Max over stored blocks of the weighted coefficient sum (weights carry the
    derivative growth up to order 4 on the unit disc), plus the same for
    ``theta1``.  Zero exactly when the higher-order block vanishes;
    only relative comparisons are meaningful.
    """
    best = 0.0
    for term in r.terms:
        total = sum(abs(c) * _coeff_weight(m) * _coeff_weight(n) for (m, n), c in term.coeffs.items())
        best = max(best, total)
    th1 = sum(abs(v) * _coeff_weight(deg) for deg, v in r.theta1.items())
    return best + th1


@dataclass(frozen=True)
class BiholoMap:
    """Polynomial self-map ``H = (H1, H2)`` graded by weights (1, d).

    ``h1`` and ``h2`` map ``(j, l) -> coeff`` of ``z^j w^l``.  The map must
    fix the origin; its tangency order is the smallest weighted degree of
    ``H - Id`` minus one (infinite for the identity).
    """

    d: int
    h1: dict[tuple[int, int], complex] = field(repr=False)
    h2: dict[tuple[int, int], complex] = field(repr=False)

    def __post_init__(self):
        for name, mono, _ in self._graded():
            for (j, l), c in mono.items():
                if j < 0 or l < 0:
                    raise ConfigError("map exponents must be nonnegative")
                if j == 0 and l == 0 and c != 0:
                    raise ConfigError(f"{name} must fix the origin")
        object.__setattr__(self, "h1", {k: complex(v) for k, v in self.h1.items() if v != 0})
        object.__setattr__(self, "h2", {k: complex(v) for k, v in self.h2.items() if v != 0})

    def _graded(self) -> tuple:
        """``(name, monomials, weight)`` per component: ``H1`` has the weight 1 of z, ``H2`` the weight d of w."""
        return ("H1", self.h1, 1), ("H2", self.h2, self.d)

    @classmethod
    def identity(cls, d: int) -> "BiholoMap":
        return cls(d, {(1, 0): 1.0}, {(0, 1): 1.0})

    def tangency_order(self) -> float:
        """The lowest weighted degree ``j + d l`` of a monomial where ``H`` and the identity differ, minus 1."""
        pairs = zip(self._graded(), self.identity(self.d)._graded())
        degrees = [
            j + self.d * l
            for (_, mono, _), (_, ident, _) in pairs
            for j, l in mono.keys() | ident.keys()
            if mono.get((j, l), 0) != ident.get((j, l), 0)
        ]
        return min(degrees, default=math.inf) - 1

    def apply_numeric(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return tuple(sum(c * z**j * w**l for (j, l), c in mono.items()) for _, mono, _ in self._graded())

    def to_dict(self) -> dict:
        def rows(mono):
            return [[j, l, float(c.real), float(c.imag)] for (j, l), c in sorted(mono.items())]

        return {"d": self.d, **{name: rows(mono) for name, mono, _ in self._graded()}}

    @classmethod
    def from_dict(cls, data: dict) -> "BiholoMap":
        strict_keys(data, {"d", "H1", "H2"}, "map")
        with malformed("malformed map data"):
            h1 = {(integer(j, "j"), integer(l, "l")): pair(c, "H1") for j, l, *c in data["H1"]}
            h2 = {(integer(j, "j"), integer(l, "l")): pair(c, "H2") for j, l, *c in data["H2"]}
            return cls(integer(data["d"], "d"), h1, h2)


def dilate_map(h: BiholoMap, t: float) -> BiholoMap:
    """Conjugate ``H`` by the anisotropic dilation: ``H_t = phi_t^-1 o H o phi_t``.

    A ``z^j w^l`` coefficient of a component of weight ``k`` (1 for ``H1``,
    d for ``H2``) scales by ``t^(j + d l - k)``; a negative exponent means
    the map is not admissible for shrinking ``t`` and is rejected.
    """
    if not (0 < t <= 1):
        raise ConfigError("dilation parameter must lie in (0, 1]")
    scaled = []
    for name, mono, weight in h._graded():
        new = {}
        for (j, l), c in mono.items():
            expo = j + h.d * l - weight
            if expo < 0:
                raise ConfigError(f"{name} monomial z^{j} w^{l} scales by t^{expo} < 0")
            new[(j, l)] = c * t**expo
        scaled.append(new)
    return BiholoMap(h.d, *scaled)


def compose_disc(h_map: BiholoMap, disc) -> tuple[TrigSeries, TrigSeries]:
    """Polynomial composition ``H o (h, g)`` in coefficient space, kept to its numerical carrier.

    Each component is the exact composition, truncated at the disc's own order
    ``max(h.n_max, g.n_max)`` or at its last mode above ``CARRIER_GATE`` times
    its largest coefficient, whichever is higher.  Past the disc's order a
    near-identity map leaves rounding-level modes (its ``z^9`` takes an
    order-65 disc to order 576), and every later product would pay for them.
    A composition that fits inside the disc's order (the identity, a
    rotation) is exact to the bit.

    Every monomial of the map must stay within ``MAX_ORDER`` along the disc.
    """
    h, g = disc.h, disc.g
    order = max((j * h.n_max + l * g.n_max for j, l in {**h_map.h1, **h_map.h2}), default=0)
    if order > MAX_ORDER:
        raise ConfigError(f"the map composed with the disc has order {order} > MAX_ORDER={MAX_ORDER}")
    ph, pg = Powers(h), Powers(g)
    n_disc = max(h.n_max, g.n_max)
    out = []
    for mono in (h_map.h1, h_map.h2):
        acc = sum_terms((multiply(ph[j], pg[l]), c, 0) for (j, l), c in sorted(mono.items())).trimmed(0.0)
        gate = CARRIER_GATE * float(np.max(np.abs(acc.coeffs)))
        out.append(acc.truncate(max(n_disc, acc.trimmed(gate).n_max)))
    return out[0], out[1]
