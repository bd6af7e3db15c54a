"""Boundary jets at 1, the derivative-basis matrix, and center rigidity.

The disc families produced by the solver are distinguished by finitely many
derivatives of the first component at the pinned boundary point 1.  This
module assembles the matrix of that jet map on the explicit kernel-shape
basis (a confluent Vandermonde matrix after rescaling, hence provably
invertible away from degenerate root configurations), the closed-form
surjectivity gap of the one-parameter boundary family, and an end-to-end
experiment: conjugate a near-identity polynomial map by the anisotropic
dilation, push a solved disc through it, and measure how far the composed
disc drifts from the original in residual, jet, and coefficient distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .discs import LiftedDisc, ModelDiscParams, model_disc, stationarity_residual
from .exceptions import ConfigError, NumericalError
from .model import ModelPolynomial, QFactorization, d_z, eval_mon
from .perturb import (
    BiholoMap,
    DefiningFunction,
    compose_disc,
    dilate,
    dilate_map,
    x_norm_distance,
)
from .series import ONE_MINUS, TrigSeries, coeff_distance, multiply
from .solver import SolverOptions, binomial_tail, solve_newton

__all__ = [
    "JetMatrix",
    "jet_map",
    "jet_matrix",
    "jet_reconstruct",
    "surjectivity_gap",
    "determination_experiment",
]


def jet_map(h: TrigSeries, n: int) -> np.ndarray:
    """The vector of the first ``n`` derivatives of ``h`` at 1.

    ``h`` must be analytic.  Order ``j`` is ``sum_m c[m] m (m-1) ... (m-j+1)``
    over the modes ``m >= j``, summed in mode order from 0.
    """
    if n < 1:
        raise ConfigError("jet order must be >= 1")
    if not h.is_analytic(1e-13 * max(1.0, float(np.max(np.abs(h.coeffs))))):
        raise ValueError("jet_map requires an analytic series")
    coeffs = h.coeffs[h.n_max :]
    modes = np.arange(coeffs.size)
    fall = np.ones(coeffs.size)
    out = np.empty(n, dtype=complex)
    for order in range(1, n + 1):
        fall *= modes - order + 1
        out[order - 1] = np.add.accumulate(np.concatenate(([0j], coeffs[order:] * fall[order:])))[-1]
    return out


@dataclass(frozen=True)
class JetMatrix:
    """Matrix of the (ell0+2)-jet at 1 on the kernel-shape basis.

    ``entries`` holds the raw columns; ``reduced`` the same matrix after
    stripping row factorials and root denominators, which exposes a confluent
    Vandermonde structure in ``chi = conj(root)/(1 - conj(root))`` whose
    determinant is nonzero whenever the roots are distinct and inside the
    disc.  ``scale`` carries the stripped factors, so
    ``determinant = scale * reduced_determinant``.
    """

    n: int
    entries: np.ndarray = field(repr=False)
    determinant: complex
    condition_number: float
    reduced: np.ndarray = field(repr=False)
    reduced_determinant: complex
    scale: complex


def jet_matrix(model: ModelPolynomial, qfac: QFactorization) -> JetMatrix:
    """Assemble the jet matrix on the basis attached to the inside roots.

    Basis elements are ``(1-zeta)``, ``(1-zeta) zeta`` and, per inside root
    ``r`` of multiplicity ``m``, the tails ``(1-zeta)/(1-conj(r) zeta)^(i+1)``
    for ``i < m``.  Writing ``v = (1-zeta) u`` turns every derivative at 1
    into ``v^(n)(1) = -n u^(n-1)(1)``, which has a closed form per column.
    The matrix depends on ``qfac`` alone; it is built once per factorization
    (the last one is kept), and its arrays are read-only.
    """
    return _jet_matrix(qfac)


# A jet round trip and a determination experiment read one factorization's
# jet matrix and jet basis several times.  Each cache keeps the last
# factorization's only: a basis (up to 2^16 modes per tail) goes as soon as
# another factorization asks.
@functools.lru_cache(maxsize=1)
def _jet_matrix(qfac: QFactorization) -> JetMatrix:
    size = qfac.ell0 + 2
    for root, _ in qfac.roots_inside:
        if abs(1 - root) < 1e-6:
            raise NumericalError("inside root too close to 1: jet matrix ill-conditioned")

    raw = np.zeros((size, size), dtype=complex)
    reduced = np.zeros((size, size), dtype=complex)
    raw[0, 0] = -1.0
    raw[0, 1] = -1.0
    reduced[0, 0] = 1.0
    reduced[0, 1] = 1.0
    if size >= 2:
        raw[1, 1] = -2.0
        reduced[1, 1] = 1.0

    scale = 1.0 + 0.0j
    for n in range(1, size + 1):
        scale *= -n * math.factorial(n - 1)
    col = 2
    for root, mult in qfac.roots_inside:
        rbar = np.conj(root)
        chi = rbar / (1 - rbar)
        for i in range(mult):
            scale /= (1 - rbar) ** (i + 1)
            for n in range(1, size + 1):
                m = n - 1
                u_m = (
                    math.factorial(i + m)
                    / math.factorial(i)
                    * rbar**m
                    / (1 - rbar) ** (i + m + 1)
                )
                raw[n - 1, col] = -n * u_m
                reduced[n - 1, col] = math.comb(i + m, m) * chi**m
            col += 1

    det = complex(np.linalg.det(raw))
    row_norms = float(np.prod(np.linalg.norm(raw, axis=1)))
    if abs(det) <= 1e-12 * row_norms:
        raise NumericalError("jet matrix numerically singular: model anomaly")
    out = JetMatrix(
        n=size,
        entries=raw,
        determinant=det,
        condition_number=float(np.linalg.cond(raw)),
        reduced=reduced,
        reduced_determinant=complex(np.linalg.det(reduced)),
        scale=scale,
    )
    raw.setflags(write=False)
    reduced.setflags(write=False)
    return out


def _tail_truncation(qfac: QFactorization, size: int) -> int:
    if not qfac.roots_inside:
        return 4
    top = max(abs(r) for r, _ in qfac.roots_inside)
    n = 64
    while n**size * top**n > 1e-14 and n < (1 << 16):
        n *= 2
    if n >= (1 << 16):
        raise NumericalError("inside root too close to the circle for jet reconstruction")
    return n


@functools.lru_cache(maxsize=1)
def _jet_basis(qfac: QFactorization) -> tuple[TrigSeries, ...]:
    """The series of ``jet_matrix``'s columns: ``(1-zeta)``, ``(1-zeta) zeta`` and the truncated tails."""
    n_tail = _tail_truncation(qfac, qfac.ell0 + 2)
    basis = [ONE_MINUS, multiply(ONE_MINUS, TrigSeries.from_mode_dict({1: 1.0}))]
    for root, mult in qfac.roots_inside:
        basis += [multiply(ONE_MINUS, binomial_tail(root, i, n_tail)) for i in range(mult)]
    return tuple(basis)


def jet_reconstruct(model: ModelPolynomial, qfac: QFactorization, jets) -> TrigSeries:
    """The unique element of the basis span whose jet at 1 is ``jets``.

    Like the jet matrix, the basis series are built once per factorization.
    """
    jm = jet_matrix(model, qfac)
    jets = np.asarray(jets, dtype=complex)
    if jets.shape != (jm.n,):
        raise ConfigError(f"jet vector must have length {jm.n}")
    try:
        coeffs = np.linalg.solve(jm.entries, jets)
    except np.linalg.LinAlgError:
        raise NumericalError("jet matrix singular") from None
    basis = _jet_basis(qfac)
    out = basis[0] * coeffs[0]
    for shape, coef in zip(basis[1:], coeffs[1:]):
        out = out + shape * coef
    return out.trimmed(0.0)


def surjectivity_gap(model: ModelPolynomial, theta: float) -> float:
    """The gap ``|I1|^2 - |I2|^2`` of the two boundary integrals at ``theta``.

    ``I1`` and ``I2`` are evaluated in closed form from the model
    coefficients and cross-checked against circle quadrature of the contour
    integrals they came from; the derivative of the rotated boundary family
    is surjective exactly when the gap is nonzero.
    """
    d, k0 = model.d, model.k0
    i1 = 0.0 + 0.0j
    for j, a in model.alpha.items():
        i1 -= math.comb(d - 1, d - 1 - j) * j * a * np.exp(1j * (2 * j - d - 1) * theta)
    # the second sum is supported on j <= d-3; for k0 > d-3 the upper limit
    # truncates there, otherwise it runs over the full coefficient range
    upper = min(k0, d - 3)
    i2 = 0.0 + 0.0j
    for j in range(d - k0, upper + 1):
        a = model.alpha.get(j, 0.0 + 0.0j)
        i2 += math.comb(d - 1, d - 3 - j) * (d - j) * a * np.exp(1j * (2 * j - d + 1) * theta)

    k = 256
    zeta = np.exp(2j * np.pi * np.arange(k) / k)
    z = (1 - zeta) * np.exp(1j * theta)
    p_z = eval_mon(d_z(model.mon), z, np.conj(z), 0.0)
    quad1 = complex(np.mean(p_z * zeta))
    quad2 = complex(np.mean(np.conj(p_z) * zeta**2))
    tol = 1e-10 * max(1.0, abs(i1), abs(i2))
    if abs(quad1 - i1) > tol or abs(quad2 - i2) > tol:
        raise NumericalError("closed-form boundary integrals disagree with quadrature")
    return float(abs(i1) ** 2 - abs(i2) ** 2)


def _boundary_defect(defn: DefiningFunction, h_map: BiholoMap) -> float:
    """Worst violation of the zero set of ``defn`` under ``h_map``, NaN if any sample is NaN.

    Sample points on 24 angles, at 4 radii and 3 values of ``Im w``, are
    placed exactly on the zero set by solving the graph equation for the real
    part of w; all 288 are evaluated at once.
    """
    angles = np.exp(2j * np.pi * np.arange(24) / 24)
    z = np.repeat([0.25, 0.5, 0.75, 1.0], 3)[:, None] * angles
    u = np.tile([0.0, 0.05, -0.05], 4)[:, None]
    w = defn.eval_r(z, 1j * u) + 1j * u
    z2, w2 = h_map.apply_numeric(z, w)
    return float(np.max(np.abs(defn.eval_r(z2, w2))))


def _pair(value: complex) -> list:
    return [float(np.real(value)), float(np.imag(value))]


# Largest ``x_norm_distance`` of the dilated defining function a determination
# experiment accepts.
X_NORM_THRESHOLD = 0.1


def determination_experiment(
    r: DefiningFunction,
    h_map: BiholoMap,
    qfac: QFactorization,
    opts: SolverOptions = SolverOptions(),
    t: float | None = None,
    b_values: tuple = (0.0, 0.2),
    boundary_tol: float = 1e-3,
) -> dict:
    """Measure how far a near-identity map moves the solved discs.

    Pipeline: dilate the defining function and conjugate the map at ``t``, or
    at the first of ``1, 1/2, 1/4, ...`` (40 trials) where both are close
    enough to their limits, solve a disc per requested ``b``, push
    it through the scaled map, then compare residual, jet at 1, and
    coefficients.  A map that honestly preserves the hypersurface and is
    tangent to the identity past the jet order leaves every disc fixed up to
    the scheme tolerance, which pins its value at the disc centers.
    """
    if not 0 <= boundary_tol < math.inf:
        raise ConfigError(f"boundary_tol = {boundary_tol} is not a finite number >= 0")
    model = r.model
    order = qfac.ell0 + 2
    if h_map.d != model.d:
        raise ConfigError("[hypothesis] map grading does not match the model degree")
    tangency = h_map.tangency_order()
    if tangency < order:
        raise ConfigError(
            f"[hypothesis] map tangency order {tangency} is below the jet order {order}"
        )

    # one trial per scale, the given t or the search's: r and H dilated
    # together, the zero set checked only where the distance passes
    searched = t is None
    for t in (0.5**k for k in range(40)) if searched else (t,):
        r_t, h_t = dilate(r, t), dilate_map(h_map, t)
        x_val, defect = x_norm_distance(r_t), math.nan
        if x_val <= X_NORM_THRESHOLD:
            defect = _boundary_defect(r_t, h_t)
            if defect <= boundary_tol:
                break
    else:
        if searched:
            raise NumericalError("[scaling] no dilation parameter satisfies the thresholds")
        if not x_val <= X_NORM_THRESHOLD:
            raise NumericalError(f"[scaling] dilated defining function too far out: {x_val:.3e}")
        raise ConfigError(f"[hypothesis] map moves the zero set by {defect:.3e}")

    runs = []
    for b in b_values:
        b = complex(b)
        init = model_disc(model, ModelDiscParams(b, 1.0), n_max=opts.n_max)
        sol = solve_newton(r_t, qfac, b, init, opts)
        base = sol.disc
        h_new, g_new = compose_disc(h_t, base)
        composed = LiftedDisc.computed(base.c, h_new, g_new, "composed disc")
        jets_base = jet_map(base.h, order)
        jets_comp = jet_map(h_new, order)
        # no reconstruction is held through the composed residual's products
        aligned = coeff_distance(
            jet_reconstruct(model, qfac, jets_comp), jet_reconstruct(model, qfac, jets_base)
        )
        runs.append(
            {
                "b": _pair(b),
                "iterations": sol.iterations,
                "residual_base": float(max(sol.stationarity)),
                "residual_composed": float(max(stationarity_residual(composed, r_t))),
                "jet_base": [_pair(v) for v in jets_base],
                "jet_composed": [_pair(v) for v in jets_comp],
                "jet_distance": float(np.max(np.abs(jets_comp - jets_base))),
                "aligned_distance": float(aligned),
                "disc_distance": float(
                    max(coeff_distance(h_new, base.h), coeff_distance(g_new, base.g))
                ),
                "center_distance": float(
                    max(abs(h_new.coeff(0) - base.h.coeff(0)), abs(g_new.coeff(0) - base.g.coeff(0)))
                ),
            }
        )

    return {
        "t": float(t),
        "jet_order": order,
        "tangency_order": None if math.isinf(tangency) else int(tangency),
        "x_norm_scaled": float(x_val),
        "boundary_defect": float(defect),
        "runs": runs,
    }
