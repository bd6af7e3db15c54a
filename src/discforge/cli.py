"""Run-config driven command line front end.

Every subcommand reads a single JSON config describing the model, an
optional perturbation, solver options and command parameters, runs the
wrapped library operations, and writes JSON/CSV artifacts plus a
``manifest.json`` into the output directory.  Files land atomically
(temp file + rename) and are byte-reproducible from the same config and
seed; the manifest is the one exception since it carries the wall time.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .discs import ModelDiscParams, model_disc, stationarity_residual
from .exceptions import ConfigError, NumericalError, strict_keys
from .jets import (
    _pair,
    determination_experiment,
    jet_map,
    jet_matrix,
    jet_reconstruct,
    surjectivity_gap,
)
from .model import (
    ModelPolynomial,
    check_subharmonic,
    compute_Q,
    factor_Q,
    winding_number,
)
from .perturb import BiholoMap, DefiningFunction
from .series import MAX_ORDER
from .solver import (
    SolverOptions,
    kernel_basis_p0,
    kernel_dim_svd,
    linearize_at,
    solve_newton,
)

__all__ = ["RunConfig", "main"]

SCHEMA_VERSION = 1

log = logging.getLogger("discforge")

_TOP_KEYS = {"schema", "model", "perturbation", "solver", "params"}

# Largest accepted params.n_angles of ``gap`` and params.samples of ``disc``:
# each angle is a closed-form evaluation, a 256-point quadrature and one CSV
# row, so this keeps a run under about ten seconds and gap.csv to a few MB;
# each boundary sample is one CSV row.
MAX_ANGLES = 1 << 16

_PARAM_KEYS = {
    "analyze": set(),
    "disc": {"disc", "samples"},
    "residual": {"disc"},
    "solve": {"disc"},
    "kernel": set(),
    "jet": {"jets"},
    "gap": {"n_angles"},
    "determine": {"map", "t", "b_values", "boundary_tol"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: model, defining function, options, params."""

    model: ModelPolynomial
    defn: DefiningFunction
    opts: SolverOptions
    params: dict

    @classmethod
    def from_dict(cls, data, command: str) -> "RunConfig":
        strict_keys(data, _TOP_KEYS, "config")
        if _number(data.get("schema", SCHEMA_VERSION), int, "schema") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema (expected {SCHEMA_VERSION})")
        if "model" not in data:
            raise ConfigError("run config needs a model")
        model = ModelPolynomial.from_dict(data["model"])
        if "perturbation" in data:
            defn = DefiningFunction.from_dict(model, data["perturbation"])
        else:
            defn = DefiningFunction.pure(model)
        opts = SolverOptions.from_dict(data.get("solver", {}))
        # a disc of order N substituted into a degree-d model gives series of
        # order up to d (N + 2); refuse what series cannot hold before building it
        if model.d * (opts.n_max + 2) > MAX_ORDER:
            raise ConfigError(
                f"d (N + 2) = {model.d * (opts.n_max + 2)} exceeds the series order cap {MAX_ORDER}"
            )
        params = strict_keys(data.get("params", {}), _PARAM_KEYS[command], f"{command} parameter")
        return cls(model, defn, opts, dict(params))

    def disc_params(self) -> ModelDiscParams:
        if "disc" not in self.params:
            raise ConfigError("this command needs params.disc with b, v (and theta)")
        return ModelDiscParams.from_dict(self.params["disc"])


def _number(value, kind: type, what: str):
    """``value`` as an int or float (``kind``); anything else is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number: {exc}") from None


def _series_modes(series) -> list[list[float]]:
    out = []
    for n in range(-series.n_max, series.n_max + 1):
        v = series.coeff(n)
        if v != 0:
            out.append([n, float(v.real), float(v.imag)])
    return out


# ---- subcommands ---------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> dict:
    model = cfg.model
    q = compute_Q(model)
    qfac = factor_Q(model)
    report = {
        "d": model.d,
        "k0": model.k0,
        "subharmonic_min": float(check_subharmonic(model)),
        "q_coeffs": _series_modes(q),
        "factor_constant": _pair(qfac.constant),
        "roots_inside": [{"root": _pair(r), "mult": m} for r, m in qfac.roots_inside],
        "roots_outside": [_pair(r) for r in qfac.roots_outside],
        "ell0": qfac.ell0,
        "i0": qfac.i0,
        "ell1": qfac.ell1,
        "kernel_dim": 4 * model.k0 - model.d + 3,
        "winding": {"q": winding_number(q), "s": winding_number(qfac.s_poly())},
    }
    return {"analyze.json": report}


def cmd_disc(cfg: RunConfig) -> dict:
    p = cfg.disc_params()
    samples = _number(cfg.params.get("samples", 64), int, "params.samples")
    if not 1 <= samples <= MAX_ANGLES:
        raise ConfigError(f"params.samples must lie in [1, {MAX_ANGLES}]")
    disc = model_disc(cfg.model, p, n_max=cfg.opts.n_max)
    res = stationarity_residual(disc, cfg.defn)
    trace = disc.boundary_samples(samples)
    rows = [
        (a, c, h.real, h.imag, g.real, g.imag)
        for a, c, h, g in zip(trace["angle"], trace["c"], trace["h"], trace["g"])
    ]
    report = {
        "params": p.to_dict(),
        "disc": disc.to_dict(),
        "center": [_pair(w) for w in disc.center()],
        "residual": [float(v) for v in res],
    }
    return {
        "disc.json": report,
        "boundary.csv": (("angle", "c", "h_re", "h_im", "g_re", "g_im"), rows),
    }


def cmd_residual(cfg: RunConfig) -> dict:
    p = cfg.disc_params()
    disc = model_disc(cfg.model, p, n_max=cfg.opts.n_max)
    res = stationarity_residual(disc, cfg.defn)
    report = {
        "params": p.to_dict(),
        "residual": [float(v) for v in res],
        "max": float(max(res)),
    }
    return {"residual.json": report}


def cmd_solve(cfg: RunConfig) -> dict:
    p = cfg.disc_params()
    init = model_disc(cfg.model, p, n_max=cfg.opts.n_max)
    qfac = factor_Q(cfg.model)
    result = solve_newton(cfg.defn, qfac, p.b, init, cfg.opts)
    report = {
        "converged": result.converged,
        "iterations": result.iterations,
        "history": [float(v) for v in result.history],
        "stationarity": [float(v) for v in result.stationarity],
        "center": [_pair(w) for w in result.disc.center()],
        "disc": result.disc.to_dict(),
    }
    return {"solve.json": report}


def cmd_kernel(cfg: RunConfig) -> dict:
    model = cfg.model
    qfac = factor_Q(model)
    base = model_disc(model, ModelDiscParams(0.0, 1.0), n_max=max(8, 2 * model.d))
    op = linearize_at(cfg.defn, base, qfac, n_in=48, n_weight=model.k0)
    dim_svd = kernel_dim_svd(op, threshold=cfg.opts.svd_threshold)
    basis = kernel_basis_p0(model, qfac, threshold=cfg.opts.svd_threshold)
    report = {
        "dim_formula": 4 * model.k0 - model.d + 3,
        "dim_svd": dim_svd,
        "dim_basis": basis.dim,
        "residuals": [float(v) for v in basis.residuals],
    }
    return {"kernel.json": report}


def cmd_jet(cfg: RunConfig) -> dict:
    qfac = factor_Q(cfg.model)
    jm = jet_matrix(cfg.model, qfac)
    report = {
        "n": jm.n,
        "entries": [[_pair(v) for v in row] for row in jm.entries],
        "determinant": _pair(jm.determinant),
        "scale": _pair(jm.scale),
        "reduced_determinant": _pair(jm.reduced_determinant),
        "condition_number": float(jm.condition_number),
    }
    if "jets" in cfg.params:
        raw = cfg.params["jets"]
        try:
            jets = np.array([complex(re, im) for re, im in raw])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"params.jets must be [re, im] pairs: {exc}") from None
        series = jet_reconstruct(cfg.model, qfac, jets)
        report["reconstruction"] = series.to_dict()
        report["reconstruction_jets"] = [_pair(v) for v in jet_map(series, jm.n)]
    return {"jet.json": report}


def cmd_gap(cfg: RunConfig) -> dict:
    n_angles = _number(cfg.params.get("n_angles", 64), int, "params.n_angles")
    if not 1 <= n_angles <= MAX_ANGLES:
        raise ConfigError(f"params.n_angles must lie in [1, {MAX_ANGLES}]")
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    values = [surjectivity_gap(cfg.model, float(a)) for a in angles]
    report = {
        "n_angles": n_angles,
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "mean": float(np.mean(values)),
    }
    rows = list(zip(angles.tolist(), values))
    return {"gap.json": report, "gap.csv": (("theta", "gap"), rows)}


def cmd_determine(cfg: RunConfig) -> dict:
    if "map" not in cfg.params:
        raise ConfigError("determine needs params.map (the biholomorphism)")
    h_map = BiholoMap.from_dict(cfg.params["map"])
    kwargs = {}
    if "t" in cfg.params:
        kwargs["t"] = _number(cfg.params["t"], float, "params.t")
    if "b_values" in cfg.params:
        try:
            kwargs["b_values"] = tuple(complex(re, im) for re, im in cfg.params["b_values"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"params.b_values must be [re, im] pairs: {exc}") from None
    if "boundary_tol" in cfg.params:
        kwargs["boundary_tol"] = _number(cfg.params["boundary_tol"], float, "params.boundary_tol")
    qfac = factor_Q(cfg.model)
    report = determination_experiment(cfg.defn, h_map, qfac, cfg.opts, **kwargs)
    return {"determine.json": report}


_COMMANDS = {
    "analyze": cmd_analyze,
    "disc": cmd_disc,
    "residual": cmd_residual,
    "solve": cmd_solve,
    "kernel": cmd_kernel,
    "jet": cmd_jet,
    "gap": cmd_gap,
    "determine": cmd_determine,
}


# ---- rendering and atomic output ------------------------------------------


def _render(name: str, payload) -> str:
    if name.endswith(".json"):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    header, rows = payload
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="discforge",
        description="Stationary-disc toolkit: analysis, solves and experiments from one JSON config.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )

    start = time.perf_counter()
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: malformed JSON: {exc}", file=sys.stderr)
        return 2

    status, error, files = "ok", None, {}
    try:
        cfg = RunConfig.from_dict(raw, args.command)
        files = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        status, error = "numerical_failure", str(exc)
        print(f"numerical failure: {exc}", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in sorted(files.items()):
        _write_atomic(out / name, _render(name, payload))
        log.debug("wrote %s", out / name)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "discforge", "version": __version__},
        "command": args.command,
        "seed": args.seed,
        "n_max": cfg.opts.n_max,
        "tolerances": {
            "solver_tol": cfg.opts.tol,
            "svd_threshold": cfg.opts.svd_threshold,
        },
        "status": status,
        "error": error,
        "files": sorted(files),
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    _write_atomic(out / "manifest.json", _render("manifest.json", manifest))
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
