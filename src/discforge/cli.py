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
import math
import os
import sys
import tempfile
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .discs import ModelDiscParams, model_disc, stationarity_residual
from .exceptions import ConfigError, NumericalError, integer, malformed, pair, real, strict_keys
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

_TOP_KEYS = {"schema", "model", "perturbation", "solver", "params"}

# Largest accepted params.n_angles of ``gap`` and params.samples of ``disc``:
# each angle is a closed-form evaluation, a 256-point quadrature and one CSV
# row, so this keeps a run under about ten seconds and gap.csv to a few MB;
# each boundary sample is one CSV row.
MAX_ANGLES = 1 << 16


def _checked(read, ok, rule: str):
    """``read``, then refuse a value that fails ``ok``, the condition ``rule`` states."""

    def reader(value):
        out = read(value)
        if not ok(out):
            raise ValueError(f"{value!r} breaks {rule}")
        return out

    return reader


def _pairs(value) -> tuple:
    """Read a JSON list of pairs ``[re, im]``; an object or a string is not one."""
    if not isinstance(value, list):
        raise ValueError(f"value must be a list of pairs [re, im], not {value!r}")
    return tuple(pair(v) for v in value)


_count = _checked(integer, lambda n: 1 <= n <= MAX_ANGLES, f"1 <= count <= {MAX_ANGLES}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: model, defining function, options, and the
    command's params, each read into its typed value."""

    model: ModelPolynomial
    defn: DefiningFunction
    opts: SolverOptions
    params: dict

    @classmethod
    def from_dict(cls, data, command: str) -> "RunConfig":
        strict_keys(data, _TOP_KEYS, "config")
        with malformed("schema"):
            schema = integer(data.get("schema", SCHEMA_VERSION), "schema")
        if schema != SCHEMA_VERSION:
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
        spec = _COMMANDS[command]
        raw = strict_keys(data.get("params", {}), set(spec.params), f"{command} parameter")
        if spec.required is not None and spec.required not in raw:
            raise ConfigError(f"{command} needs params.{spec.required}")
        params = {}
        for key, value in raw.items():
            with malformed(f"params.{key}"):
                params[key] = spec.params[key](value)
        # the jets at 1 of orders 0 .. ell0 + 1, with ell0 = k0 - d/2
        n_jets = model.k0 - model.d // 2 + 2
        if "jets" in params and len(params["jets"]) != n_jets:
            raise ConfigError(f"params.jets needs k0 - d/2 + 2 = {n_jets} pairs, not {len(params['jets'])}")
        return cls(model, defn, opts, params)


def _series_modes(series) -> list[list[float]]:
    idx = np.flatnonzero(series.coeffs)
    return [[int(i) - series.n_max, float(v.real), float(v.imag)] for i, v in zip(idx, series.coeffs[idx])]


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
    p = cfg.params["disc"]
    disc = model_disc(cfg.model, p, n_max=cfg.opts.n_max)
    res = stationarity_residual(disc, cfg.defn)
    trace = disc.boundary_samples(cfg.params.get("samples", 64))
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
    p = cfg.params["disc"]
    disc = model_disc(cfg.model, p, n_max=cfg.opts.n_max)
    res = stationarity_residual(disc, cfg.defn)
    report = {
        "params": p.to_dict(),
        "residual": [float(v) for v in res],
        "max": float(max(res)),
    }
    return {"residual.json": report}


def cmd_solve(cfg: RunConfig) -> dict:
    p = cfg.params["disc"]
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
        series = jet_reconstruct(cfg.model, qfac, cfg.params["jets"])
        report["reconstruction"] = series.to_dict()
        report["reconstruction_jets"] = [_pair(v) for v in jet_map(series, jm.n)]
    return {"jet.json": report}


def cmd_gap(cfg: RunConfig) -> dict:
    n_angles = cfg.params.get("n_angles", 64)
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
    kwargs = dict(cfg.params)
    h_map = kwargs.pop("map")
    report = determination_experiment(cfg.defn, h_map, factor_Q(cfg.model), cfg.opts, **kwargs)
    return {"determine.json": report}


# A subcommand: its runner, the reader of each parameter, and the parameter it needs.
_Command = namedtuple("_Command", "run params required", defaults=({}, None))
_COMMANDS = {
    "analyze": _Command(cmd_analyze),
    "disc": _Command(cmd_disc, {"disc": ModelDiscParams.from_dict, "samples": _count}, "disc"),
    "residual": _Command(cmd_residual, {"disc": ModelDiscParams.from_dict}, "disc"),
    "solve": _Command(cmd_solve, {"disc": ModelDiscParams.from_dict}, "disc"),
    "kernel": _Command(cmd_kernel),
    "jet": _Command(cmd_jet, {"jets": _pairs}),
    "gap": _Command(cmd_gap, {"n_angles": _count}),
    "determine": _Command(cmd_determine, {
        "map": BiholoMap.from_dict,
        "t": _checked(real, lambda t: 0 < t <= 1, "0 < t <= 1"),
        "b_values": _checked(
            _pairs, lambda bs: bs and all(abs(b) < 0.5 for b in bs), "at least one b, and |b| < 1/2 for every b"
        ),
        "boundary_tol": _checked(real, lambda tol: 0 <= tol < math.inf, "0 <= boundary_tol < inf"),
    }, "map"),
}


# ---- rendering and atomic output ------------------------------------------


def _render(name: str, payload) -> str:
    """The text of one artifact; a NaN or infinity in it is a ``NumericalError``."""
    if name.endswith(".json"):
        try:
            return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:  # allow_nan=False refuses NaN and the infinities
            raise NumericalError(f"{name} would hold a non-finite number") from None
    header, rows = payload
    if not np.isfinite(np.array(rows, dtype=float)).all():
        raise NumericalError(f"{name} would hold a non-finite number")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _finite(literal: str) -> float:
    """JSON number hook: refuse NaN, the infinities and literals past the float range."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {literal} in the config")
    return value


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

    start = time.perf_counter()
    status, error, texts = "ok", None, {}
    # an overflow or NaN is reported once, by the non-finite gate that meets
    # it, as a config or numerical error; numpy's own warning would only leak
    # to stderr ahead of that report
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                with malformed("malformed JSON"):
                    raw = json.loads(Path(args.config).read_text(), parse_float=_finite, parse_constant=_finite)
            except OSError as exc:
                raise ConfigError(f"cannot read {args.config}: {exc}") from None
            cfg = RunConfig.from_dict(raw, args.command)
            files = _COMMANDS[args.command].run(cfg)
        texts = {name: _render(name, payload) for name, payload in files.items()}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        status, error = "numerical_failure", str(exc)
        print(f"numerical failure: {exc}", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(texts.items()):
        _write_atomic(out / name, text)
        if args.verbose:
            print(f"DEBUG wrote {out / name}", file=sys.stderr)
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
        "files": sorted(texts),
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    _write_atomic(out / "manifest.json", _render("manifest.json", manifest))
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
