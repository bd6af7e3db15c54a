"""The three benchmark workloads: seeded op streams, op execution and checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  An op's inputs come only from the seed, so the op
stream is the same for the same seed.  A run is a whole number of cycles of
the stream; ``cycle_seconds`` is the nominal duration of one cycle on a
2-core x86 machine, which the runner uses to turn ``--seconds`` into a fixed
op count, so that a seed's attempted and failed counts repeat exactly.  An
op fails when the package raises (``ConfigError``/``NumericalError``, or any
other exception, class ``traceback``) or when one of the benchmark's own
checks rejects its output (class ``check``).  Inputs on which the package fails stay in the streams:
the failure fraction and the failure inventory are part of what is measured.

Importing this module imports numpy and ``discforge``; the runner times that
import as part of set-up.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from discforge.cli import RunConfig
from discforge.discs import LiftedDisc, ModelDiscParams, model_disc, stationarity_residual
from discforge.exceptions import ConfigError, NumericalError
from discforge.jets import determination_experiment, jet_map, jet_matrix, jet_reconstruct, surjectivity_gap
from discforge.model import ModelPolynomial, check_subharmonic, compute_Q, factor_Q, random_admissible_model, winding_number
from discforge.perturb import BiholoMap, DefiningFunction, PerturbationTerm
from discforge.series import coeff_distance
from discforge.solver import SolverOptions, solve_newton


@dataclass
class Outcome:
    """Result of one op: ``error`` is ``None`` on success, else ``(class, message)``."""

    op_id: str
    seconds: float
    error: tuple[str, str] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def signature(self) -> tuple:
        return (self.op_id, None if self.error is None else self.error[0])


def _error_of(exc: BaseException) -> tuple[str, str]:
    if isinstance(exc, (ConfigError, NumericalError)):
        return type(exc).__name__, str(exc)
    return "traceback", f"{type(exc).__name__}: {exc}"


# ---- newton_grid ---------------------------------------------------------------

# d in {4, 6}; unsplit roots (k0 = d/2, the model |z|^d) and split roots
# (k0 = d/2 + 1); |b| in {0.1, 0.45}.  Each case is solved up the N ladder.
NEWTON_GROUPS = tuple(
    (d, split, bmag) for d in (4, 6) for split in (False, True) for bmag in (0.1, 0.45)
)
N_LADDER = (64, 128)
EPS_MODULUS = 1e-3
REFINE_TOL = 1e-8
# Whether a |b| = 0.45 case converges depends on the phases of b and eps, so
# the phases are stratified: a cycle of PHASE_STRATA passes gives every group
# one phase from each of the PHASE_STRATA arcs of the circle, in a seeded order,
# and runs are measured in whole cycles.  Every run then sees the same mix of
# arcs and only the draw inside each arc changes with the seed.
PHASE_STRATA = 8


@dataclass(frozen=True)
class NewtonOp:
    op_id: str
    d: int
    k0: int
    b: complex
    eps: complex


def newton_model(d: int, split: bool) -> ModelPolynomial:
    half = d // 2
    if split:
        return ModelPolynomial.from_upper(d, half + 1, {half + 1: 0.25, half: 1.0})
    return ModelPolynomial.from_upper(d, half, {half: 1.0})


def newton_ops(seed: int):
    """Infinite seeded stream of cycles of passes over ``NEWTON_GROUPS``."""
    rng = np.random.default_rng([seed, 1])
    n_pass = 0
    while True:
        perms = [(rng.permutation(PHASE_STRATA), rng.permutation(PHASE_STRATA)) for _ in NEWTON_GROUPS]
        for stratum in range(PHASE_STRATA):
            for g, (d, split, bmag) in enumerate(NEWTON_GROUPS):
                pb = 2 * math.pi * (perms[g][0][stratum] + rng.uniform()) / PHASE_STRATA
                pe = 2 * math.pi * (perms[g][1][stratum] + rng.uniform()) / PHASE_STRATA
                k0 = d // 2 + (1 if split else 0)
                yield NewtonOp(
                    f"newton/d{d}-k{k0}-b{bmag}-p{n_pass}",
                    d,
                    k0,
                    complex(bmag * np.exp(1j * pb)),
                    complex(EPS_MODULUS * np.exp(1j * pe)),
                )
            n_pass += 1


class NewtonGrid:
    name = "newton_grid"
    cycle = len(NEWTON_GROUPS) * PHASE_STRATA
    cycle_seconds = 47.0

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.models = {}

    def setup(self):
        for d, split, _ in NEWTON_GROUPS:
            model = newton_model(d, split)
            self.models[(d, model.k0)] = (model, factor_Q(model))

    def ops(self):
        return newton_ops(self.seed)

    def run_op(self, op: NewtonOp) -> list[tuple[str, str]]:
        model, qfac = self.models[(op.d, op.k0)]
        half = op.d // 2
        defn = DefiningFunction(model, (PerturbationTerm(half + 1, half, 0, {(0, 0): op.eps}),))
        errors, discs = [], {}
        for n in N_LADDER:
            opts = SolverOptions(n_max=n)
            try:
                init = model_disc(model, ModelDiscParams(op.b, 1.0), n_max=n)
                result = solve_newton(defn, qfac, op.b, init, opts)
            except Exception as exc:  # every escape is recorded, never fatal
                cls, msg = _error_of(exc)
                errors.append((cls, f"N={n}: {msg}"))
                break  # like a user, do not refine a case that already failed
            plain = max(stationarity_residual(result.disc, defn))
            if not (result.converged and plain < opts.tol):
                errors.append(("check", f"N={n}: plain stationarity {plain:.3e} >= tol {opts.tol:g}"))
                break
            discs[n] = result.disc
        for lo, hi in zip(N_LADDER, N_LADDER[1:]):
            if lo in discs and hi in discs:
                dist = max(
                    coeff_distance(discs[lo].h, discs[hi].h),
                    coeff_distance(discs[lo].g, discs[hi].g),
                )
                if not dist < REFINE_TOL:
                    errors.append(("check", f"N={lo}/{hi} refinement distance {dist:.3e}"))
        return errors


# ---- model_survey ----------------------------------------------------------------

SURVEY_SHAPES = tuple((d, k0) for d in (2, 4, 6, 8) for k0 in range(d // 2, d))
# distinct models per shape: the latency median of a run is taken over many
# draws, so it depends little on which models the seed happens to draw
SURVEY_MODELS_PER_SHAPE = 24
SURVEY_N = 128
SURVEY_ANGLES = 16
SURVEY_B_MAX = 0.45
JET_TOL = 1e-8
FAMILY_TOL = 1e-9


def survey_map(d: int) -> BiholoMap:
    """Fixed near-identity map, tangent to the identity past every jet order used.

    The tangency order is ``min(9, 3 d) - 1 >= 5``, above the largest jet
    order ``ell0 + 2 = k0 - d/2 + 2`` of the surveyed shapes.
    """
    return BiholoMap(d, {(1, 0): 1.0, (9, 0): 1e-4}, {(0, 1): 1.0, (0, 3): 1e-4})


@dataclass(frozen=True)
class SurveyOp:
    op_id: str
    model_index: int
    b: complex
    v: complex
    angles: tuple[float, ...]
    jet_seed: int


def survey_models(seed: int) -> list[ModelPolynomial]:
    rng = np.random.default_rng([seed, 2])
    return [
        random_admissible_model(rng, d, k0)
        for _ in range(SURVEY_MODELS_PER_SHAPE)
        for d, k0 in SURVEY_SHAPES
    ]


def survey_ops(seed: int, n_models: int):
    """Infinite seeded stream: rounds over the model list, fresh draws per op."""
    rng = np.random.default_rng([seed, 3])
    n_round = 0
    while True:
        for i in range(n_models):
            b = SURVEY_B_MAX * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            v = np.exp(2j * np.pi * rng.uniform())
            angles = tuple(float(a) for a in rng.uniform(0.0, 2 * np.pi, SURVEY_ANGLES))
            yield SurveyOp(
                f"survey/m{i}-r{n_round}", i, complex(b), complex(v), angles, int(rng.integers(2**31))
            )
        n_round += 1


class ModelSurvey:
    name = "model_survey"
    cycle = len(SURVEY_SHAPES) * SURVEY_MODELS_PER_SHAPE  # every model once
    cycle_seconds = 27.0

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.models: list[ModelPolynomial] = []
        self.opts = SolverOptions(n_max=64)

    def setup(self):
        self.models = survey_models(self.seed)

    def ops(self):
        return survey_ops(self.seed, len(self.models))

    def run_op(self, op: SurveyOp) -> list[tuple[str, str]]:
        model = self.models[op.model_index]
        tag = f"d{model.d}-k{model.k0}"
        try:
            return self._battery(model, op, tag)
        except Exception as exc:  # every escape is recorded, never fatal
            cls, msg = _error_of(exc)
            return [(cls, f"{tag}: {msg}")]

    def _battery(self, model: ModelPolynomial, op: SurveyOp, tag: str) -> list[tuple[str, str]]:
        errors = []
        qfac = factor_Q(model)
        expected = model.k0 - model.d // 2
        if not (qfac.ell0 == qfac.i0 == expected):
            errors.append(("check", f"{tag}: root split {qfac.ell0}/{qfac.i0} != {expected}"))
        if not check_subharmonic(model) > 0:
            errors.append(("check", f"{tag}: not subharmonic"))
        # argument principle: Q = C zeta s t winds once per root inside, plus the origin
        if winding_number(compute_Q(model)) != 1 + qfac.ell0 or winding_number(qfac.s_poly()) != 0:
            errors.append(("check", f"{tag}: winding numbers disagree with the root split"))

        jm = jet_matrix(model, qfac)
        rng = np.random.default_rng(op.jet_seed)
        jets = rng.standard_normal(jm.n) + 1j * rng.standard_normal(jm.n)
        back = jet_map(jet_reconstruct(model, qfac, jets), jm.n)
        jet_err = float(np.max(np.abs(back - jets)))
        if not jet_err <= JET_TOL * max(1.0, float(np.max(np.abs(jets)))):
            errors.append(("check", f"{tag}: jet_map(jet_reconstruct(jets)) off by {jet_err:.3e}"))

        for theta in op.angles:
            gap = surjectivity_gap(model, theta)
            if not math.isfinite(gap):
                errors.append(("check", f"{tag}: non-finite surjectivity gap"))
                break

        disc = model_disc(model, ModelDiscParams(op.b, op.v), n_max=SURVEY_N)
        res = max(stationarity_residual(disc, DefiningFunction.pure(model)))
        if not res < FAMILY_TOL:
            errors.append(("check", f"{tag}: family disc residual {res:.3e}"))

        report = determination_experiment(
            DefiningFunction.pure(model), survey_map(model.d), qfac, self.opts, t=0.125, b_values=(0.0, 0.2)
        )
        # the drift of the composed disc is the measured quantity, not a pass mark;
        # the solved base disc must still be stationary
        for run in report["runs"]:
            if not run["residual_base"] < self.opts.tol:
                errors.append(("check", f"{tag}: determination base disc residual {run['residual_base']:.3e}"))
        return errors


# ---- cli_cold ----------------------------------------------------------------------

CLI_COMMANDS = ("solve", "kernel", "determine")
# solve phases and kernel models vary with the seed; a few variants per run
# average that out, and each variant still repeats for the byte-identity check
CLI_VARIANTS = 10


def cli_configs(seed: int) -> dict[str, dict]:
    """Seeded configs named ``<command>-<variant>``.

    ``CLI_VARIANTS`` solves of the split d=4 model at |b| = 0.1 with phases
    stratified like ``newton_ops``, as many kernel runs of random d=6, k0=5
    models, and one determination run on ``|z|^4``.
    """
    rng = np.random.default_rng([seed, 4])
    configs = {}
    pb_order, pe_order = rng.permutation(CLI_VARIANTS), rng.permutation(CLI_VARIANTS)
    for k in range(CLI_VARIANTS):
        b = 0.1 * np.exp(2j * np.pi * (pb_order[k] + rng.uniform()) / CLI_VARIANTS)
        eps = EPS_MODULUS * np.exp(2j * np.pi * (pe_order[k] + rng.uniform()) / CLI_VARIANTS)
        configs[f"solve-{k}"] = {
            "model": newton_model(4, True).to_dict(),
            "perturbation": {"terms": [{"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, eps.real, eps.imag]]}]},
            "solver": {"N": 64},
            "params": {"disc": {"b": [b.real, b.imag], "v": [1.0, 0.0]}},
        }
    for k in range(CLI_VARIANTS):
        configs[f"kernel-{k}"] = {"model": random_admissible_model(rng, 6, 5).to_dict()}
    configs["determine-0"] = {
        "model": newton_model(4, False).to_dict(),
        "solver": {"N": 64},
        "params": {"map": survey_map(4).to_dict(), "t": 0.125},
    }
    return configs


@dataclass(frozen=True)
class CliOp:
    op_id: str
    command: str
    config: str


def cli_ops(config_names):
    """Infinite stream: rounds of the commands, cycling through their variants."""
    variants = {cmd: sorted(n for n in config_names if n.startswith(cmd + "-")) for cmd in CLI_COMMANDS}
    n = 0
    while True:
        for cmd in CLI_COMMANDS:
            yield CliOp(f"cli/{cmd}-{n}", cmd, variants[cmd][n % len(variants[cmd])])
        n += 1


def classify_exit(rc: int, stderr: str) -> tuple[str, str] | None:
    if rc == 0:
        return None
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if "Traceback (most recent call last)" in stderr:
        return "traceback", last
    if rc == 2:
        return "ConfigError", last
    if rc == 1:
        return "NumericalError", last
    return "traceback", f"exit code {rc}: {last}"


class CliCold:
    name = "cli_cold"
    # every variant of every command once
    cycle = len(CLI_COMMANDS) * CLI_VARIANTS
    cycle_seconds = 15.0
    child_timeout = 120.0

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / ".bench_work" / f"cli-{os.getpid()}"
        self.configs: dict[str, Path] = {}
        self.reference: dict[tuple, dict] = {}
        self.runs = 0
        self.env = self.thread_env(None)
        # set to a list to run the traced launcher; it collects the trace files
        self.trace_files: list[Path] | None = None

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for name, cfg in cli_configs(self.seed).items():
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
            self.configs[name] = path

    def ops(self):
        return cli_ops(self.configs)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def thread_env(self, threads: str | None) -> dict:
        """Inherited environment with ``src`` on the path, as the test suite uses it."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        return env

    def command(self, op: CliOp, out: Path) -> list[str]:
        if self.trace_files is None:
            launcher = [sys.executable, "-m", "discforge.cli"]
        else:
            trace = self.work / f"trace-{self.runs}.json"
            self.trace_files.append(trace)
            launcher = [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py"), str(trace)]
        args = [op.command, "--config", str(self.configs[op.config]), "--out", str(out), "--seed", str(self.seed)]
        return launcher + args

    def run_op(self, op: CliOp) -> list[tuple[str, str]]:
        self.runs += 1
        out = self.work / f"out-{self.runs}"
        try:
            proc = subprocess.run(
                self.command(op, out),
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self.child_timeout,
            )
        except subprocess.TimeoutExpired:
            return [("traceback", f"timed out after {self.child_timeout:g} s")]
        try:
            err = classify_exit(proc.returncode, proc.stderr)
            if err is not None:
                return [err]
            return self._check(op, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, op: CliOp, out: Path) -> list[tuple[str, str]]:
        errors, cmd = [], op.command
        config = json.loads(self.configs[op.config].read_text())
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        manifest = json.loads(files.pop("manifest.json"))
        manifest.pop("wall_time_s", None)
        snapshot = {"files": files, "manifest": manifest}
        # BLAS thread count changes reduction order, hence the last digits
        ref = self.reference.setdefault((op.config, self.env.get("OPENBLAS_NUM_THREADS")), snapshot)
        if snapshot != ref:
            errors.append(("check", f"{op.config}: artifacts differ from the first run"))
        if cmd == "kernel":
            rep = json.loads(files["kernel.json"])
            if not rep["dim_svd"] == rep["dim_basis"] == rep["dim_formula"]:
                errors.append(("check", f"kernel dims svd/basis/formula {rep['dim_svd']}/{rep['dim_basis']}/{rep['dim_formula']}"))
        elif cmd == "solve":
            errors += self._check_solve(config, json.loads(files["solve.json"]))
        elif cmd == "determine":
            tol = config.get("solver", {}).get("tol", SolverOptions.tol)
            for run in json.loads(files["determine.json"])["runs"]:
                if not run["residual_base"] < tol:
                    errors.append(("check", f"determine: base disc residual {run['residual_base']:.3e} at b={run['b']}"))
        return errors

    def _check_solve(self, config: dict, rep: dict) -> list[tuple[str, str]]:
        cfg = RunConfig.from_dict(config, "solve")
        disc = LiftedDisc.from_dict(rep["disc"])
        plain = max(stationarity_residual(disc, cfg.defn))
        if not (rep["converged"] and plain < cfg.opts.tol):
            return [("check", f"solve: plain stationarity {plain:.3e} >= tol {cfg.opts.tol:g}")]
        return []


WORKLOADS = {cls.name: cls for cls in (NewtonGrid, ModelSurvey, CliCold)}
