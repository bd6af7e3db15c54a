"""discforge benchmark: three workloads, end-to-end metrics, a traced layer split.

Usage, from the root of a checkout::

    python3 bench/run.py --workload newton_grid|model_survey|cli_cold|all \
        --seed N --seconds S --trace 0|1

``all`` runs the three workloads one after another, each in its own process.

``--trace 0`` runs the workload as a closed loop over a fixed number of whole
cycles of its op stream: the number of cycles nearest to ``S`` seconds at the
workload's nominal cycle time (at least one).  The op list, and so the
attempted and failed counts, depend only on the seed and ``S``, never on how
fast the machine happens to be.  It reports the end-to-end metrics:

- ``setup_s``: median of three set-ups (one here, two in fresh processes):
  import, BLAS warm-up, input generation and one untimed warm-up op; for
  ``cli_cold`` config generation only, because every op there is cold.
- ``ok_per_s``: ops that succeeded and passed the benchmark's checks, per
  second of loop wall time (failed ops' time stays in the denominator).
- ``op_p50_ms`` / ``op_p90_ms``: latency quantiles of the successful ops.
- ``ok_frac``: successful ops / attempted ops (``1 - fail_frac``; the
  failure fraction itself can be 0, which no bound can be a share of).
- ``peak_rss_mb``: peak RSS of this process, or of the largest child for
  ``cli_cold``.

``--trace 1`` runs a fixed block of ops (the first ``TRACE_OPS`` ops of the
seed's stream) once untraced and once with every layer entry point
wrapped (see ``tracing.py``), checks that both give the same per-op outcomes,
and reports the per-layer metrics per op of the block together with
``trace.overhead_frac``.

Before the result the runner prints the environment block, the op counts and
the failure inventory (every failed op with its id and error class).  The last
line of stdout is the JSON result.  Every op's output is checked; an op that
fails a check counts in ``failed`` like one that raised.  ``correct`` is false
when an op ends in an exception outside the package's error contract (class
``traceback``) or when the traced pass changes any op's outcome.  Scratch files go under ``.bench_work/`` in
the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("newton_grid", "model_survey", "cli_cold")
SETUP_REPEATS = 3
# ops in the fixed block of a traced run: one pass over the newton groups,
# eight models of every survey shape, two rounds of the CLI commands
TRACE_OPS = {"newton_grid": 8, "model_survey": 80, "cli_cold": 6}

END_TO_END = (
    ("setup_s", "s"),
    ("ok_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# per-op values of the traced block: name -> (unit, summary part, key)
_PER_OP = {
    "solver.lstsq_s": ("s/op", "fn_time", "linalg.lstsq"),
    "solver.lstsq_calls": ("calls/op", "calls", "linalg.lstsq"),
    "solver.svd_s": ("s/op", "fn_time", "linalg.svd"),
    "solver.self_s": ("s/op", "layer_self", "solver"),
    "solver.linearize_at_s": ("s/op", "fn_time", "solver._linearize"),
    "solver.kernel_basis_p0_s": ("s/op", "fn_time", "solver.kernel_basis_p0"),
    "series.calls": ("calls/op", "layer_calls", "series"),
    "series.self_s": ("s/op", "layer_self", "series"),
    "series.multiply_calls": ("calls/op", "calls", "series.multiply"),
    "series.multiply_s": ("s/op", "fn_time", "series.multiply"),
    "series.from_samples_s": ("s/op", "fn_time", "series.from_samples"),
    "discs.calls": ("calls/op", "layer_calls", "discs"),
    "discs.self_s": ("s/op", "layer_self", "discs"),
    "discs.model_disc_s": ("s/op", "fn_time", "discs.model_disc"),
    "discs.stationarity_residual_s": ("s/op", "fn_time", "discs.stationarity_residual"),
    "discs.substitute_boundary_s": ("s/op", "fn_time", "discs.substitute_boundary"),
    "perturb.calls": ("calls/op", "layer_calls", "perturb"),
    "perturb.self_s": ("s/op", "layer_self", "perturb"),
    "perturb.compose_disc_s": ("s/op", "fn_time", "perturb.compose_disc"),
    "model.calls": ("calls/op", "layer_calls", "model"),
    "model.self_s": ("s/op", "layer_self", "model"),
    "model.linalg_s": ("s/op", "linalg_in", "model"),
    "model.factor_Q_s": ("s/op", "fn_time", "model.factor_Q"),
    "model.check_subharmonic_s": ("s/op", "fn_time", "model.check_subharmonic"),
    "jets.calls": ("calls/op", "layer_calls", "jets"),
    "jets.self_s": ("s/op", "layer_self", "jets"),
    "jets.linalg_s": ("s/op", "linalg_in", "jets"),
    "jets.determination_experiment_s": ("s/op", "fn_time", "jets.determination_experiment"),
    "cli.self_s": ("s/op", "layer_self", "cli"),
}

PER_LAYER = tuple((name, unit) for name, (unit, _, _) in _PER_OP.items()) + (
    ("solver.lstsq_mbytes", "MB/op"),  # computed: sum of 8 m n over lstsq matrices
    ("solver.lstsq_gflop", "GFLOP/op"),  # computed: sum of 2 m n^2
    ("solver.iterations_per_solve", "iter/solve"),
    ("cli.import_s", "s"),  # this and the next two: medians over the CLI processes
    ("cli.main_s", "s"),
    ("cli.first_lapack_s", "s"),
    ("cli.run_1thread_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


# ---- set-up ------------------------------------------------------------------------


def _blas_warmup():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((600, 200))
    np.linalg.lstsq(a, rng.standard_normal(600), rcond=None)


def timed_setup(workload: str, seed: int):
    """Import, BLAS warm-up, inputs, one untimed warm-up op; returns (wl, seconds)."""
    start = perf_counter()
    if workload == "cli_cold":
        import workloads  # cold by design: only config generation is set-up

        wl = workloads.WORKLOADS[workload](ROOT, seed)
        start = perf_counter()
        wl.setup()
        return wl, perf_counter() - start
    import workloads

    _blas_warmup()
    wl = workloads.WORKLOADS[workload](ROOT, seed)
    wl.setup()
    wl.run_op(next(wl.ops()))
    return wl, perf_counter() - start


def setup_samples(args, wl, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        if args.workload == "cli_cold":
            start = perf_counter()
            wl.setup()
            samples.append(perf_counter() - start)
            continue
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", "0", "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---- measurement -------------------------------------------------------------------


def run_count(wl, seconds: float) -> int:
    """Ops in a run: the whole cycles nearest to ``seconds`` of nominal time."""
    return max(1, round(seconds / wl.cycle_seconds)) * wl.cycle


def run_ops(wl, ops, count: int):
    """Closed loop over the first ``count`` ops of ``ops``."""
    from workloads import Outcome

    outcomes = []
    start = perf_counter()
    for op in itertools.islice(ops, count):
        t0 = perf_counter()
        errors = wl.run_op(op)
        elapsed = perf_counter() - t0
        error = None
        if errors:
            error = (errors[0][0], "; ".join(msg for _, msg in errors))
        outcomes.append(Outcome(op.op_id, elapsed, error))
    return outcomes, perf_counter() - start


def quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(outcomes, wall, setup, children: bool) -> dict:
    lat = [o.seconds * 1e3 for o in outcomes if o.ok]
    ok = len(lat)
    values = {
        "setup_s": statistics.median(setup),
        "ok_per_s": ok / wall,
        "op_p50_ms": statistics.median(lat) if lat else 0.0,
        "op_p90_ms": quantile(lat, 0.9),
        "ok_frac": ok / len(outcomes),
        "peak_rss_mb": peak_rss_mb(children),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(summary: dict, n_ops: int, extra: dict) -> dict:
    values = {name: summary.get(part, {}).get(key, 0) / n_ops for name, (_, part, key) in _PER_OP.items()}
    values["solver.lstsq_mbytes"] = 8 * summary.get("lstsq_mn", 0) / 1e6 / n_ops
    values["solver.lstsq_gflop"] = 2 * summary.get("lstsq_mn2", 0) / 1e9 / n_ops
    solves = summary.get("calls", {}).get("solver.solve_newton", 0)
    values["solver.iterations_per_solve"] = summary.get("solve_iterations", 0) / solves if solves else 0.0
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


def traced_pass(wl, count: int):
    """Run ``count`` ops untraced, then traced.

    Returns the traced outcomes, the tracer summary, the metrics that are not
    per-op sums (overhead, and the CLI process timings) and whether every op
    ended as it did untraced.  For ``cli_cold`` the first round is repeated
    with ``OPENBLAS_NUM_THREADS=1`` as the single-threaded reference.
    """
    import tracing
    from workloads import CLI_COMMANDS

    untraced, wall_plain = run_ops(wl, wl.ops(), count=count)
    extra = {}
    if wl.name == "cli_cold":
        wl.trace_files = []
        traced, wall_traced = run_ops(wl, wl.ops(), count=count)
        children = [json.loads(p.read_text()) for p in wl.trace_files]
        wl.trace_files = None
        summary = tracing.merge(c["summary"] for c in children)
        for key in ("import_s", "main_s"):
            extra[f"cli.{key}"] = statistics.median(c[key] for c in children)
        firsts = [c["first_lapack_s"] for c in children if c["first_lapack_s"] is not None]
        extra["cli.first_lapack_s"] = statistics.median(firsts) if firsts else 0.0
        wl.env = wl.thread_env("1")
        single, _ = run_ops(wl, wl.ops(), count=len(CLI_COMMANDS))
        wl.env = wl.thread_env(None)
        extra["cli.run_1thread_p50_ms"] = statistics.median(o.seconds for o in single) * 1e3
        traced_all = traced + single
        reference = untraced + untraced[: len(CLI_COMMANDS)]
    else:
        tracer = tracing.Tracer()
        inst = tracing.install(tracer, namespaces=[sys.modules["workloads"]])
        try:
            traced, wall_traced = run_ops(wl, wl.ops(), count=count)
        finally:
            inst.restore()
        summary = tracer.summary()
        traced_all, reference = traced, untraced
    extra["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    same = [o.signature() for o in traced_all] == [o.signature() for o in reference]
    return traced_all, summary, extra, same


# ---- reporting ---------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(args, outcomes, metrics, correct: bool):
    failed = [o for o in outcomes if not o.ok]
    n_ok = len(outcomes) - len(failed)
    env = environment(args)
    env["ops"] = {"attempted": len(outcomes), "ok": n_ok, "failed": len(failed)}
    lat = [o.seconds for o in outcomes if o.ok]
    p90 = quantile(lat, 0.9)
    beyond_p90 = sum(1 for v in lat if v > p90)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"ops {args.workload}: attempted {len(outcomes)}, ok {n_ok}, failed {len(failed)}; "
          f"fail_frac {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.4f}; "
          f"ok latency samples {len(lat)}, {beyond_p90} beyond p90")
    print(f"failure inventory ({len(failed)}):")
    for o in failed:
        print(f"  FAIL {o.op_id} [{o.error[0]}] {o.error[1]}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}))


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process, output passed through."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "discforge" / "__init__.py").is_file():
        print(f"benchmark error: no discforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    wl, first = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": first}))
        return 0
    try:
        if args.trace:
            count = TRACE_OPS[args.workload]
            outcomes, summary, extra, same = traced_pass(wl, count)
            metrics = per_layer(summary, count, extra)
            if not same:
                print("benchmark check: traced and untraced passes gave different outcomes")
        else:
            setup = setup_samples(args, wl, first)
            outcomes, wall = run_ops(wl, wl.ops(), run_count(wl, args.seconds))
            metrics = end_to_end(outcomes, wall, setup, children=args.workload == "cli_cold")
            same = True
    finally:
        cleanup = getattr(wl, "cleanup", None)
        if cleanup is not None:
            cleanup()
    tracebacks = [o for o in outcomes if not o.ok and o.error[0] == "traceback"]
    report(args, outcomes, metrics, correct=same and not tracebacks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
