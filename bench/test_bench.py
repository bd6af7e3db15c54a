"""Tests of the benchmark itself: ``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_op_streams_are_deterministic_per_seed():
    assert _take(workloads.newton_ops(5), 20) == _take(workloads.newton_ops(5), 20)
    assert _take(workloads.newton_ops(5), 20) != _take(workloads.newton_ops(6), 20)
    models = [m.to_dict() for m in workloads.survey_models(5)]
    assert models == [m.to_dict() for m in workloads.survey_models(5)]
    assert models != [m.to_dict() for m in workloads.survey_models(6)]
    n = len(models)
    assert _take(workloads.survey_ops(5, n), 2 * n) == _take(workloads.survey_ops(5, n), 2 * n)
    assert workloads.cli_configs(5) == workloads.cli_configs(5)
    assert workloads.cli_configs(5) != workloads.cli_configs(6)


def test_newton_stream_covers_every_group_each_pass():
    ops = _take(workloads.newton_ops(0), 2 * len(workloads.NEWTON_GROUPS))
    groups = [(op.d, op.k0, abs(op.b)) for op in ops]
    first, second = groups[: len(groups) // 2], groups[len(groups) // 2 :]
    assert [(d, k0, round(b, 12)) for d, k0, b in first] == [(d, k0, round(b, 12)) for d, k0, b in second]


def test_run_length_is_whole_cycles_fixed_by_seconds():
    for name, cls in workloads.WORKLOADS.items():
        for seconds in (0, 1, 25, 60):
            count = run.run_count(cls, seconds)
            assert count >= cls.cycle and count % cls.cycle == 0, (name, seconds)


def _snapshot() -> dict:
    """Identity of every attribute ``tracing.install`` may replace."""
    import numpy

    snap = {}
    for mod in (sys.modules[f"discforge.{layer}"] for layer in tracing.LAYERS):
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr_name, attr in vars(value).items():
                    snap[(mod.__name__, name, attr_name)] = id(attr)
    for name in tracing.LINALG_ENTRIES:
        snap[("numpy.linalg", name)] = id(getattr(numpy.linalg, name))
    snap[("numpy", "roots")] = id(numpy.roots)
    return snap


def test_install_restores_every_attribute():
    before = _snapshot()
    ns_before = dict(vars(workloads))
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, namespaces=[workloads])
    try:
        assert _snapshot() != before
        assert workloads.factor_Q is not ns_before["factor_Q"]
        workloads.factor_Q(workloads.newton_model(4, True))
        assert tracer.calls["model.factor_Q"] == 1
        assert tracer.layer_calls["model"] >= 1
    finally:
        inst.restore()
    assert _snapshot() == before
    assert dict(vars(workloads)) == ns_before
    calls = sum(tracer.calls.values())
    workloads.factor_Q(workloads.newton_model(4, True))
    assert sum(tracer.calls.values()) == calls


def test_self_time_excludes_child_layers():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, namespaces=[workloads])
    try:
        model = workloads.newton_model(4, False)
        disc = workloads.model_disc(model, workloads.ModelDiscParams(0.1, 1.0), n_max=64)
        workloads.stationarity_residual(disc, workloads.DefiningFunction.pure(model))
    finally:
        inst.restore()
    total = tracer.fn_time["discs.model_disc"] + tracer.fn_time["discs.stationarity_residual"]
    assert 0 < tracer.layer_self["discs"] < total
    assert tracer.layer_calls["series"] > 0 and tracer.layer_self["series"] > 0


def _wl(name, seed=3):
    wl = workloads.WORKLOADS[name](ROOT, seed)
    wl.setup()
    return wl


def test_traced_and_untraced_outcomes_match():
    for name, count in (("model_survey", 6), ("newton_grid", 2)):
        outcomes, summary, extra, same = run.traced_pass(_wl(name), count)
        assert same, name
        assert len(outcomes) == count
        assert summary["layer_calls"]["series"] > 0
        assert extra["trace.overhead_frac"] > -1.0


def test_cli_traced_pass_matches_and_cleans_up():
    wl = _wl("cli_cold")
    try:
        outcomes, summary, extra, same = run.traced_pass(wl, len(workloads.CLI_COMMANDS))
    finally:
        wl.cleanup()
    assert same
    assert summary["layer_calls"]["cli"] == len(workloads.CLI_COMMANDS)
    assert extra["cli.import_s"] > 0 and extra["cli.run_1thread_p50_ms"] > 0
    assert not wl.work.exists()


def test_metric_names_match_benchmark_json(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert list(run.per_layer({}, 1, {})) == [m["name"] for m in spec["per_layer"]]

    assert run.main(["--workload", "cli_cold", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
