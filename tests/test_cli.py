import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discforge.cli import main
from discforge.discs import LiftedDisc, ModelDiscParams, model_disc
from discforge.model import ModelPolynomial
from discforge.series import TrigSeries, coeff_distance

Z4_MODEL = {"d": 4, "k0": 2, "alpha": [{"j": 2, "re": 1.0, "im": 0.0}]}
D4K3_MODEL = {"d": 4, "k0": 3, "alpha": [{"j": 3, "re": 0.25, "im": 0.0}, {"j": 2, "re": 1.0, "im": 0.0}]}


def _run(tmp_path, command, config, seed=None, name="cfg.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out_{command}_{name}"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def test_analyze_quartic_report(tmp_path):
    rc, out = _run(tmp_path, "analyze", {"model": Z4_MODEL})
    assert rc == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["q_coeffs"] == [[1, -4.0, 0.0]]
    assert rep["ell0"] == 0 and rep["i0"] == 0
    assert rep["kernel_dim"] == 7
    assert rep["winding"] == {"q": 1, "s": 0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["status"] == "ok"
    assert manifest["files"] == ["analyze.json"]
    assert manifest["tool"]["name"] == "discforge"
    assert manifest["wall_time_s"] >= 0


def test_analyze_split_model_roots(tmp_path):
    rc, out = _run(tmp_path, "analyze", {"model": D4K3_MODEL})
    assert rc == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["kernel_dim"] == 11
    (inside,) = rep["roots_inside"]
    assert inside["mult"] == 1
    assert abs(inside["root"][0] - (8 - math.sqrt(55)) / 3) < 1e-12
    assert abs(inside["root"][1]) < 1e-12
    assert rep["ell0"] == 1 and rep["i0"] == 1


def test_config_errors_exit_2(tmp_path):
    bad_alpha = {"d": 4, "k0": 2, "alpha": [{"j": 2, "re": 1.0, "im": 0.3}]}
    rc, _ = _run(tmp_path, "analyze", {"model": bad_alpha}, name="a.json")
    assert rc == 2
    rc, _ = _run(tmp_path, "analyze", {"model": Z4_MODEL, "bogus": 1}, name="b.json")
    assert rc == 2
    rc, _ = _run(tmp_path, "analyze", {"model": Z4_MODEL, "params": {"n_angles": 4}}, name="c.json")
    assert rc == 2
    rc, _ = _run(tmp_path, "analyze", {"model": Z4_MODEL, "solver": {"order": 9}}, name="d.json")
    assert rc == 2
    rc, _ = _run(tmp_path, "analyze", {"model": Z4_MODEL, "schema": 99}, name="e.json")
    assert rc == 2
    # malformed values are config errors too, never a traceback
    disc = {"b": [0.0, 0.0], "v": [1.0, 0.0]}
    disc_b = {"b": [0.1, 0.0], "v": [1.0, 0.0]}
    nan_model = {"d": 4, "k0": 2, "alpha": [{"j": 2, "re": math.nan, "im": 0.0}]}
    bogus_term = {"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, 1e-3, 0.0]], "bogus": 1}
    huge_map = {"d": 4, "H1": [[math.inf, 0, 1.0, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}
    identity = {"d": 4, "H1": [[1, 0, 1.0, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}
    malformed = [
        ("analyze", {"model": {"d": 4, "k0": 2, "alpha": [{"re": 1.0}]}}),
        ("analyze", {"model": {"d": 4, "k0": 2, "alpha": [{"j": 2}]}}),
        ("analyze", {"model": {"d": 4, "k0": 2, "alpha": 5}}),
        ("analyze", {"model": Z4_MODEL, "schema": "x"}),
        ("analyze", {"model": Z4_MODEL, "perturbation": 5}),
        ("analyze", {"model": Z4_MODEL, "solver": {"N": "abc"}}),
        ("analyze", {"model": Z4_MODEL, "solver": {"tol": "x"}}),
        ("disc", {"model": Z4_MODEL, "params": {"disc": disc, "samples": "x"}}),
        ("gap", {"model": Z4_MODEL, "params": {"n_angles": "x"}}),
        ("disc", {"model": nan_model, "params": {"disc": disc}}),
        ("analyze", {"model": {"d": 4, "k0": 2, "alpha": [{"j": 2, "re": 1.0, "bogus": 5}]}}),
        ("analyze", {"model": {**Z4_MODEL, "extra": 1}}),
        ("analyze", {"model": Z4_MODEL, "perturbation": {"terms": [bogus_term]}}),
        ("determine", {"model": Z4_MODEL, "params": {"map": huge_map}}),  # 1e400 in JSON
        # sizes past their caps are refused before anything is allocated
        ("disc", {"model": Z4_MODEL, "solver": {"N": 70000}, "params": {"disc": disc_b}}),
        ("residual", {"model": Z4_MODEL, "solver": {"N": 1e300}, "params": {"disc": disc_b}}),
        ("gap", {"model": Z4_MODEL, "params": {"n_angles": 10**15}}),
        # so are model degrees past the cap, and series past their order cap
        ("analyze", {"model": {"d": 10**9, "k0": 10**9 - 1, "alpha": [{"j": 10**9 - 1, "re": 1.0}]}}),
        ("residual", {"model": {"d": 40, "k0": 20, "alpha": [{"j": 20, "re": 1.0}]},
                      "solver": {"N": 4096}, "params": {"disc": disc_b}}),
        # integers past the float range, where a number is read as a float
        ("analyze", {"model": {"d": -(10**400), "k0": 1, "alpha": [{"j": 1, "re": 1.0}]}}),
        ("residual", {"model": Z4_MODEL, "params": {"disc": {"b": [10**400, 0], "v": [1, 0]}}}),
        ("disc", {"model": Z4_MODEL, "params": {"disc": {**disc, "theta": -(10**400)}}}),
        ("jet", {"model": Z4_MODEL, "params": {"jets": [[10**400, 0]]}}),
        ("determine", {"model": Z4_MODEL, "params": {"map": identity, "b_values": [[0, 10**400]]}}),
        # a model whose curvature vanishes on the circle breaks the hypotheses
        ("analyze", {"model": {"d": 4, "k0": 3, "alpha": [{"j": 3, "re": 1.0}, {"j": 2, "re": 1.0}]}}),
    ]
    for k, (command, config) in enumerate(malformed):
        rc, _ = _run(tmp_path, command, config, name=f"m{k}.json")
        assert rc == 2, (command, config)


def test_unreadable_config_exits_2(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", "--config", str(broken), "--out", str(out)]) == 2
    assert not out.exists()


def test_disc_writes_family_disc_and_trace(tmp_path):
    config = {
        "model": Z4_MODEL,
        "solver": {"N": 16},
        "params": {"disc": {"b": [0.0, 0.0], "v": [1.0, 0.0]}, "samples": 8},
    }
    rc, out = _run(tmp_path, "disc", config)
    assert rc == 0
    rep = json.loads((out / "disc.json").read_text())
    g = TrigSeries.from_dict(rep["disc"]["g"])
    assert g.coeff(0) == 6.0 and g.coeff(1) == -8.0 and g.coeff(2) == 2.0
    assert max(rep["residual"]) < 1e-12
    lines = (out / "boundary.csv").read_text().splitlines()
    assert lines[0] == "angle,c,h_re,h_im,g_re,g_im"
    assert len(lines) == 9


def test_residual_of_family_disc_under_perturbation(tmp_path):
    perturbation = {"terms": [{"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, 1e-3, 0.0]]}], "theta1": []}
    config = {
        "model": Z4_MODEL,
        "perturbation": perturbation,
        "solver": {"N": 32},
        "params": {"disc": {"b": [0.0, 0.0], "v": [1.0, 0.0]}},
    }
    rc, out = _run(tmp_path, "residual", config)
    assert rc == 0
    rep = json.loads((out / "residual.json").read_text())
    # the family is exact for the model, so the defect is set by epsilon
    assert 1e-5 < rep["max"] < 1e-1


def test_solve_identity_without_perturbation(tmp_path):
    config = {
        "model": Z4_MODEL,
        "perturbation": {"terms": [], "theta1": []},
        "solver": {"N": 32},
        "params": {"disc": {"b": [0.1, 0.0], "v": [1.0, 0.0]}},
    }
    rc, out = _run(tmp_path, "solve", config)
    assert rc == 0
    rep = json.loads((out / "solve.json").read_text())
    assert rep["converged"] is True
    assert rep["iterations"] == 0
    solved = LiftedDisc.from_dict(rep["disc"])
    init = model_disc(ModelPolynomial.from_dict(Z4_MODEL), ModelDiscParams(0.1, 1.0), n_max=32)
    for a, b in ((solved.c, init.c), (solved.h, init.h), (solved.g, init.g)):
        assert coeff_distance(a, b) < 1e-12


def test_solve_numerical_failure_exit_1(tmp_path):
    config = {
        "model": Z4_MODEL,
        "perturbation": {"terms": [{"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, 1e-3, 0.0]]}]},
        "solver": {"N": 32, "max_iter": 1},
        "params": {"disc": {"b": [0.0, 0.0], "v": [1.0, 0.0]}},
    }
    rc, out = _run(tmp_path, "solve", config)
    assert rc == 1
    assert not (out / "solve.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_failure"
    assert manifest["error"]


def test_gap_constant_column(tmp_path):
    rc, out = _run(tmp_path, "gap", {"model": Z4_MODEL, "params": {"n_angles": 64}})
    assert rc == 0
    rep = json.loads((out / "gap.json").read_text())
    assert abs(rep["mean"] - 36.0) < 1e-10
    lines = (out / "gap.csv").read_text().splitlines()
    assert lines[0] == "theta,gap"
    gaps = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(gaps) == 64
    assert max(abs(v - 36.0) for v in gaps) < 1e-10


def test_kernel_counts_agree(tmp_path):
    rc, out = _run(tmp_path, "kernel", {"model": Z4_MODEL})
    assert rc == 0
    rep = json.loads((out / "kernel.json").read_text())
    assert rep["dim_formula"] == rep["dim_svd"] == rep["dim_basis"] == 7
    assert max(rep["residuals"]) < 1e-9


def test_jet_matrix_and_reconstruction(tmp_path):
    config = {"model": Z4_MODEL, "params": {"jets": [[-1.0, 0.0], [0.0, 0.0]]}}
    rc, out = _run(tmp_path, "jet", config)
    assert rc == 0
    rep = json.loads((out / "jet.json").read_text())
    assert rep["n"] == 2
    assert rep["determinant"] == [2.0, 0.0]
    series = TrigSeries.from_dict(rep["reconstruction"])
    assert series.coeff(0) == 1.0 and series.coeff(1) == -1.0
    assert np.allclose(rep["reconstruction_jets"], [[-1.0, 0.0], [0.0, 0.0]])


def test_determine_reports_runs(tmp_path):
    eps = 1e-4
    config = {
        "model": Z4_MODEL,
        "solver": {"N": 64},
        "params": {
            "map": {
                "d": 4,
                "H1": [[1, 0, 1.0, 0.0], [9, 0, eps, 0.0]],
                "H2": [[0, 1, 1.0, 0.0], [0, 3, eps, 0.0]],
            },
            "t": 0.125,
            "b_values": [[0.0, 0.0]],
        },
    }
    rc, out = _run(tmp_path, "determine", config)
    assert rc == 0
    rep = json.loads((out / "determine.json").read_text())
    assert rep["t"] == 0.125
    (run,) = rep["runs"]
    assert run["residual_composed"] < 1e-7
    assert run["disc_distance"] < 1e-6


def test_reruns_are_byte_identical(tmp_path):
    config = {"model": D4K3_MODEL, "params": {"n_angles": 16}}
    rc1, out1 = _run(tmp_path, "gap", config, seed=7, name="r1.json")
    rc2, out2 = _run(tmp_path, "gap", config, seed=7, name="r2.json")
    assert rc1 == rc2 == 0
    assert (out1 / "gap.json").read_bytes() == (out2 / "gap.json").read_bytes()
    assert (out1 / "gap.csv").read_bytes() == (out2 / "gap.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": Z4_MODEL}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "discforge.cli", "analyze", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "analyze.json").exists()
    proc = subprocess.run(
        [sys.executable, "-m", "discforge.cli", "nosuch", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# ---- the exit-code contract, for any config ----------------------------------

_GARBAGE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _or_garbage(valid):
    # garbage at one key in ten, so that most configs get past the parsers
    return st.integers(0, 9).flatmap(lambda k: _GARBAGE if k == 0 else valid)


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _model_configs(draw):
    d = draw(st.sampled_from(range(2, 13, 2)))
    k0 = draw(st.integers(d // 2, d - 1))
    alpha = []
    for j in range(d // 2, k0 + 1):
        im = 0.0 if 2 * j == d else draw(_or_garbage(_UNIT))
        re = 1.0 if j == k0 else draw(_or_garbage(_UNIT))
        alpha.append(draw(_or_garbage(st.just({"j": draw(_or_garbage(st.just(j))), "re": re, "im": im}))))
    model = {"d": draw(_or_garbage(st.just(d))), "k0": draw(_or_garbage(st.just(k0))), "alpha": alpha}
    return draw(_or_garbage(st.just(model)))


_TERMS = st.lists(
    st.fixed_dictionaries(
        {
            "i": _or_garbage(st.integers(0, 4)),
            "j": _or_garbage(st.integers(0, 4)),
            "l": _or_garbage(st.integers(0, 1)),
            "coeffs": _or_garbage(
                st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), _UNIT, _UNIT).map(list), max_size=2)
            ),
        }
    ),
    max_size=2,
)
_THETA1 = st.lists(st.tuples(st.integers(2, 4), _UNIT).map(list), max_size=2)
_PAIR = st.tuples(st.floats(-0.45, 0.45), st.floats(-0.3, 0.3)).map(list)
_DISC = st.fixed_dictionaries(
    {"b": _or_garbage(_PAIR), "v": _or_garbage(_PAIR.map(lambda p: [1.0 + p[0], p[1]]))},
    optional={"theta": _or_garbage(_UNIT)},
)
_SOLVER = st.fixed_dictionaries(
    {},
    optional={
        "N": _or_garbage(st.integers(4, 64)),
        "tol": _or_garbage(st.floats(1e-12, 1e-6)),
        "max_iter": _or_garbage(st.integers(1, 5)),
        "svd_threshold": _or_garbage(st.floats(1e-12, 1e-6)),
        "x_norm_bound": _or_garbage(st.floats(0.1, 20.0)),
    },
)
_PARAMS = {
    "analyze": st.just({}),
    "disc": st.fixed_dictionaries(
        {"disc": _or_garbage(_DISC)}, optional={"samples": _or_garbage(st.integers(1, 64))}
    ),
    "residual": st.fixed_dictionaries({"disc": _or_garbage(_DISC)}),
}


def _configs(command):
    """A config for ``command``: mostly valid, garbage at about one key in ten."""
    config = st.fixed_dictionaries(
        {"model": _model_configs(), "params": _or_garbage(_PARAMS[command])},
        optional={
            "schema": _or_garbage(st.just(1)),
            "perturbation": _or_garbage(
                st.fixed_dictionaries(
                    {}, optional={"terms": _or_garbage(_TERMS), "theta1": _or_garbage(_THETA1)}
                )
            ),
            "solver": _or_garbage(_SOLVER),
        },
    )
    # and now and then a key no section knows
    return st.tuples(config, _or_garbage(st.none())).map(
        lambda pair: pair[0] if pair[1] is None else {**pair[0], "bogus": pair[1]}
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["analyze", "disc", "residual"]).flatmap(lambda c: st.tuples(st.just(c), _configs(c))))
def test_any_config_exits_0_1_or_2(case):
    # the exit-code contract: success, numerical failure or config error, and
    # never an exception escaping main
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")]) in (0, 1, 2)
