import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discforge.cli import RunConfig, main
from discforge.discs import LiftedDisc, ModelDiscParams, model_disc
from discforge.exceptions import ConfigError
from discforge.model import ModelPolynomial
from discforge.perturb import BiholoMap
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


def test_config_errors_exit_2(tmp_path, capsys):
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
    overflow_map = {"d": 4, "H1": [[1, 0, 1.0, 0.0], [1100, 0, 1e-12, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}
    nan_term = {"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, math.nan, 0.0]]}

    def z4(params):
        return {"model": Z4_MODEL, "solver": {"N": 32}, "params": params}

    def z5_map(coeff):
        return {"d": 4, "H1": [[1, 0, 1.0, 0.0], [5, 0, coeff, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}

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
        ("disc", {"model": Z4_MODEL, "params": {"disc": disc_b, "samples": 10**13}}),
        # a map monomial whose power along the disc passes the series order cap
        ("determine", {"model": Z4_MODEL, "solver": {"N": 64},
                       "params": {"map": overflow_map, "t": 1.0, "b_values": [[0, 0]]}}),
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
        # NaN and Infinity in the JSON text, wherever they stand
        ("disc", z4({"disc": {"b": [math.nan, 0], "v": [1, 0]}})),
        ("disc", z4({"disc": {"b": [0.1, 0], "v": [math.nan, 0]}})),
        ("disc", z4({"disc": {"b": [0.1, 0], "v": [math.inf, 0]}})),
        ("disc", z4({"disc": {**disc_b, "theta": math.nan}})),
        ("solve", z4({"disc": {"b": [math.nan, 0], "v": [1, 0]}})),
        ("determine", z4({"map": identity, "t": 0.5, "b_values": [[math.nan, 0]]})),
        ("solve", {**z4({"disc": disc_b}), "solver": {"N": 32, "x_norm_bound": math.nan}}),
        ("determine", z4({"map": identity, "t": 0.5, "boundary_tol": math.nan})),
        ("jet", {"model": D4K3_MODEL, "params": {"jets": [[math.nan, 0], [0, 0], [0, 0]]}}),
        ("determine", z4({"map": z5_map(math.nan), "t": 0.5})),
        ("solve", {**z4({"disc": disc_b}), "perturbation": {"terms": [nan_term]}}),
        ("solve", {**z4({"disc": disc_b}), "perturbation": {"theta1": [[2, math.nan]]}}),
        # and a string that float() or complex() reads as NaN or infinity
        ("disc", z4({"disc": {**disc_b, "theta": "nan"}})),
        ("disc", z4({"disc": {"b": ["nan"], "v": [1, 0]}})),
        ("disc", z4({"disc": {"b": [0.1, 0], "v": ["inf"]}})),
        ("residual", {**z4({"disc": disc_b}), "perturbation": {"theta1": [[2, "nan"]]}}),
    ]
    for k, (command, config) in enumerate(malformed):
        rc, _ = _run(tmp_path, command, config, name=f"m{k}.json")
        assert rc == 2, (command, config)
    # a bad determine parameter is refused before the experiment runs, by name;
    # it is never reported as a map that breaks the hypotheses
    bad_params = [
        ("boundary_tol", -1), ("boundary_tol", "nan"), ("boundary_tol", "inf"), ("boundary_tol", "-inf"),
        ("t", 0), ("t", -0.5), ("t", 1.5), ("t", "nan"), ("t", "inf"),
        ("b_values", [[0.5, 0]]), ("b_values", [[0.1, 0], [0.3, -0.4]]), ("b_values", [["nan", 0]]),
        # an experiment with no disc, and an object, which is not a list
        ("b_values", []), ("b_values", {}),
    ]
    for k, (key, value) in enumerate(bad_params):
        capsys.readouterr()
        rc, out = _run(tmp_path, "determine", z4({"map": identity, "t": 0.5, key: value}), name=f"p{k}.json")
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists(), (key, value)
        assert f"params.{key}" in err and "[hypothesis]" not in err, (key, value, err)
    # an integer field takes an int or an integral float, never a fraction,
    # a boolean or a string, and the refusal names the field
    term = {"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, 1e-3, 0.0]]}
    not_integers = [
        ("disc", {**z4({"disc": disc_b}), "solver": {"N": 32.7}}, "N"),
        ("disc", {**z4({"disc": disc_b}), "solver": {"N": True}}, "N"),
        ("disc", {**z4({"disc": disc_b}), "solver": {"N": "64"}}, "N"),
        ("disc", {**z4({"disc": disc_b}), "solver": {"max_iter": 2.5}}, "max_iter"),
        ("analyze", {"model": Z4_MODEL, "schema": 1.5}, "schema"),
        ("analyze", {"model": {**Z4_MODEL, "d": 4.9}}, "d"),
        ("analyze", {"model": {**Z4_MODEL, "k0": 2.2}}, "k0"),
        ("analyze", {"model": {**Z4_MODEL, "alpha": [{"j": 2.5, "re": 1.0}]}}, "j"),
        ("disc", z4({"disc": disc_b, "samples": 8.9}), "params.samples: value"),
        ("disc", z4({"disc": disc_b, "samples": True}), "params.samples: value"),
        ("gap", {"model": Z4_MODEL, "params": {"n_angles": 4.5}}, "params.n_angles: value"),
        *(
            ("analyze", {"model": Z4_MODEL, "perturbation": {"terms": [{**term, key: value}]}}, key)
            for key, value in (("i", 3.5), ("j", 2.5), ("l", False))
        ),
        ("analyze", {"model": Z4_MODEL, "perturbation": {"terms": [{**term, "coeffs": [[0.5, 0, 1.0, 0.0]]}]}}, "m"),
        ("analyze", {"model": Z4_MODEL, "perturbation": {"terms": [{**term, "coeffs": [[0, "0", 1.0, 0.0]]}]}}, "n"),
        ("analyze", {"model": Z4_MODEL, "perturbation": {"theta1": [[2.5, 1e-4]]}}, "theta1 degree"),
        ("determine", z4({"map": {**identity, "d": 4.5}, "t": 0.5}), "d"),
        ("determine", z4({"map": {**identity, "H1": [[1.5, 0, 1.0, 0.0]]}, "t": 0.5}), "j"),
        ("determine", z4({"map": {**identity, "H2": [[0, 1.5, 1.0, 0.0]]}, "t": 0.5}), "l"),
    ]
    for k, (command, config, key) in enumerate(not_integers):
        capsys.readouterr()
        rc, out = _run(tmp_path, command, config, name=f"i{k}.json")
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists(), (command, config)
        assert f"{key} must be an integer" in err, (key, err)
    # an integral float is that integer
    rc, out = _run(tmp_path, "disc", {**z4({"disc": disc_b}), "solver": {"N": 64.0}}, name="n64.json")
    assert rc == 0 and json.loads((out / "manifest.json").read_text())["n_max"] == 64
    # a map that blows up on the zero set fails the hypothesis gate, not the
    # composed disc's pin check
    capsys.readouterr()
    rc, _ = _run(tmp_path, "determine", z4({"map": z5_map(1e300), "t": 0.5, "b_values": [[0.1, 0]]}))
    assert rc == 2
    assert "[hypothesis] map moves the zero set" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", "--config", str(broken), "--out", str(out)]) == 2
    broken.write_bytes(b'{"model": "\xff"}')  # not UTF-8
    assert main(["analyze", "--config", str(broken), "--out", str(out)]) == 2
    assert not out.exists()


_TERMS = [{"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, 1e-3, 0.0]]}]
# one valid config per command, with every section and parameter it reads
_VALID = {
    "analyze": {"schema": 1, "model": D4K3_MODEL},
    "disc": {
        "model": Z4_MODEL,
        "solver": {"N": 16},
        "params": {"disc": {"b": [0.1, 0.0], "v": [1.0, 0.0], "theta": 0.5}, "samples": 8},
    },
    "residual": {
        "model": Z4_MODEL,
        "perturbation": {"terms": _TERMS, "theta1": [[2, 1e-4]]},
        "solver": {"N": 16},
        "params": {"disc": {"b": [0.1, 0.0], "v": [1.0, 0.0]}},
    },
    "solve": {
        "model": Z4_MODEL,
        "perturbation": {"terms": _TERMS},
        "solver": {"N": 32, "tol": 1e-9, "max_iter": 25, "svd_threshold": 1e-8, "x_norm_bound": 10.0},
        "params": {"disc": {"b": [0.1, 0.0], "v": [1.0, 0.0]}},
    },
    "kernel": {"model": Z4_MODEL},
    "jet": {"model": Z4_MODEL, "params": {"jets": [[-1.0, 0.0], [0.0, 0.0]]}},
    "gap": {"model": Z4_MODEL, "params": {"n_angles": 8}},
    "determine": {
        "model": Z4_MODEL,
        "solver": {"N": 32},
        "params": {
            "map": {"d": 4, "H1": [[1, 0, 1.0, 0.0], [9, 0, 1e-4, 0.0]], "H2": [[0, 1, 1.0, 0.0]]},
            "t": 0.125,
            "b_values": [[0.1, 0.0]],
            "boundary_tol": 1e-3,
        },
    },
}


def _numeric_leaves(node, path=()):
    """The paths of every int and float in a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _numeric_leaves(child, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def test_non_finite_config_numbers_exit_2(tmp_path):
    # NaN, the infinities and float literals past the float range are refused
    # where the JSON is read, whichever number of whichever section they replace
    for command, config in _VALID.items():
        rc, _ = _run(tmp_path, command, config, name=f"{command}.json")
        assert rc == 0, command
        for k, path in enumerate(_numeric_leaves(config)):
            marked = copy.deepcopy(config)
            node = marked
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = "@"
            for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
                cfg = tmp_path / "leaf.json"
                cfg.write_text(json.dumps(marked).replace('"@"', literal))
                out = tmp_path / f"out_{command}_{k}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, (command, path, literal)
                assert not out.exists()


def test_overflowing_runs_exit_1_and_write_only_the_manifest(tmp_path):
    # accepted inputs whose numbers fail their gates: a numerical failure, and
    # no artifact holding NaN or Infinity.  The d=8, k0=7 model disc at
    # |b| = 0.49 has the weight (1 - 2|b|)^7 = 1.3e-12, under the positivity gate
    d8k7 = {"d": 8, "k0": 7, "alpha": [{"j": 4, "re": 1.0, "im": 0.0}, {"j": 7, "re": 0.05, "im": 0.0}]}
    near_half = {"disc": {"b": [0.49, 0.0], "v": [1.0, 0.0]}}
    identity8 = {"d": 8, "H1": [[1, 0, 1.0, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}
    cases = [
        ("disc", {"model": Z4_MODEL, "solver": {"N": 32}, "params": {"disc": {"b": [0.49, 0.0], "v": [1e80, 0.0]}}}),
        ("residual", {"model": Z4_MODEL, "solver": {"N": 32}, "params": {"disc": {"b": [0.1, 0.0], "v": [1e200, 0.0]}}}),
        ("gap", {"model": {"d": 4, "k0": 2, "alpha": [{"j": 2, "re": 1e300, "im": 0.0}]}}),
        ("residual", {"model": d8k7, "solver": {"N": 32}, "params": near_half}),
        ("solve", {"model": d8k7, "solver": {"N": 32}, "params": near_half}),
        ("determine", {"model": d8k7, "solver": {"N": 32}, "params": {"map": identity8, "b_values": [[0.49, 0]]}}),
    ]
    for k, (command, config) in enumerate(cases):
        rc, out = _run(tmp_path, command, config, name=f"o{k}.json")
        assert rc == 1, (command, config)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure" and manifest["files"] == []


def test_failing_runs_report_without_numpy_warnings(tmp_path, capsys):
    # the non-finite gates are the only report of an overflow: an accepted
    # input that overflows exits 1 and a map that does exits 2, with no numpy
    # RuntimeWarning ahead of the message
    z5_map = {"d": 4, "H1": [[1, 0, 1.0, 0.0], [5, 0, 1e300, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}
    cases = [
        ("gap", {"model": {"d": 4, "k0": 2, "alpha": [{"j": 2, "re": 1e300, "im": 0.0}]}}, 1),
        ("disc", {"model": Z4_MODEL, "solver": {"N": 32}, "params": {"disc": {"b": [0.49, 0.0], "v": [1e80, 0.0]}}}, 1),
        ("determine", {"model": Z4_MODEL, "solver": {"N": 32},
                       "params": {"map": z5_map, "t": 0.5, "b_values": [[0.1, 0]]}}, 2),
    ]
    for k, (command, config, code) in enumerate(cases):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out = _run(tmp_path, command, config, name=f"w{k}.json")
        err = capsys.readouterr().err
        assert rc == code, (command, err)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (command, caught)
        assert "RuntimeWarning" not in err
        if code == 1:
            assert [p.name for p in out.iterdir()] == ["manifest.json"]
        else:
            assert not out.exists()


def test_run_config_reads_typed_params():
    identity = {"d": 4, "H1": [[1, 0, 1.0, 0.0]], "H2": [[0, 1, 1.0, 0.0]]}
    disc = {"b": [0.1, 0.0], "v": [1.0, 0.0]}
    cfg = RunConfig.from_dict({"model": Z4_MODEL, "params": {"disc": disc, "samples": 8}}, "disc")
    assert cfg.params == {"disc": ModelDiscParams(0.1, 1.0), "samples": 8}
    params = {"map": identity, "t": 1, "b_values": [[0.1, 0.2]]}
    cfg = RunConfig.from_dict({"model": Z4_MODEL, "params": params}, "determine")
    assert cfg.params == {"map": BiholoMap.identity(4), "t": 1.0, "b_values": (0.1 + 0.2j,)}
    # every parameter is read, and refused, before any command runs
    with pytest.raises(ConfigError, match="params.jets"):
        RunConfig.from_dict({"model": Z4_MODEL, "params": {"jets": [[1.0, 0.0, 2.0]]}}, "jet")
    with pytest.raises(ConfigError, match="params.samples"):
        RunConfig.from_dict({"model": Z4_MODEL, "params": {"disc": disc, "samples": 0}}, "disc")
    with pytest.raises(ConfigError, match="needs params.map"):
        RunConfig.from_dict({"model": Z4_MODEL}, "determine")


def test_run_config_checks_the_jet_count(tmp_path, capsys):
    # d = 4, k0 = 3 has ell0 = k0 - d/2 = 1, so its jet vector has ell0 + 2 = 3 entries
    jets = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    for n in (1, 4):
        config = {"model": D4K3_MODEL, "params": {"jets": jets[:n]}}
        with pytest.raises(ConfigError, match=rf"params.jets needs k0 - d/2 \+ 2 = 3 pairs, not {n}"):
            RunConfig.from_dict(config, "jet")
        capsys.readouterr()
        rc, out = _run(tmp_path, "jet", config, name=f"jets{n}.json")
        assert rc == 2 and not out.exists()
        assert "params.jets needs" in capsys.readouterr().err
    cfg = RunConfig.from_dict({"model": D4K3_MODEL, "params": {"jets": jets[:3]}}, "jet")
    assert cfg.params["jets"] == (1.0, 0.0, 0.0)


# one config per command that reads real or complex fields, all of them set
_NUMBERS = {
    "solve": {
        "model": Z4_MODEL,
        "perturbation": {"terms": [{"i": 3, "j": 2, "l": 0, "coeffs": [[0, 0, 1e-3, 0.0]]}], "theta1": [[2, 1e-4]]},
        "solver": {"N": 32, "tol": 1e-9, "svd_threshold": 1e-8, "x_norm_bound": 10.0},
        "params": {"disc": {"b": [0.1, 0.0], "v": [1.0, 0.0], "theta": 0.5}},
    },
    "jet": {"model": D4K3_MODEL, "params": {"jets": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}},
    "determine": {
        "model": Z4_MODEL,
        "solver": {"N": 32},
        "params": {
            "map": {"d": 4, "H1": [[1, 0, 1.0, 0.0], [9, 0, 1e-4, 0.0]], "H2": [[0, 1, 1.0, 0.0]]},
            "t": 0.5,
            "b_values": [[0.1, 0.0], [0.0, 0.1]],
            "boundary_tol": 1e-3,
        },
    },
}
# where each real field stands, and the name its refusal gives
_REAL_FIELDS = [
    ("solve", ("solver", "tol"), "tol"),
    ("solve", ("solver", "svd_threshold"), "svd_threshold"),
    ("solve", ("solver", "x_norm_bound"), "x_norm_bound"),
    ("solve", ("model", "alpha", 0, "re"), "re"),
    ("solve", ("model", "alpha", 0, "im"), "im"),
    ("solve", ("perturbation", "terms", 0, "coeffs", 0, 2), "coefficient re"),
    ("solve", ("perturbation", "terms", 0, "coeffs", 0, 3), "coefficient im"),
    ("solve", ("perturbation", "theta1", 0, 1), "theta1 value"),
    ("solve", ("params", "disc", "theta"), "theta"),
    ("determine", ("params", "map", "H1", 1, 2), "H1 re"),
    ("determine", ("params", "map", "H2", 0, 3), "H2 im"),
    ("determine", ("params", "t"), "params.t: value"),
    ("determine", ("params", "boundary_tol"), "params.boundary_tol: value"),
]
# and each complex field, a pair [re, im]
_PAIR_FIELDS = [
    ("solve", ("params", "disc", "b"), "b"),
    ("solve", ("params", "disc", "v"), "v"),
    *(("jet", ("params", "jets", k), "params.jets: value") for k in range(3)),
    *(("determine", ("params", "b_values", k), "params.b_values: value") for k in range(2)),
]


def _with(command, path, value):
    config = copy.deepcopy(_NUMBERS[command])
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _number_cases():
    for command, path, name in _REAL_FIELDS:
        for bad in ("0.5", True):
            yield command, path, bad, f"{name} must be a real number, not {bad!r}"
    for command, path, name in _PAIR_FIELDS:
        for bad in ("0.5", True):
            yield command, path, [bad, 0.0], f"{name} re must be a real number, not {bad!r}"
            yield command, path, [0.0, bad], f"{name} im must be a real number, not {bad!r}"
        for bad in ([], [0.1], [0.1, 0, 0], "0.1"):
            yield command, path, bad, f"{name} must be a pair [re, im] of real numbers, not {bad!r}"
    # an integer is a real, and [0, 0] a pair
    yield "solve", ("model", "alpha", 0, "re"), 1, None
    yield "solve", ("params", "disc", "b"), [0, 0], None
    yield "determine", ("params", "map", "H1", 0, 2), 1, None


@pytest.mark.parametrize("command, path, value, refusal", list(_number_cases()))
def test_every_number_is_read_by_one_rule(tmp_path, capsys, command, path, value, refusal):
    # a real field takes a JSON number and a complex one exactly two; a string
    # or a boolean is refused by RunConfig, naming the field, before any command runs
    config = _with(command, path, value)
    if refusal is None:
        as_floats = json.loads(json.dumps(value), parse_int=float)
        assert RunConfig.from_dict(config, command) == RunConfig.from_dict(_with(command, path, as_floats), command)
        return
    with pytest.raises(ConfigError) as caught:
        RunConfig.from_dict(config, command)
    assert refusal in str(caught.value)
    capsys.readouterr()
    rc, out = _run(tmp_path, command, config)
    assert rc == 2 and not out.exists()
    assert refusal in capsys.readouterr().err


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


def test_verbose_lists_the_written_files_on_stderr(tmp_path, capsys):
    config = {
        "model": Z4_MODEL,
        "solver": {"N": 16},
        "params": {"disc": {"b": [0.0, 0.0], "v": [1.0, 0.0]}, "samples": 8},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["disc", "--config", str(cfg), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["-v"]) == 0
    wrote = [f"DEBUG wrote {out / name}" for name in ("boundary.csv", "disc.json")]
    assert capsys.readouterr().err.splitlines() == wrote


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
    # the child finds the package in this checkout's src/, as this process does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "discforge.cli", "analyze", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "analyze.json").exists()
    proc = subprocess.run(
        [sys.executable, "-m", "discforge.cli", "nosuch", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
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
def _model_configs(draw, max_d=12):
    d = draw(st.sampled_from(range(2, max_d + 1, 2)))
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


def _solver_options(max_n):
    return st.fixed_dictionaries(
        {},
        optional={
            "N": _or_garbage(st.integers(4, max_n)),
            "tol": _or_garbage(st.floats(1e-12, 1e-6)),
            "max_iter": _or_garbage(st.integers(1, 5)),
            "svd_threshold": _or_garbage(st.floats(1e-12, 1e-6)),
            "x_norm_bound": _or_garbage(st.floats(0.1, 20.0)),
        },
    )


_PAIRS = st.lists(st.tuples(_UNIT, _UNIT).map(list), min_size=1, max_size=5)
# near-identity maps: the identity plus at most two small monomials per component
_MONOMIALS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 3), st.floats(-1e-3, 1e-3), st.just(0.0)).map(list), max_size=2
)
_MAP = st.fixed_dictionaries(
    {
        "d": _or_garbage(st.sampled_from(range(2, 9, 2))),
        "H1": _or_garbage(_MONOMIALS.map(lambda extra: [[1, 0, 1.0, 0.0]] + extra)),
        "H2": _or_garbage(_MONOMIALS.map(lambda extra: [[0, 1, 1.0, 0.0]] + extra)),
    }
)
_PARAMS = {
    "analyze": st.just({}),
    "disc": st.fixed_dictionaries(
        {"disc": _or_garbage(_DISC)}, optional={"samples": _or_garbage(st.integers(1, 64))}
    ),
    "residual": st.fixed_dictionaries({"disc": _or_garbage(_DISC)}),
    "solve": st.fixed_dictionaries({"disc": _or_garbage(_DISC)}),
    "kernel": st.just({}),
    "jet": st.fixed_dictionaries({}, optional={"jets": _or_garbage(_PAIRS)}),
    "gap": st.fixed_dictionaries({}, optional={"n_angles": _or_garbage(st.integers(1, 64))}),
    "determine": st.fixed_dictionaries(
        {"map": _or_garbage(_MAP)},
        optional={
            "t": _or_garbage(st.floats(1e-3, 1.0)),
            "b_values": _or_garbage(_PAIRS.map(lambda pairs: [[0.45 * re, 0.3 * im] for re, im in pairs[:2]])),
            "boundary_tol": _or_garbage(st.floats(1e-6, 1e-2)),
        },
    ),
}


def _configs(command, max_d=12, solver=_solver_options(64)):
    """A config for ``command``: mostly valid, garbage at about one key in ten."""
    config = st.fixed_dictionaries(
        {"model": _model_configs(max_d), "params": _or_garbage(_PARAMS[command])},
        optional={
            "schema": _or_garbage(st.just(1)),
            "perturbation": _or_garbage(
                st.fixed_dictionaries(
                    {}, optional={"terms": _or_garbage(_TERMS), "theta1": _or_garbage(_THETA1)}
                )
            ),
            "solver": _or_garbage(solver),
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


@st.composite
def _solving_configs(draw, command):
    """A config for ``command`` at the sizes of a quick solve: d <= 8, N <= 48, max_iter <= 5."""
    config = draw(_configs(command, max_d=8, solver=_solver_options(48)))
    model, params = config["model"], config["params"]
    if not isinstance(model, dict) or not draw(st.integers(0, 9)):
        return config
    # mostly fit the perturbation and the map to the model, so that most
    # configs get past the validators to the solves
    d = model.get("d")
    if isinstance(d, int) and d >= 2:
        i = draw(st.integers(d // 2 + 1, d))
        eps = draw(st.tuples(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01)))
        config = {**config, "perturbation": {"terms": [{"i": i, "j": d + 1 - i, "l": 0, "coeffs": [[0, 0, *eps]]}]}}
    if isinstance(params, dict) and isinstance(params.get("map"), dict):
        config = {**config, "params": {**params, "map": {**params["map"], "d": d}}}
    return config


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["jet", "gap", "kernel", "solve", "determine"]).flatmap(
        lambda c: st.tuples(st.just(c), _solving_configs(c))
    )
)
def test_any_config_of_the_other_commands_exits_0_1_or_2(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")]) in (0, 1, 2)
