"""Package surface: every exported name resolves, benchmarked entry points exist."""

import importlib
import pkgutil

import discforge


def test_every_all_entry_resolves():
    modules = ["discforge"] + [f"discforge.{m.name}" for m in pkgutil.iter_modules(discforge.__path__)]
    assert len(modules) > 6
    for name in modules:
        mod = importlib.import_module(name)
        for entry in getattr(mod, "__all__", ()):
            assert hasattr(mod, entry), f"{name}.__all__ names missing {entry!r}"


def test_traced_entry_points_keep_their_names():
    # the benchmark reports per-layer timings of these functions by name
    for key in ("discs.substitute_boundary", "perturb.compose_disc", "series.multiply", "series.from_samples"):
        layer, name = key.split(".")
        mod = importlib.import_module(f"discforge.{layer}")
        assert name in mod.__all__ and callable(getattr(mod, name)), key
    assert callable(importlib.import_module("discforge.solver")._linearize)


def test_perturb_keeps_exporting_the_monomial_helpers():
    # they live in discforge.model; discforge.perturb re-exports the same objects
    model = importlib.import_module("discforge.model")
    perturb = importlib.import_module("discforge.perturb")
    for name in ("d_z", "d_zbar", "d_u", "eval_mon"):
        assert name in model.__all__ and name in perturb.__all__, name
        assert getattr(perturb, name) is getattr(model, name), name
