"""Package surface: every exported name resolves and has a caller, benchmarked entry points exist."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import discforge

ROOT = Path(__file__).resolve().parent.parent


def test_every_all_entry_resolves():
    modules = ["discforge"] + [f"discforge.{m.name}" for m in pkgutil.iter_modules(discforge.__path__)]
    assert len(modules) > 6
    for name in modules:
        mod = importlib.import_module(name)
        for entry in getattr(mod, "__all__", ()):
            assert hasattr(mod, entry), f"{name}.__all__ names missing {entry!r}"


def test_traced_entry_points_keep_their_names():
    # the benchmark reports per-layer timings of these functions by name
    for key in ("discs.substitute_boundary", "perturb.compose_disc", "series.multiply"):
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


# Exported names that nothing in src/ or bench/ calls, each kept for a reason.
UNCALLED_EXPORTS = {
    "solver.shift_projection_matrix": "the acceptance gate imports it",
    "solver.eval_T_prime": "the reduced operator at a disc, which the solver tests read directly",
}


def _uses(node: ast.AST) -> Counter:
    """Names read under ``node`` as a variable or as an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) or isinstance(sub, ast.Attribute)
    )


def test_every_exported_name_has_a_caller():
    # a string (an __all__ entry, a benchmark's trace key) is not a use, and
    # neither is a name inside its own definition (a recursive call)
    src = sorted((ROOT / "src" / "discforge").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + sorted((ROOT / "bench").glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path in src:
        module = importlib.import_module("discforge" if path.stem == "__init__" else f"discforge.{path.stem}")
        for name in getattr(module, "__all__", ()):
            own = sum(
                (
                    _uses(node)
                    for node in trees[path].body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                ),
                Counter(),
            )
            if total[name] == own[name]:
                uncalled.append(f"{path.stem}.{name}")
    # an allowed name that gains a caller leaves the list too
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS), f"used nowhere in src/ or bench/: {uncalled}"
