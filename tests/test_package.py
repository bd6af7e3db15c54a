"""Package surface: every exported name and method resolves and has a caller, benchmarked entry points exist,
and config numbers are read only by the readers in discforge.exceptions."""

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


# Exported names, and public methods of exported classes, that nothing in
# src/ or bench/ calls, each kept for a reason.
UNCALLED_EXPORTS = {
    "solver.shift_projection_matrix": "the acceptance gate imports it",
    "solver.eval_T_prime": "the reduced operator at a disc, which the solver tests read directly",
    "series.TrigSeries.monomial": "the acceptance gate builds its input series with it",
}


def _uses(node: ast.AST) -> Counter:
    """Names read under ``node`` as a variable or as an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) or isinstance(sub, ast.Attribute)
    )


def test_every_exported_name_has_a_caller():
    # so has every module-level private function and class of src/, so that
    # a deleted caller leaves no helper behind.  A string (an __all__ entry, a
    # benchmark's trace key) is not a use, and neither is a name inside its
    # own definition (a recursive call) nor a test; a method is looked up by
    # its name alone, whatever its class
    src = sorted((ROOT / "src" / "discforge").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + sorted((ROOT / "bench").glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path in src:
        module = importlib.import_module("discforge" if path.stem == "__init__" else f"discforge.{path.stem}")
        private = [
            node.name
            for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        ]
        for name in [*getattr(module, "__all__", ()), *private]:
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
            for cls in (node for node in trees[path].body if isinstance(node, ast.ClassDef) and node.name == name):
                for method in cls.body:
                    public = isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                    if public and total[method.name] == _uses(method)[method.name]:
                        uncalled.append(f"{path.stem}.{name}.{method.name}")
    # an allowed name that gains a caller leaves the list too
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS), f"used nowhere in src/ or bench/: {uncalled}"


# The only functions of src/ that may convolve: series products go through
# ``multiply``, which convolves the factors' numerical carriers
# (``TrigSeries.window``); the solver's product table and its traces convolve
# raw coefficient windows of their own.
CONVOLVERS = {"series.multiply", "solver._Point._build", "solver._trace"}


def _convolving_scopes(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions and classes under ``tree`` that call ``convolve`` (``np.convolve`` or bare)."""
    found = set()

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "convolve":
                    found.add(scope)
            visit(child, inner)

    visit(tree, module)
    return found


def test_only_the_product_sites_convolve():
    # a new product path would bypass the carrier window unnoticed
    found = set()
    for path in sorted((ROOT / "src" / "discforge").glob("*.py")):
        found |= _convolving_scopes(ast.parse(path.read_text()), path.stem)
    assert found == CONVOLVERS, f"np.convolve called outside {sorted(CONVOLVERS)}: {sorted(found - CONVOLVERS)}"


# The only calls that may turn a config value into a number: each kind of value
# has one reader in discforge.exceptions.
NUMBER_READERS = {"integer", "real", "pair"}
# ``from_dict`` methods that read back what discforge wrote, not a run config.
ARTIFACT_READERS = {
    "TrigSeries.from_dict": "reads a series of a written disc artifact, not a config",
    "LiftedDisc.from_dict": "reads a written disc artifact, not a config",
}


def _bare_conversions(node: ast.AST) -> list[str]:
    """``float``, ``int`` and ``complex`` under ``node``, called on anything but readers' results
    or passed on as a reader themselves."""
    converters = {"float", "int", "complex"}
    found = []
    for call in (sub for sub in ast.walk(node) if isinstance(sub, ast.Call)):
        if isinstance(call.func, ast.Name) and call.func.id in converters:
            args = call.args if not call.keywords else [None]
            if not args or not all(
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id in NUMBER_READERS
                for arg in args
            ):
                found.append(ast.unparse(call))
        found += [ast.unparse(call) for arg in call.args if isinstance(arg, ast.Name) and arg.id in converters]
    return found


def _cli_readers(tree: ast.Module) -> dict[str, ast.AST]:
    """The parameter readers of ``cli._COMMANDS``, and every module-level cli name they reach."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            defs[node.targets[0].id] = node.value
    table = defs["_COMMANDS"]
    readers = {
        f"_COMMANDS[{key.value!r}]": entry.args[1]
        for key, entry in zip(table.keys, table.values)
        if isinstance(entry, ast.Call) and len(entry.args) > 1
    }
    todo = [name for node in readers.values() for name in _uses(node) if name in defs]
    while todo:
        name = todo.pop()
        if name not in readers:
            readers[name] = defs[name]
            todo += [used for used in _uses(defs[name]) if used in defs]
    return readers


def test_config_numbers_are_read_only_by_the_number_readers():
    checked, offenders = set(), []
    for path in sorted((ROOT / "src" / "discforge").glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                key = f"{cls.name}.{getattr(fn, 'name', '')}"
                if isinstance(fn, ast.FunctionDef) and fn.name == "from_dict" and key not in ARTIFACT_READERS:
                    checked.add(key)
                    offenders += [f"{path.stem}.{key}: {call}" for call in _bare_conversions(fn)]
        if path.stem == "cli":
            for name, node in _cli_readers(tree).items():
                checked.add(f"cli.{name}")
                offenders += [f"cli.{name}: {call}" for call in _bare_conversions(node)]
    assert not offenders, f"config values read outside integer/real/pair: {offenders}"
    # the check reaches every run-config parser and the cli's own readers
    parsers = {"RunConfig", "SolverOptions", "ModelPolynomial", "ModelDiscParams", "DefiningFunction", "BiholoMap"}
    assert {f"{name}.from_dict" for name in parsers} | {"cli._pairs", "cli._checked", "cli._count"} <= checked
