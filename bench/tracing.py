"""Layer tracing from outside the package: wrap public entry points, aggregate spans.

A layer is one ``discforge`` module (``series``, ``model``, ``perturb``,
``discs``, ``solver``, ``jets``, ``cli``) plus the pseudo-layer ``linalg``
for the ``numpy.linalg`` entry points the package calls and ``numpy.roots``
(a companion-matrix eigensolve).  ``install`` wraps

- every function named in a layer module's ``__all__``, in every
  ``discforge.*`` namespace that binds it (so ``solver``'s own imported
  ``multiply`` is wrapped as well as ``series.multiply``) and in the
  benchmark modules passed as ``namespaces``;
- every method of every class named in a layer's ``__all__`` (this covers
  the ``TrigSeries`` methods);
- the private ``solver._linearize``, the Jacobian assembly that
  ``solve_newton`` calls without going through ``linearize_at``;
- the linalg entry points.

A span is opened only when a call crosses into another layer; nested calls
inside the same layer only update the per-function counters.  Spans are
aggregated as they close, so memory stays flat however long a run is.  A
layer's self time is its span time minus the time of the child spans it
opened (other layers and linalg).  Linalg time is also credited to the layer
whose span encloses the call.  Nothing under ``src/`` is touched:
``Installation.restore`` puts every replaced attribute back.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("series", "model", "perturb", "discs", "solver", "jets", "cli")
# the numpy.linalg entry points the package calls
LINALG_ENTRIES = ("lstsq", "svd", "solve", "det", "cond", "norm")
# entries that run LAPACK (``norm`` does not), for the first-call cost
LAPACK_KEYS = {f"linalg.{name}" for name in LINALG_ENTRIES if name != "norm"} | {"linalg.roots"}
EXTRA_PRIVATE = {"solver": ("_linearize",)}
# generated dataclass plumbing, not package work
_SKIP_METHODS = {"__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


class Tracer:
    """Aggregated layer spans and per-function counters of one traced pass."""

    def __init__(self):
        self.frames: list[list] = []  # [layer, child_seconds]
        self.depth: Counter = Counter()  # function key -> active invocations
        self.calls: Counter = Counter()  # function key -> all calls
        self.fn_time: defaultdict = defaultdict(float)  # outermost inclusive seconds
        self.layer_calls: Counter = Counter()  # spans entering the layer
        self.layer_self: defaultdict = defaultdict(float)
        self.linalg_in: defaultdict = defaultdict(float)  # enclosing layer -> seconds
        self.lstsq_mn = 0  # sum of m * n over lstsq matrices
        self.lstsq_mn2 = 0  # sum of m * n * n
        self.solve_iterations = 0  # lstsq calls made inside solve_newton
        self.first_lapack_s: float | None = None

    def note_lstsq(self, args):
        shape = getattr(args[0], "shape", ())
        if len(shape) == 2:
            m, n = shape
            self.lstsq_mn += m * n
            self.lstsq_mn2 += m * n * n
        if self.depth["solver.solve_newton"]:
            self.solve_iterations += 1

    def summary(self) -> dict:
        """Plain-JSON aggregates; summaries of several processes add up."""
        return {
            "calls": dict(self.calls),
            "fn_time": dict(self.fn_time),
            "layer_calls": dict(self.layer_calls),
            "layer_self": dict(self.layer_self),
            "linalg_in": dict(self.linalg_in),
            "lstsq_mn": self.lstsq_mn,
            "lstsq_mn2": self.lstsq_mn2,
            "solve_iterations": self.solve_iterations,
        }

    def wrap(self, fn, layer: str, key: str, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            if on_call is not None:
                on_call(args)
            outer = tracer.depth[key] == 0
            frames = tracer.frames
            boundary = not frames or frames[-1][0] != layer
            if not (outer or boundary):
                return fn(*args, **kwargs)
            tracer.depth[key] += 1
            if boundary:
                frame = [layer, 0.0]
                frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.depth[key] -= 1
                if outer:
                    tracer.fn_time[key] += elapsed
                if boundary:
                    frames.pop()
                    tracer.layer_calls[layer] += 1
                    tracer.layer_self[layer] += elapsed - frame[1]
                    if frames:
                        frames[-1][1] += elapsed
                        if layer == "linalg":
                            tracer.linalg_in[frames[-1][0]] += elapsed
                    if tracer.first_lapack_s is None and key in LAPACK_KEYS:
                        tracer.first_lapack_s = elapsed

        return traced


class Installation:
    """The attributes one ``install`` replaced, with their originals."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def set(self, owner, name, new):
        # a class keeps its raw descriptor (staticmethod, property) in __dict__
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self.replaced.append((owner, name, original))
        setattr(owner, name, new)

    def restore(self):
        for owner, name, original in reversed(self.replaced):
            setattr(owner, name, original)
        self.replaced.clear()


def _layer_modules():
    return {layer: importlib.import_module(f"discforge.{layer}") for layer in LAYERS}


def _wrap_method(tracer, attr, layer, key):
    if isinstance(attr, staticmethod):
        return staticmethod(tracer.wrap(attr.__func__, layer, key))
    if isinstance(attr, classmethod):
        return classmethod(tracer.wrap(attr.__func__, layer, key))
    if isinstance(attr, property) and attr.fget is not None:
        return property(tracer.wrap(attr.fget, layer, key), attr.fset, attr.fdel, attr.__doc__)
    if isinstance(attr, types.FunctionType):
        return tracer.wrap(attr, layer, key)
    return None


def install(tracer: Tracer, namespaces=()) -> Installation:
    """Wrap every traced entry point; the caller must ``restore`` the result.

    ``namespaces`` are further modules (the benchmark's own) whose imported
    package functions are rebound too, so their calls into a layer are seen.
    """
    import numpy

    inst = Installation()
    modules = _layer_modules()
    try:
        wrapped_fns: dict[int, object] = {}
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_PRIVATE.get(layer, ()))
            for name in names:
                obj = getattr(mod, name)
                if isinstance(obj, type):
                    if obj.__module__ != mod.__name__:
                        continue
                    for attr_name, attr in list(vars(obj).items()):
                        if attr_name in _SKIP_METHODS:
                            continue
                        new = _wrap_method(tracer, attr, layer, f"{layer}.{obj.__name__}.{attr_name}")
                        if new is not None:
                            inst.set(obj, attr_name, new)
                elif isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped_fns[id(obj)] = (obj, tracer.wrap(obj, layer, f"{layer}.{name}"))
        # rebind in every namespace that imported the same function object
        for mod in list(modules.values()) + list(namespaces):
            for name, value in list(vars(mod).items()):
                hit = wrapped_fns.get(id(value))
                if hit is not None and hit[0] is value:
                    inst.set(mod, name, hit[1])
        for name in LINALG_ENTRIES:
            hook = tracer.note_lstsq if name == "lstsq" else None
            inst.set(numpy.linalg, name, tracer.wrap(getattr(numpy.linalg, name), "linalg", f"linalg.{name}", hook))
        inst.set(numpy, "roots", tracer.wrap(numpy.roots, "linalg", "linalg.roots"))
    except BaseException:
        inst.restore()
        raise
    return inst


def merge(summaries) -> dict:
    """Add up ``Tracer.summary`` results, e.g. of several traced processes."""
    out: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, dict):
                acc = out.setdefault(key, {})
                for name, amount in value.items():
                    acc[name] = acc.get(name, 0) + amount
            else:
                out[key] = out.get(key, 0) + value
    return out
