"""Outside-in span tracing of the albaxter layers.

The tracer wraps, from outside the package, every public function of each
layer module, the LaurentPoly/MultiDual arithmetic methods of `algebra`
and the FockRep constructor, and rebinds every name in the package that
refers to a wrapped function: names bound by `from .x import y` (such as
`funspace.jackson_op`) and registry entries such as `suites.SUITES`.
Spans (name, parent, start, end, error) are kept in memory and written out
when the run ends.  Nothing in the package itself is edited; leaving the
`instrument` block restores every original binding.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# Layer = module name inside the package, in call-graph order.
LAYERS = ("algebra", "classical_chain", "backlund", "qcalc", "fock",
          "bethe", "funspace", "suites")

# Methods traced besides the modules' public functions.
_ARITH = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
          "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
          "eval", "exp", "log", "sqrt")
METHODS = {
    "algebra": {"LaurentPoly": _ARITH, "MultiDual": _ARITH},
    "fock": {"FockRep": ("__init__",)},
}

# Span name of the harness's own per-task root span; it belongs to the
# glue layer together with the suite functions.
TASK_SPAN = "suites.task"


class Tracer:
    """In-memory span recorder.

    Each span is a tuple (name, parent_index, start_s, end_s, error_type);
    parent_index is -1 for a root span.  `counters` holds values read off
    return values at a layer boundary (e.g. Newton iterations).
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            self._close(idx, name, t0, type(exc).__name__)
            raise
        self._close(idx, name, t0, None)

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(parent)  # placeholder, replaced on close
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, t0, err):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, self.spans[idx], t0, t1, err)

    def wrap(self, name, fn, on_return=None):
        """Return fn wrapped in a span named `name`.  on_return(counters,
        args, result) runs after a normal return, outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, name, t0, type(exc).__name__)
                raise
            tracer._close(idx, name, t0, None)
            if on_return is not None:
                on_return(tracer.counters, args, out)
            return out

        return traced


def _count_newton(counters, args, result):
    counters["backlund.newton_iters"] += int(result.newton_iters)


def _note_dim(counters, args, result):
    counters["fock.dim_max"] = max(counters["fock.dim_max"], int(args[0].dim))


ON_RETURN = {
    "backlund.bt_apply": _count_newton,
    "fock.FockRep.__init__": _note_dim,
}


def _public_functions(mod):
    for attr, val in vars(mod).items():
        if (inspect.isfunction(val) and val.__module__ == mod.__name__
                and not attr.startswith("_")):
            yield attr, val


@contextlib.contextmanager
def instrument(tracer, package="albaxter"):
    """Trace every layer of `package` while the block runs."""
    wrapped = {}   # original function -> wrapper
    restore = []   # (setter, target, key, original value)

    def patch_attr(obj, attr, new):
        restore.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def patch_item(dct, key, new):
        restore.append((dict.__setitem__, dct, key, dct[key]))
        dct[key] = new

    try:
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, fn in _public_functions(mod):
                name = f"{layer}.{attr}"
                wrapped[fn] = tracer.wrap(name, fn, ON_RETURN.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    if meth not in cls.__dict__:
                        continue
                    name = f"{layer}.{cls_name}.{meth}"
                    patch_attr(cls, meth, tracer.wrap(
                        name, cls.__dict__[meth], ON_RETURN.get(name)))
        # Rebind every module-level name and registry entry that refers to
        # a wrapped function, wherever it was imported to.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrapped:
                    patch_attr(mod, attr, wrapped[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            patch_item(val, key, wrapped[item])
        yield tracer
    finally:
        for setter, target, key, old in reversed(restore):
            setter(target, key, old)


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time: duration minus the time covered by its direct
    children (children of one span never overlap: calls are sequential)."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, err in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (name, parent, t0, t1, err), c
            in zip(spans, child)]


def summarize(spans):
    """Aggregate spans into per-layer self time, per-name call counts,
    inclusive durations, and errors that left a layer."""
    selfs = self_times(spans)
    layer_self = Counter()
    calls = Counter()
    durations = {}
    escaped = Counter()
    for (name, parent, t0, t1, err), s in zip(spans, selfs):
        layer = layer_of(name)
        layer_self[layer] += s
        calls[name] += 1
        durations.setdefault(name, []).append(t1 - t0)
        if err is not None:
            escaped[name] += 1
            parent_layer = layer_of(spans[parent][0]) if parent >= 0 else None
            if parent_layer != layer:
                escaped[f"{layer}.<layer>"] += 1
    return {"layer_self_s": dict(layer_self), "calls": dict(calls),
            "durations_s": durations, "errors": dict(escaped)}


def write_spans(spans, path):
    """Write spans as gzipped JSON lines: {"i", "name", "parent", "start",
    "end", "error"}; times are seconds on the perf_counter clock."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for i, (name, parent, t0, t1, err) in enumerate(spans):
            fh.write(json.dumps({"i": i, "name": name, "parent": parent,
                                 "start": t0, "end": t1, "error": err}))
            fh.write("\n")
