"""Spans and counts at the module boundaries of the hilbertnorm package.

The tracer never edits the package.  It rebinds, in each importing module,
every function that module imported from another hilbertnorm module, so a
span always means a call that crosses a module boundary (``norms`` calling
``circle_mean``, ``verification`` calling ``supremum_unit``, ...).  Callables
handed across a boundary (objectives, integrands, circle-mean functions) are
wrapped as spans of the module that handed them over, so the integrator's
self time excludes the integrand's own arithmetic.  The public functions of
``verification`` are also wrapped in place, so each check gets a span and
``compute_A``/``compute_B`` calls are counted.

Spans live in memory as flat arrays and are written once, at exit.  Self time
is a span's duration minus the durations of its direct children.
"""

import time
import types
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("catalog", "specfun", "quadrature", "supsearch", "norms",
           "hilbertop", "verification", "cli")

# Functions that get a layer of their own inside their module.
_SUBLAYERS = {
    ("quadrature", "circle_mean"): "quadrature.circle_mean",
    ("quadrature", "_batched_singular"): "quadrature.batched",
}

_ENTRY, _CALLBACK, _INNER = 0, 1, 2


def _module_of(fn):
    return fn.__module__.rpartition(".")[2]


def _layer_of(fn):
    module = _module_of(fn)
    return _SUBLAYERS.get((module, fn.__name__), module)


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self._names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [index, child wall time, verification self time in subtree]
        self._stack = []
        self.self_s = defaultdict(float)       # layer -> self time
        self.calls = Counter()                 # span name or layer -> entry calls
        self.counts = Counter()                # named counters
        self.checks = []                       # (span index, check name, wall, self)
        self._check_spans = set()

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0, 0.0])
        t = time.perf_counter()
        self.span_start.append(t)
        return t

    def _close(self, layer, t0):
        t1 = time.perf_counter()
        idx, child, sub = self._stack.pop()
        self.span_end[idx] = t1
        wall = t1 - t0
        own = wall - child
        self.self_s[layer] += own
        if layer == "verification":
            sub += own
        if self._stack:
            parent = self._stack[-1]
            parent[1] += wall
            parent[2] += sub
        return idx, wall, sub

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, caller, kind=_ENTRY):
        """Span around fn, a function of another layer called from caller."""
        layer = _layer_of(fn)
        name = f"{_module_of(fn)}.{fn.__name__}"
        tracer = self

        def traced(*args, **kwargs):
            if kind != _INNER:
                args = tuple(tracer._callback(a, caller, layer)
                             if isinstance(a, types.FunctionType) else a
                             for a in args)
            t0 = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                idx, wall, sub = tracer._close(layer, t0)
            tracer._account(kind, layer, name, args, result, idx, wall, sub)
            if kind == _ENTRY and isinstance(result, types.FunctionType):
                return tracer.wrap(result, layer, _CALLBACK)
            return result

        traced.__wrapped__ = fn
        return traced

    def _callback(self, fn, caller, callee):
        """Span of the caller's layer around a callable passed to callee."""
        name = f"{caller}.callback"
        tracer = self
        counts = self.counts

        def traced(*args, **kwargs):
            counts[f"{callee}.callbacks"] += 1
            if args:
                counts[f"{callee}.callback_points"] += np.size(args[0])
            t0 = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(caller, t0)

        return traced

    def _account(self, kind, layer, name, args, result, idx, wall, sub):
        self.calls[name] += 1
        if kind == _ENTRY:
            self.calls[layer] += 1
        if hasattr(result, "evaluations"):
            self.counts[f"{layer}.evals"] += int(result.evaluations)
        elif layer == "quadrature.batched":
            self.counts[f"{layer}.evals"] += int(result[2])
        if name == "catalog.eval_series":
            self.counts["catalog.eval_series.points"] += np.size(args[1])
        if type(result).__name__ == "CheckReport":
            self.checks.append((idx, result.name, wall, sub))

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Rebind every cross-module import of the package's modules, and
        the public functions of ``verification`` in place."""
        for short in MODULES:
            module = getattr(package, short)
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith(package.__name__ + "."):
                    continue
                if home != module.__name__:
                    setattr(module, attr, self.wrap(value, short))
                elif short == "verification" and not attr.startswith("_"):
                    setattr(module, attr, self.wrap(value, short, _INNER))

    # -- results -----------------------------------------------------------

    def root_checks(self):
        """Check spans with no enclosing check span: name -> (wall, self)."""
        check_idx = {idx for idx, *_ in self.checks}
        out = {}
        for idx, name, wall, sub in self.checks:
            parent = self.span_parent[idx]
            while parent != -1 and parent not in check_idx:
                parent = self.span_parent[parent]
            if parent == -1:
                w, s = out.get(name, (0.0, 0.0))
                out[name] = (w + wall, s + sub)
        return out

    def write(self, path):
        """Write every span (name, parent, start, end) to a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
