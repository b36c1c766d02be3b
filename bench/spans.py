"""Spans around calls into natwatch's layers, recorded from outside the
package.

`install` rebinds, in every layer module and in the benchmark's own
namespace, each name that refers to another layer's public function (or
to another layer module) so that calls through it open a span. A
module's calls to its own functions keep their original binding, so
per-tree or per-node helpers add no cost. Functions are found by
scanning the modules, so a renamed or deleted function simply stops
appearing.
"""

from __future__ import annotations

import inspect
import os
import time
import types
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("cli", "ingest", "netflow9", "preprocess", "iforest", "detect", "flowdata", "evaluation")

# Calls a layer makes to its own function that are timed anyway, because
# a named per-layer metric needs them and they run a few times per unit.
INTERNAL_SPANS = (("detect", "calibrate_threshold"),)


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a top-level span
    request: str
    raised: bool = False


def _rows(args) -> int:
    """Rows in the first array argument: its length if 2-D, else 1."""
    for a in args:
        ndim = getattr(a, "ndim", None)
        if ndim is not None:
            return int(a.shape[0]) if ndim == 2 else 1
    return 1


def _count_nodes(forest) -> Optional[tuple[int, int]]:
    """(trees, nodes) of a trained forest whose trees link their nodes
    from `tree.root` through `left`/`right`, or None for any other
    layout, so that a new layout is reported rather than counted as 0."""
    trees = getattr(forest, "trees", None)
    if not trees or not all(hasattr(tree, "root") for tree in trees):
        return None
    nodes = 0
    for tree in trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node is not None:
                nodes += 1
                stack += [getattr(node, "left", None), getattr(node, "right", None)]
    return len(trees), nodes


class Tracer:
    """Keeps spans and counters in memory; `active` gates recording so
    the benchmark's own checks between timed windows leave no spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.request = ""
        self.active = False
        self._stack: list[int] = []

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, layer: str, fname: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = Span(f"{layer}.{fname}", 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.end = time.perf_counter()
            span.raised = True
            self._stack.pop()
            self._observe(layer, fname, args, None, raised=True)
            raise
        span.end = time.perf_counter()
        self._stack.pop()
        self._observe(layer, fname, args, result, raised=False)
        return result

    def _observe(self, layer, fname, args, result, raised) -> None:
        """Counters taken at the layer boundary from arguments and results."""
        if layer == "iforest":
            if "score" in fname and not raised:
                self.count("iforest.score_rows", _rows(args))
            elif fname.startswith("train") and not raised:
                counted = _count_nodes(result)
                if counted is None:
                    self.count("iforest.unknown_layouts", 1)
                else:
                    self.count("iforest.trees_built", counted[0])
                    self.count("iforest.nodes", counted[1])
            elif fname.startswith("load") and args and isinstance(args[0], (str, os.PathLike)):
                if os.path.exists(args[0]):
                    self.count("iforest.artifact_bytes", os.path.getsize(args[0]))
        elif layer == "preprocess" and "transform" in fname and not raised:
            batch = args[1] if len(args) > 1 else None
            self.count("preprocess.rows", len(batch) if isinstance(batch, (list, tuple)) else 1)
        elif layer == "netflow9" and fname.startswith("decode"):
            if raised:
                self.count("netflow9.rejected_datagrams", 1)
            elif isinstance(result, list):
                self.count("netflow9.records", len(result))
        elif layer == "ingest" and fname.startswith("parse") and "flow" in fname and not raised:
            if isinstance(result, tuple) and len(result) == 2:
                self.count("ingest.rows", len(result[0]))
                self.count("ingest.rejected_rows", len(result[1]))


def _wrap(tracer: Tracer, layer: str, fn):
    # Not functools.wraps: the wrapper keeps this module as __module__,
    # so _layer_of never takes it for a layer function and wraps it again.
    fname = fn.__name__

    def traced(*args, **kwargs):
        return tracer.call(layer, fname, fn, args, kwargs)

    traced.__name__ = fname
    traced.__qualname__ = getattr(fn, "__qualname__", fname)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _layer_of(obj) -> Optional[str]:
    module = getattr(obj, "__module__", None) if inspect.isfunction(obj) else getattr(
        obj, "__name__", None)
    if not module or not module.startswith("natwatch."):
        return None
    name = module.split(".", 1)[1]
    return name if name in LAYERS else None


class _ModuleProxy(types.ModuleType):
    """Stands in for a layer module bound in another module (as in
    `from natwatch import ingest`); its public functions come back
    wrapped, everything else unchanged."""

    def __init__(self, module: types.ModuleType, tracer: Tracer, layer: str):
        super().__init__(module.__name__, module.__doc__)
        self._nw_module = module
        self._nw_tracer = tracer
        self._nw_layer = layer
        self._nw_cache: dict[str, object] = {}

    def __getattr__(self, name):
        value = getattr(self._nw_module, name)
        if name.startswith("_") or not inspect.isfunction(value) or _layer_of(value) != self._nw_layer:
            return value
        wrapped = self._nw_cache.get(name)
        if wrapped is None or wrapped.__wrapped__ is not value:
            wrapped = self._nw_cache[name] = _wrap(self._nw_tracer, self._nw_layer, value)
        return wrapped


def install(tracer: Tracer, modules: dict, extra_namespaces=()) -> Callable[[], None]:
    """Rebind cross-layer names in `modules` ({layer: module}) and in
    each object of `extra_namespaces`. Returns a function that undoes
    every rebinding."""
    undo: list[tuple[object, str, object]] = []
    targets = [(layer, mod) for layer, mod in modules.items()] + [
        (None, ns) for ns in extra_namespaces
    ]
    for owner_layer, ns in targets:
        for name, value in list(vars(ns).items()):
            if name.startswith("_"):
                continue
            layer = _layer_of(value)
            if layer is None or layer == owner_layer:
                continue
            if inspect.isfunction(value):
                replacement = _wrap(tracer, layer, value)
            elif isinstance(value, types.ModuleType):
                replacement = _ModuleProxy(value, tracer, layer)
            else:
                continue
            undo.append((ns, name, value))
            setattr(ns, name, replacement)
    for layer, fname in INTERNAL_SPANS:
        mod = modules.get(layer)
        fn = getattr(mod, fname, None) if mod is not None else None
        if inspect.isfunction(fn):
            undo.append((mod, fname, fn))
            setattr(mod, fname, _wrap(tracer, layer, fn))

    def uninstall() -> None:
        for ns, name, value in reversed(undo):
            setattr(ns, name, value)

    return uninstall


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _union_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def outside_time(spans: list[Span], windows) -> float:
    """Time inside the benchmark's timed windows that no top-level span
    covers: the benchmark's own time."""
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    return sum((hi - lo) - _union_length(top, lo, hi) for lo, hi in windows)
