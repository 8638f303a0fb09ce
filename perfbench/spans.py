"""In-memory span tracer for the traced benchmark run.

Spans are opened around the public functions of the traced modules by
patching the module attributes that hold them, so calls made inside the
library (``fit_hyperparameters`` -> ``log_marginal_likelihood``,
``solve_probabilistic`` -> ``condition_on_observations``) are caught too.
The benchmark's own callables handed to the library (operator matvecs,
vector fields, likelihoods) are wrapped as *leaves*: they add a call count,
a size and a duration to a per-name total and to the enclosing span, but
record no span of their own, because they run tens of thousands of times
per pass.

A span's self time is its duration minus the durations of its direct
children, leaves included.  Spans stay in memory; the caller writes the
snapshots out when the run ends.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("sid", "name", "task", "parent", "start", "end", "child_s",
                 "leaf_s")

    def __init__(self, sid: int, name: str, task: Optional[str],
                 parent: Optional[int], start: float):
        self.sid = sid
        self.name = name
        self.task = task
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0    # time covered by direct children (spans and leaves)
        self.leaf_s = 0.0     # the part of child_s spent in leaves

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "task": self.task,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.self_s, "leaf_s": self.leaf_s}


class Leaf:
    __slots__ = ("calls", "size", "seconds")

    def __init__(self):
        self.calls = 0
        self.size = 0
        self.seconds = 0.0


class Tracer:
    """Span stack plus leaf totals; ``enabled`` switches recording on and off."""

    def __init__(self):
        self.enabled = False
        self.spans: List[Span] = []
        self.leaves: Dict[str, Leaf] = defaultdict(Leaf)
        self.task: Optional[str] = None
        self._stack: List[Span] = []
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and leaf totals (one pass at a time)."""
        self.spans = []
        self.leaves = defaultdict(Leaf)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.task, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.dur

    def run_task(self, task: str, fn: Callable):
        """Run ``fn`` as a top-level task span when enabled."""
        if not self.enabled:
            return fn()
        self.task = task
        span = self._open("task." + task)
        try:
            return fn()
        finally:
            self._close(span)
            self.task = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A function that opens a span named ``name`` around ``fn``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def leaf(self, name: str, fn: Callable,
             size: Optional[Callable] = None) -> Callable:
        """Count calls to ``fn`` (and ``size(arg)`` units) and time them."""
        def counted(*args):
            if not self.enabled:
                return fn(*args)
            start = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - start
            total = self.leaves[name]
            total.calls += 1
            total.size += size(args[0]) if size is not None else 1
            total.seconds += dt
            if self._stack:
                self._stack[-1].child_s += dt
                self._stack[-1].leaf_s += dt
            return out
        return counted

    # -- patching ------------------------------------------------------------

    def patch_modules(self, layers: Dict[str, types.ModuleType],
                      package: types.ModuleType) -> None:
        """Wrap each public function defined in a layer module.

        Every module attribute of the package that holds the original
        function is replaced, so re-exports and cross-module imports inside
        the library go through the span as well.
        """
        holders = [package] + [m for m in vars(package).values()
                               if isinstance(m, types.ModuleType)
                               and m.__name__.startswith(package.__name__ + ".")]
        for layer, module in layers.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    for hattr, hval in list(vars(holder).items()):
                        if hval is obj:
                            self._patched.append((holder, hattr, obj))
                            setattr(holder, hattr, wrapped)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": [s.as_dict() for s in self.spans],
                "leaves": {k: {"calls": v.calls, "size": v.size,
                               "seconds": v.seconds}
                           for k, v in self.leaves.items()}}
