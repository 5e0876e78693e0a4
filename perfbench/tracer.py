"""In-memory span tracer that wraps the public functions of the qube modules.

``Tracer.install`` replaces every public function defined in a ``qube``
module with a wrapper, in every ``qube`` namespace that holds it (the
defining module, each module that imports it, and the package itself), so
calls resolved through any of those globals are seen.  ``uninstall``
restores the originals.  Nothing under ``src/`` is edited.

Each wrapped call records one span: name, start, end, parent span, op id,
self time (duration minus the time covered by child spans) and an item
count taken from the result.  A generator function records one span per
resumption, so time the consumer spends between two items is not charged
to the generator.  Functions of ``qube.hypercube`` are called thousands
of times per cycle, so they record a call count and no span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from typing import Callable

# Functions whose spans carry an item count: how much work the result holds.
RESULT_ITEMS: dict[str, Callable] = {
    "squares.find_squares": len,
    "enumeration.sample_cycles": len,
    "independence.equi_reduction": lambda red: red.graph.vertex_count,
}


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    """``equi_independence`` is named after its route, so the direct branch
    and bound and the pair-graph route are reported apart."""
    if name == "independence.equi_independence":
        method = kwargs.get("method", args[1] if len(args) > 1 else "direct")
        return f"independence.{method}"
    return name


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, child seconds, items]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public qube function in every qube namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qube" or name.startswith("qube.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("qube."):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(obj, f"{home.split('.', 1)[1]}.{obj.__name__}")
                    wrappers[id(obj)] = wrapper
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, func: Callable, name: str) -> Callable:
        if name.startswith("hypercube."):
            return self._counted(func, name)
        if inspect.isgeneratorfunction(func):
            return self._generator(func, name)
        return self._spanned(func, name)

    def _counted(self, func: Callable, name: str) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def _spanned(self, func: Callable, name: str) -> Callable:
        measure = RESULT_ITEMS.get(name)

        def spanned(*args, **kwargs):
            idx = self._open(_span_name(name, args, kwargs))
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.spans[idx][6] = measure(result)
            return result

        spanned.__wrapped__ = func
        return spanned

    def _generator(self, func: Callable, name: str) -> Callable:
        def generator(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.spans[idx][6] = 1
                yield item

        generator.__wrapped__ = func
        return generator

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    # -- results --------------------------------------------------------------

    def self_seconds(self, span: list) -> float:
        return span[2] - span[1] - span[5]

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and items."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            agg = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "items": 0})
            agg["calls"] += 1
            agg["self_s"] += self.self_seconds(span)
            agg["items"] += span[6]
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent, op, self, items.
        Times are seconds on the ``perf_counter`` clock."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, child, items in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7),
                                    parent, op, round(end - start - child, 7), items]))
                f.write("\n")
