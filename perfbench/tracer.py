"""Span tracing of disastersim's modules from outside the package.

Tracer.wrap replaces a module attribute with a timing wrapper, so the program
under test is not edited; Tracer.restore puts every original back. Each call
through a wrapper records a span [name, start, end, parent]. Spans stay in
memory and are aggregated per name when the run ends: a span's self time is
its duration minus the time its child spans cover.
"""
from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[str, float] = defaultdict(float)
        self.pools = {"spinups": 0, "tasks": 0}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _patch(self, module, attr: str, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str, size=None):
        """Time every call of module.attr as a span called name.

        size(args, result), when given, returns the work size of one call;
        the sizes are summed per name. An attribute the module no longer has
        is left alone, and its metrics read 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        spans, stack, sizes = self.spans, self._stack, self.sizes

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                sizes[name] += size(args, result)
            return result

        self._patch(module, attr, traced)

    def count_pools(self, module):
        """Count constructions of module.ProcessPoolExecutor and tasks submitted to them."""
        counts = self.pools
        base = getattr(module, "ProcessPoolExecutor", None)
        if base is None:
            return

        class CountingExecutor(base):
            def __init__(self, *args, **kwargs):
                counts["spinups"] += 1
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                counts["tasks"] += 1
                return super().submit(*args, **kwargs)

        self._patch(module, "ProcessPoolExecutor", CountingExecutor)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, summed self time and the list of call durations."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            stat = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            stat["calls"] += 1
            stat["self_s"] += end - start - covered[i]
            stat["durations"].append(end - start)
        return out
