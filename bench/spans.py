"""In-memory call spans around the library's layer boundaries.

The tracer replaces module attributes that callers look up at call time
(for example ``plasmacas.energy_exact.assemble_block``) with wrappers that
record one span per call: name, start, end, parent span and point id.  The
library itself is not edited.  Spans stay in memory; the caller turns them
into per-layer numbers with :func:`layer_totals` and writes them out.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    point: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def coverage(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - coverage(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    """Records spans and phases; ``point`` tags every record made while set.

    A *span* nests: calls made inside it get it as their parent, and its
    self time excludes them.  A *phase* only records its interval (used to
    tell which spans fell inside, e.g. the last kappa quadrature pass) and
    is never a parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phases: list[Span] = []
        self.point = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, result)`` -> dict."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.point)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def wrap_phase(self, name: str, fn):
        phases = self.phases

        def phased(*args, **kwargs):
            phase = Span(name, time.perf_counter(), 0.0, -1, self.point)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.end = time.perf_counter()
                phases.append(phase)

        return phased

    def patch(self, target: str, wrapper_factory) -> bool:
        """Replace ``module.attr`` (given as "module:attr") by a wrapper.

        Returns False, patching nothing, when the attribute does not exist,
        so a renamed boundary shows up as a zero count rather than a crash.
        """
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            return False
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def layer_totals(spans) -> dict:
    """{name: {"calls": n, "self_s": seconds}} over all spans."""
    out: dict = {}
    for s, st in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += st
    return out
