"""Tests of the benchmark's span arithmetic and of its per-layer counts.

    PYTHONPATH=src python3 -m pytest bench/test_spans.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, coverage, layer_totals, self_times  # noqa: E402


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, None)


def test_coverage_merges_overlaps_and_clips():
    assert coverage([], 0.0, 10.0) == 0.0
    assert coverage([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert coverage([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert coverage([(4.0, 4.0), (6.0, 5.0)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 3.0, 0), _span("b", 2.0, 5.0, 0), _span("c", 7.0, 8.0, 0),
             _span("grandchild", 2.5, 4.5, 2)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0)  # children cover [1, 5] and [7, 8]
    assert st[2] == pytest.approx(3.0 - 2.0)
    assert st[4] == pytest.approx(2.0)  # a leaf keeps its whole duration
    totals = layer_totals(spans)
    assert totals["root"] == {"calls": 1, "self_s": pytest.approx(5.0)}
    # the synthetic siblings a and b overlap on [2, 3], which counts twice
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0 + 1.0)


def test_tracer_nesting_and_restore():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner, lambda args, r: {"arg": args[0], "r": r})

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x)

    wrapped_outer = tracer.wrap("outer", outer)
    tracer.point = 7
    assert wrapped_outer(1) == 4
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert all(s.point == 7 for s in tracer.spans)
    assert tracer.spans[1].attrs == {"arg": 1, "r": 2}
    root, a, b = tracer.spans
    st = self_times(tracer.spans)
    assert st[0] == pytest.approx(root.duration - a.duration - b.duration)

    assert tracer.patch("os.path:no_such_attribute", lambda fn: fn) is False
    original = os.path.join
    assert tracer.patch("os.path:join", lambda fn: tracer.wrap("join", fn))
    assert os.path.join("a", "b") == original("a", "b")
    tracer.restore()
    assert os.path.join is original


def _traced_counts(wl, inputs):
    tracer = Tracer()
    layers.install(tracer)
    layers.clear_caches()
    try:
        points = wl.run_pass(inputs, tracer)
    finally:
        tracer.restore()
    assert all(p.ok for p in points), [p.detail for p in points]
    m = layers.per_layer_metrics(tracer, *layers.gauss_laguerre_info(), 0.0, 0.0)
    return {k: v for k, v in m.items() if not k.endswith("_s")}


def test_per_layer_counts_repeat_exactly():
    exact = workloads.ExactWorkload(workloads.load_points()["exact-wide"][-1:])
    sweep = workloads.AsymptSweepWorkload({"omega_per_m": 6.75e5, "gaps_m": [1e-5]})
    counts = {}
    for wl in (exact, sweep):
        inputs = wl.make_inputs(3)
        counts[wl] = _traced_counts(wl, inputs)
        assert counts[wl] == _traced_counts(wl, inputs)
    assert counts[exact]["roundtrip.assemble_block.calls"] > 0
    assert counts[exact]["asymptotics.theta.calls"] == 0
    assert 0.0 < counts[exact]["energy_exact.block_useful_ratio"] < 1.0
    assert counts[sweep]["asymptotics.theta.calls"] == 1
    assert counts[sweep]["pfa.pfa_energy.calls"] == 1
    assert counts[sweep]["roundtrip.assemble_block.calls"] == 0
