"""Span recorder: nesting, self time and error attribution."""

import time
import types

import pytest

from tracer import Span, Tracer, layer_table, self_times


def _fake_module():
    mod = types.ModuleType("fakelayer")

    def leaf(x):
        time.sleep(0.002)
        return x + 1

    def middle(x):
        time.sleep(0.001)
        return mod.leaf(x) + mod.leaf(x)

    def top(x):
        time.sleep(0.001)
        return mod.middle(x) * 2

    def broken():
        raise KeyError("boom")

    mod.leaf, mod.middle, mod.top, mod.broken = leaf, middle, top, broken
    return mod


def test_self_time_plus_children_equals_parent():
    mod = _fake_module()
    tracer = Tracer([(mod, "top"), (mod, "middle"), (mod, "leaf")])
    tracer.op = 7
    tracer.install()
    try:
        assert mod.top(1) == 8
    finally:
        tracer.uninstall()

    spans = tracer.spans
    assert [s.name for s in spans] == ["fakelayer.top", "fakelayer.middle", "fakelayer.leaf", "fakelayer.leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1]
    assert all(s.op == 7 for s in spans)
    own = self_times(spans)
    for i, span in enumerate(spans):
        children = sum(c.end - c.start for c in spans if c.parent == i)
        assert own[i] + children == pytest.approx(span.end - span.start, abs=1e-12)
        assert own[i] > 0
    # self times of a tree add up to the root's duration
    assert sum(own) == pytest.approx(spans[0].end - spans[0].start, abs=1e-12)


def test_self_times_on_handmade_spans():
    spans = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("a.child", 1.0, 4.0, 0, 0),
        Span("b.grandchild", 2.0, 3.0, 1, 0),
        Span("a.child", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = layer_table(spans)
    assert table["a.child"]["calls"] == 2
    assert table["a.child"]["self_s"] == 6.0


def test_errors_are_recorded_and_reraised():
    mod = _fake_module()
    tracer = Tracer([(mod, "broken")])
    tracer.install()
    try:
        with pytest.raises(KeyError):
            mod.broken()
    finally:
        tracer.uninstall()
    assert tracer.spans[0].error == "KeyError"
    assert layer_table(tracer.spans)["fakelayer.broken"]["errors"] == {"KeyError": 1}


def test_uninstall_restores_originals():
    mod = _fake_module()
    original = mod.leaf
    tracer = Tracer([(mod, "leaf")])
    tracer.install()
    assert mod.leaf is not original
    tracer.uninstall()
    assert mod.leaf is original
    mod.leaf(0)
    assert tracer.spans == []
