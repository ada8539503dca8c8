"""Tests for the NET (Next Executing Tail) baseline."""

import pytest

from repro.core import NET_HOT_THRESHOLD, NetSelector, record_module
from repro.lang import compile_source
from repro.profiles.flow import path_branches

from conftest import trace_module

DOMINANT = """
func main() {
    s = 0;
    for (i = 0; i < 300; i = i + 1) {
        if (i % 50 == 0) { s = s + 100; } else { s = s + 1; }
    }
    return s;
}
"""

WARM = """
func main() {
    s = 0;
    for (i = 0; i < 400; i = i + 1) {
        if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }
        if (i % 3 == 0) { s = s - 1; } else { s = s - 2; }
        if (i % 5 == 0) { s = s * 1; } else { s = s + 3; }
    }
    return s;
}
"""


class TestSelector:
    def test_threshold_then_capture_next(self):
        selector = NetSelector()
        for _ in range(NET_HOT_THRESHOLD):
            selector("f", ("H", "A"))
        assert not selector.traces  # armed, not yet captured
        selector("f", ("H", "B"))   # the next executing tail
        result = selector.result()
        assert len(result.traces) == 1
        assert result.traces[0].blocks == ("H", "B")
        assert result.traces[0].head == "H"

    def test_one_trace_per_head(self):
        selector = NetSelector()
        for _ in range(NET_HOT_THRESHOLD * 2):
            selector("f", ("H", "A"))
            selector("f", ("H", "B"))
        result = selector.result()
        assert len(result.traces) == 1

    def test_heads_are_path_starts(self):
        selector = NetSelector()
        for _ in range(NET_HOT_THRESHOLD):
            selector("f", ("entry", "X"))
        selector("f", ("entry", "Y"))
        result = selector.result()
        assert result.traces[0].head == "entry"

    def test_head_count_recorded(self):
        selector = NetSelector()
        for _ in range(NET_HOT_THRESHOLD + 5):
            selector("f", ("H",))
        result = selector.result()
        assert result.traces[0].head_count_at_end == NET_HOT_THRESHOLD + 5


class TestRunNet:
    def test_execution_unperturbed(self):
        m = compile_source(DOMINANT)
        _a, _p, truth = trace_module(m)
        net = NetSelector().replay(record_module(m).stream)
        assert net.return_value == truth.return_value

    def test_dominant_path_found(self):
        m = compile_source(DOMINANT)
        actual, _p, _r = trace_module(m)
        net = NetSelector().replay(record_module(m).stream)
        # The loop head's trace must be the truly hottest path.
        hottest = max(actual["main"].counts.items(), key=lambda kv: kv[1])
        loop_traces = [t for t in net.traces if t.head != "entry"]
        assert loop_traces
        assert any(t.blocks == hottest[0] for t in loop_traces)

    def test_warm_paths_mostly_missed(self):
        # 8 roughly-equal warm paths; NET keeps one trace per head.
        m = compile_source(WARM)
        actual, _p, _r = trace_module(m)
        net = NetSelector().replay(record_module(m).stream)
        selected = {t.blocks for t in net.traces}
        loop_paths = {p for p in actual["main"].counts
                      if p[0] not in ("entry",)}
        assert len(loop_paths) >= 6
        # NET selects at most one trace per head: far fewer than the
        # warm-path population.
        assert len(selected) <= 3

    def test_estimated_flows_weighted_by_branches(self):
        m = compile_source(DOMINANT)
        net = NetSelector().replay(record_module(m).stream)
        flows = net.estimated_flows(m)
        assert set(flows) == {(t.function, t.blocks) for t in net.traces}
        for t in net.traces:
            branches = path_branches(m.functions[t.function], t.blocks)
            assert flows[(t.function, t.blocks)] == \
                t.head_count_at_end * branches

    def test_cold_program_selects_nothing(self):
        m = compile_source("func main() { return 3; }")
        net = NetSelector().replay(record_module(m).stream)
        assert net.traces == []
