"""Tests for the hardware hot-path table baseline."""

import pytest

from repro.core import HotPathTable, record_module
from repro.lang import compile_source
from repro.profiles.flow import path_branches

from conftest import trace_module


class TestTable:
    def test_hits_and_misses(self):
        hpt = HotPathTable(sets=8, ways=2)
        hpt("f", ("A", "B"))
        hpt("f", ("A", "B"))
        hpt("f", ("A", "C"))
        result = hpt.result()
        assert result.hits == 1 and result.misses == 2
        counts = {(e.function, e.blocks): e.count for e in result.entries}
        assert counts[("f", ("A", "B"))] == 2

    def test_eviction_drops_coldest_way(self):
        hpt = HotPathTable(sets=1, ways=2)
        for _ in range(10):
            hpt("f", ("hot",))
        hpt("f", ("warm",))
        hpt("f", ("warm",))
        hpt("f", ("new",))  # evicts 'warm' (count 2 < 10)
        result = hpt.result()
        blocks = {e.blocks for e in result.entries}
        assert ("hot",) in blocks and ("new",) in blocks
        assert ("warm",) not in blocks
        assert result.evictions == 1

    def test_entries_sorted_hot_first(self):
        hpt = HotPathTable(sets=4, ways=4)
        for i, name in enumerate(["a", "b", "c"]):
            for _ in range(i + 1):
                hpt("f", (name,))
        entries = hpt.result().entries
        assert [e.count for e in entries] == sorted(
            (e.count for e in entries), reverse=True)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            HotPathTable(sets=0)
        with pytest.raises(ValueError):
            HotPathTable(ways=0)

    def test_hash_is_deterministic(self):
        a = HotPathTable(sets=16, ways=1)
        b = HotPathTable(sets=16, ways=1)
        for key in (("f", ("A", "B")), ("g", ("X",))):
            a(*key)
            b(*key)
        assert [(e.function, e.blocks) for e in a.result().entries] == \
            [(e.function, e.blocks) for e in b.result().entries]


class TestRunHpt:
    SRC = """
    func main() {
        s = 0;
        for (i = 0; i < 400; i = i + 1) {
            if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }
            if (i % 3 == 0) { s = s - 1; }
        }
        return s;
    }
    """

    def test_execution_unperturbed(self):
        m = compile_source(self.SRC)
        _a, _p, truth = trace_module(m)
        result = HotPathTable().replay(record_module(m).stream)
        assert result.return_value == truth.return_value

    def test_large_table_matches_ground_truth(self):
        m = compile_source(self.SRC)
        actual, _p, _r = trace_module(m)
        result = HotPathTable(sets=256, ways=8).replay(
            record_module(m).stream)
        assert result.evictions == 0
        counts = {(e.function, e.blocks): e.count for e in result.entries}
        for blocks, count in actual["main"].counts.items():
            assert counts[("main", blocks)] == count

    def test_tiny_table_thrashes(self):
        m = compile_source(self.SRC)
        result = HotPathTable(sets=1, ways=1).replay(
            record_module(m).stream)
        assert result.evictions > 0
        assert result.capacity_pressure > 0

    def test_estimated_flows_metrics(self):
        m = compile_source(self.SRC)
        result = HotPathTable(sets=64, ways=4).replay(
            record_module(m).stream)
        flows = result.estimated_flows(m)
        assert flows
        for entry in result.entries:
            branches = path_branches(m.functions["main"], entry.blocks)
            assert flows[("main", entry.blocks)] == entry.count * branches
