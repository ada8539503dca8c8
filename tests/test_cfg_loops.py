"""Tests for repro.cfg.loops."""

from repro.cfg import (build_cfg, find_back_edges, find_loops,
                       innermost_loops, loop_depths)

from conftest import diamond_cfg, loop_cfg


class TestBackEdges:
    def test_simple_loop(self):
        backs = find_back_edges(loop_cfg())
        assert [(e.src, e.dst) for e in backs] == [("B", "H")]

    def test_acyclic_has_none(self):
        assert find_back_edges(diamond_cfg()) == []

    def test_self_loop(self):
        cfg = build_cfg("g", [("A", "B"), ("B", "B"), ("B", "C")],
                        "A", "C")
        backs = find_back_edges(cfg)
        assert [(e.src, e.dst) for e in backs] == [("B", "B")]

    def test_nested_loops_two_back_edges(self):
        cfg = build_cfg("g", [
            ("E", "H1"), ("H1", "H2"), ("H2", "B"), ("B", "H2"),
            ("H2", "T"), ("T", "H1"), ("H1", "X"),
        ], "E", "X")
        backs = {(e.src, e.dst) for e in find_back_edges(cfg)}
        assert backs == {("B", "H2"), ("T", "H1")}

    def test_irreducible_region_still_broken(self):
        # Two-entry cycle B <-> C (neither dominates the other).
        cfg = build_cfg("g", [
            ("A", "B"), ("A", "C"), ("B", "C"), ("C", "B"),
            ("B", "X"), ("C", "X"),
        ], "A", "X")
        backs = find_back_edges(cfg)
        assert backs, "irreducible cycle must be broken by retreating edges"
        from repro.cfg import build_profiling_dag, is_acyclic
        assert is_acyclic(build_profiling_dag(cfg).dag)


class TestNaturalLoops:
    def test_loop_body(self):
        loops = find_loops(loop_cfg())
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == "H"
        assert loop.body == {"H", "B"}
        assert [e.src for e in loop.back_edges] == ["B"]
        assert loop.depth == 1

    def test_nested_loop_structure(self):
        cfg = build_cfg("g", [
            ("E", "H1"), ("H1", "H2"), ("H2", "B"), ("B", "H2"),
            ("H2", "T"), ("T", "H1"), ("H1", "X"),
        ], "E", "X")
        loops = find_loops(cfg)
        by_header = {lp.header: lp for lp in loops}
        outer, inner = by_header["H1"], by_header["H2"]
        assert inner.parent is outer
        assert outer.children == [inner]
        assert inner.depth == 2
        assert inner.body < outer.body
        assert innermost_loops(loops) == [inner]

    def test_shared_header_back_edges_merge(self):
        cfg = build_cfg("g", [
            ("E", "H"), ("H", "A"), ("H", "B"), ("A", "H"), ("B", "H"),
            ("H", "X"),
        ], "E", "X")
        loops = find_loops(cfg)
        assert len(loops) == 1
        assert len(loops[0].back_edges) == 2
        assert loops[0].body == {"H", "A", "B"}

    def test_entry_and_exit_edges(self):
        cfg = loop_cfg()
        loop = find_loops(cfg)[0]
        assert [(e.src, e.dst) for e in loop.entry_edges(cfg)] == \
            [("E", "H")]
        assert [(e.src, e.dst) for e in loop.exit_edges(cfg)] == \
            [("H", "X")]

    def test_loop_depths(self):
        cfg = build_cfg("g", [
            ("E", "H1"), ("H1", "H2"), ("H2", "B"), ("B", "H2"),
            ("H2", "T"), ("T", "H1"), ("H1", "X"),
        ], "E", "X")
        depths = loop_depths(cfg)
        assert depths["E"] == 0
        assert depths["X"] == 0
        assert depths["H1"] == 1
        assert depths["H2"] == 2
        assert depths["B"] == 2
