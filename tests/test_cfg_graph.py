"""Tests for repro.cfg.graph."""

import pytest

from repro.cfg import CFGError, ControlFlowGraph, build_cfg

from conftest import diamond_cfg


class TestBasicConstruction:
    def test_add_block_and_edge(self):
        cfg = ControlFlowGraph("g")
        cfg.add_block("A")
        cfg.add_block("B")
        edge = cfg.add_edge("A", "B")
        assert edge.src == "A" and edge.dst == "B"
        assert cfg.succs("A") == ["B"]
        assert cfg.preds("B") == ["A"]
        assert cfg.num_edges == 1

    def test_duplicate_block_rejected(self):
        cfg = ControlFlowGraph("g")
        cfg.add_block("A")
        with pytest.raises(CFGError):
            cfg.add_block("A")

    def test_edge_to_unknown_block_rejected(self):
        cfg = ControlFlowGraph("g")
        cfg.add_block("A")
        with pytest.raises(CFGError):
            cfg.add_edge("A", "missing")
        with pytest.raises(CFGError):
            cfg.add_edge("missing", "A")

    def test_ensure_block_idempotent(self):
        cfg = ControlFlowGraph("g")
        a1 = cfg.ensure_block("A")
        a2 = cfg.ensure_block("A")
        assert a1 is a2

    def test_parallel_edges_are_distinct(self):
        cfg = ControlFlowGraph("g")
        cfg.add_block("A")
        cfg.add_block("B")
        e1 = cfg.add_edge("A", "B")
        e2 = cfg.add_edge("A", "B")
        assert e1 != e2
        assert len(cfg.edges_between("A", "B")) == 2
        with pytest.raises(CFGError):
            cfg.edge("A", "B")  # ambiguous

    def test_remove_edge(self):
        cfg = build_cfg("g", [("A", "B"), ("B", "C")], "A", "C")
        edge = cfg.edge("A", "B")
        cfg.remove_edge(edge)
        assert not cfg.has_edge("A", "B")
        assert cfg.has_edge("B", "C")
        with pytest.raises(CFGError):
            cfg.remove_edge(edge)

    def test_edge_hash_is_uid(self):
        cfg = build_cfg("g", [("A", "B")], "A", "B")
        edge = cfg.edge("A", "B")
        assert hash(edge) == edge.uid
        assert edge.pair == ("A", "B")


class TestQueries:
    def test_in_out_edges(self):
        cfg = diamond_cfg()
        assert len(cfg.out_edges("A")) == 2
        assert len(cfg.in_edges("D")) == 2
        assert cfg.num_blocks == 4

    def test_build_cfg_creates_blocks_on_demand(self):
        cfg = build_cfg("g", [("X", "Y")], "X", "Y")
        assert set(cfg.blocks) == {"X", "Y"}
        assert cfg.entry == "X" and cfg.exit == "Y"


class TestValidateAndCopy:
    def test_validate_good_graph(self):
        diamond_cfg().validate()

    def test_validate_missing_entry(self):
        cfg = ControlFlowGraph("g")
        cfg.add_block("A")
        with pytest.raises(CFGError):
            cfg.validate()

    def test_set_entry_unknown(self):
        cfg = ControlFlowGraph("g")
        with pytest.raises(CFGError):
            cfg.set_entry("nope")
        with pytest.raises(CFGError):
            cfg.set_exit("nope")

    def test_copy_is_structural(self):
        cfg = diamond_cfg()
        other = cfg.copy()
        assert set(other.blocks) == set(cfg.blocks)
        assert other.num_edges == cfg.num_edges
        assert other.entry == cfg.entry and other.exit == cfg.exit
        # Mutating the copy leaves the original alone.
        other.remove_edge(other.edge("A", "B"))
        assert cfg.has_edge("A", "B")
        assert not other.has_edge("A", "B")
