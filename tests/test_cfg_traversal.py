"""Tests for repro.cfg.traversal."""

import pytest

from repro.cfg import (CFGError, build_cfg, depth_first_order, is_acyclic,
                       postorder, reachable, reverse_postorder,
                       reverse_topological_order, topological_order)

from conftest import diamond_cfg, loop_cfg


class TestDfsOrders:
    def test_depth_first_preorder_starts_at_entry(self):
        order = depth_first_order(diamond_cfg())
        assert order[0] == "A"
        assert set(order) == {"A", "B", "C", "D"}

    def test_postorder_ends_at_entry(self):
        order = postorder(diamond_cfg())
        assert order[-1] == "A"
        assert set(order) == {"A", "B", "C", "D"}

    def test_reverse_postorder_is_topological_on_dag(self):
        cfg = diamond_cfg()
        order = reverse_postorder(cfg)
        pos = {n: i for i, n in enumerate(order)}
        for edge in cfg.edges():
            assert pos[edge.src] < pos[edge.dst]

    def test_postorder_handles_cycles(self):
        order = postorder(loop_cfg())
        assert set(order) == {"E", "H", "B", "X"}

    def test_no_entry_raises(self):
        from repro.cfg import ControlFlowGraph
        with pytest.raises(CFGError):
            depth_first_order(ControlFlowGraph("g"))


class TestReachability:
    def test_reachable_excludes_disconnected(self):
        cfg = diamond_cfg()
        cfg.add_block("orphan")
        assert "orphan" not in reachable(cfg)


class TestTopological:
    def test_topological_order_respects_edges(self):
        cfg = diamond_cfg()
        order = topological_order(cfg)
        pos = {n: i for i, n in enumerate(order)}
        for edge in cfg.edges():
            assert pos[edge.src] < pos[edge.dst]

    def test_reverse_topological_is_reverse(self):
        cfg = diamond_cfg()
        assert reverse_topological_order(cfg) == \
            list(reversed(topological_order(cfg)))

    def test_cycle_raises(self):
        with pytest.raises(CFGError):
            topological_order(loop_cfg())

    def test_is_acyclic(self):
        assert is_acyclic(diamond_cfg())
        assert not is_acyclic(loop_cfg())

    def test_unreachable_blocks_excluded(self):
        cfg = diamond_cfg()
        cfg.add_block("island")
        order = topological_order(cfg)
        assert "island" not in order

    def test_long_chain_no_recursion_error(self):
        n = 5000
        edges = [(f"b{i}", f"b{i + 1}") for i in range(n)]
        cfg = build_cfg("chain", edges, "b0", f"b{n}")
        assert len(topological_order(cfg)) == n + 1
        assert len(postorder(cfg)) == n + 1
