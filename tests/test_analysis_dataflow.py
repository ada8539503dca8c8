"""The generic worklist dataflow framework and its bundled clients.

Cross-checks each client against an independent oracle already in the
tree: ``LiveRegisters`` against :class:`repro.opt.Liveness`,
``DominatorSets`` against the Lengauer-style :class:`DominatorTree`, and
the rest against hand-computed facts on the shared fixture graphs.
"""

from conftest import SMALL_PROGRAM, diamond_cfg, fig8_function, loop_cfg

from repro.analysis import (DataflowProblem, Def, DefiniteAssignment,
                            DominatorSets, LiveRegisters,
                            ReachingDefinitions, solve)
from repro.cfg import DominatorTree, build_cfg
from repro.ir import IRBuilder
from repro.lang import compile_source
from repro.opt import Liveness


def _one_sided_def():
    """``v`` is assigned on only one arm of a diamond, then read."""
    b = IRBuilder("onesided", params=["p"])
    b.block("A")
    b.branch("p", "B", "C")
    b.block("B")
    b.const("v", 7)
    b.jump("D")
    b.block("C")
    b.jump("D")
    b.block("D")
    b.binop("+", "r", "v", "p")
    b.ret("r")
    return b.finish("A")


# ----------------------------------------------------------------------
# The solver itself
# ----------------------------------------------------------------------

class _ReachableBlocks(DataflowProblem[frozenset]):
    """Forward may-analysis: the set of blocks on some path to here."""

    direction = "forward"

    def boundary(self):
        return frozenset()

    def init(self):
        return frozenset()

    def meet(self, values):
        out: frozenset = frozenset()
        for v in values:
            out |= v
        return out

    def transfer(self, block, value):
        return value | {block}


def test_solve_forward_converges_on_loops():
    cfg = loop_cfg()
    result = solve(cfg, _ReachableBlocks())
    assert result.out_of("X") == frozenset({"E", "H", "B", "X"})
    # The loop body sees itself through the back edge.
    assert "B" in result.in_of("B")
    assert result.iterations >= 1


def test_solve_leaves_unreachable_blocks_at_init():
    cfg = build_cfg("u", [("A", "B"), ("C", "B")], "A", "B")
    result = solve(cfg, _ReachableBlocks())
    assert result.in_of("C") == frozenset()
    assert result.out_of("B") == frozenset({"A", "B"})


def test_solve_is_deterministic():
    cfg = fig8_function().cfg
    first = solve(cfg, _ReachableBlocks())
    second = solve(cfg, _ReachableBlocks())
    assert {n: first.out_of(n) for n in cfg.blocks} \
        == {n: second.out_of(n) for n in cfg.blocks}
    assert first.iterations == second.iterations


# ----------------------------------------------------------------------
# Liveness client vs the optimizer's own analysis
# ----------------------------------------------------------------------

def _assert_liveness_matches(func):
    oracle = Liveness(func)
    ours = LiveRegisters(func)
    for name in func.cfg.blocks:
        assert set(ours.live_in(name)) == oracle.live_in[name], name
        assert set(ours.live_out(name)) == oracle.live_out[name], name


def test_live_registers_matches_opt_liveness_fig8():
    _assert_liveness_matches(fig8_function())


def test_live_registers_matches_opt_liveness_real_program():
    module = compile_source(SMALL_PROGRAM, name="small")
    for func in module.functions.values():
        _assert_liveness_matches(func)


def test_live_registers_one_sided():
    func = _one_sided_def()
    live = LiveRegisters(func)
    assert "v" in live.live_in("C")  # read in D, not written in C
    assert "v" not in live.live_in("B")  # B defines it first
    assert "p" in live.live_in("A")


# ----------------------------------------------------------------------
# Definite assignment / reaching definitions
# ----------------------------------------------------------------------

def test_definite_assignment_requires_all_paths():
    func = _one_sided_def()
    da = DefiniteAssignment(func)
    assert "v" not in da.assigned_on_entry("D")
    assert "v" in da.assigned_on_entry("D") | {"v"}  # sanity on set type
    assert "p" in da.assigned_on_entry("D")  # params assigned at entry
    assert "v" not in da.assigned_on_entry("C")


def test_reaching_definitions_merge_unions_both_arms():
    b = IRBuilder("merge", params=["p"])
    b.block("A")
    b.branch("p", "B", "C")
    b.block("B")
    b.const("v", 1)
    b.jump("D")
    b.block("C")
    b.const("v", 2)
    b.jump("D")
    b.block("D")
    b.mov("r", "v")
    b.ret("r")
    func = b.finish("A")
    rd = ReachingDefinitions(func)
    v_defs = {d for d in rd.reaching("D") if d.reg == "v"}
    assert v_defs == {Def("B", 0, "v"), Def("C", 0, "v")}


def test_reaching_definitions_kill_within_block():
    b = IRBuilder("kill")
    b.block("A")
    b.const("v", 1)
    b.const("v", 2)
    b.jump("B")
    b.block("B")
    b.ret("v")
    func = b.finish("A")
    rd = ReachingDefinitions(func)
    v_defs = {d for d in rd.reaching("B") if d.reg == "v"}
    assert v_defs == {Def("A", 1, "v")}  # the redefinition killed index 0


# ----------------------------------------------------------------------
# Dominators as a dataflow problem vs the dedicated tree
# ----------------------------------------------------------------------

def _assert_dominators_match(cfg):
    tree = DominatorTree(cfg)
    sets = DominatorSets(cfg)
    from repro.cfg import reachable
    for name in reachable(cfg):
        assert set(sets.dominators_of(name)) \
            == set(tree.dominators_of(name)), name


def test_dominator_sets_match_tree_diamond():
    _assert_dominators_match(diamond_cfg())


def test_dominator_sets_match_tree_loop():
    _assert_dominators_match(loop_cfg())


def test_dominator_sets_match_tree_fig8():
    _assert_dominators_match(fig8_function().cfg)
