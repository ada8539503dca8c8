"""Unit tests for the hash-consed symbolic executor.

The factory's interning and concolic folds are the soundness core of the
translation validator: if two structurally equal terms were ever
distinct objects, the equivalence clients would report false positives;
if a fold disagreed with the interpreter's primitives, they would miss
real bugs.
"""

import pytest

from repro.analysis.symexec import (IRSymbolicExecutor, SymState,
                                    TermFactory, format_op, format_term,
                                    ir_binop, ir_unop, ops_equal,
                                    wrap_index)
from repro.interp.machine import _BIN_FNS, _UN_FNS, _c_div, _c_mod
from repro.ir.instructions import (BinOp, Const, GlobalStore, Load, Mov,
                                   Select, Store, UnOp)
from repro.lang import compile_source


class TestInterning:
    def test_structural_equality_is_identity(self):
        fact = TermFactory()
        x, y = fact.input("x"), fact.input("y")
        assert fact.bin("+", x, y) is fact.bin("+", x, y)
        assert fact.bin("+", x, y) is not fact.bin("+", y, x)
        assert fact.const(7) is fact.const(7)

    def test_constants_discriminate_type(self):
        fact = TermFactory()
        assert fact.const(1) is not fact.const(1.0)
        assert fact.const(1) is not fact.const(True)
        assert fact.const(0) is not fact.const(False)

    def test_distinct_factories_do_not_share(self):
        assert TermFactory().const(3) is not TermFactory().const(3)


class TestConcolicFolding:
    @pytest.mark.parametrize("op", sorted(_BIN_FNS))
    @pytest.mark.parametrize("a,b", [(7, 3), (-9, 4), (0, 5), (13, -2)])
    def test_binop_folds_match_interpreter(self, op, a, b):
        fact = TermFactory()
        term = ir_binop(fact, op, fact.const(a), fact.const(b))
        assert term.is_const
        assert term.value == _BIN_FNS[op](a, b)

    @pytest.mark.parametrize("op", sorted(_UN_FNS))
    @pytest.mark.parametrize("a", [7, -3, 0])
    def test_unop_folds_match_interpreter(self, op, a):
        fact = TermFactory()
        term = ir_unop(fact, op, fact.const(a))
        assert term.is_const
        assert term.value == _UN_FNS[op](a)

    def test_c_division_semantics(self):
        fact = TermFactory()
        assert ir_binop(fact, "/", fact.const(-7),
                        fact.const(2)).value == _c_div(-7, 2)
        assert ir_binop(fact, "%", fact.const(-7),
                        fact.const(2)).value == _c_mod(-7, 2)

    def test_division_by_zero_folds_like_interpreter(self):
        fact = TermFactory()
        # The interpreter defines x/0 == x%0 == 0; the fold must agree.
        assert ir_binop(fact, "/", fact.const(1), fact.const(0)).value == 0
        assert ir_binop(fact, "%", fact.const(1), fact.const(0)).value == 0

    def test_degenerate_fold_stays_symbolic(self):
        fact = TermFactory()
        # int(inf) raises OverflowError; the cast must stay symbolic
        # rather than poison the check.
        term = fact.cast(fact.const(float("inf")))
        assert not term.is_const
        # ... and interns: the same degenerate fold is one node.
        assert term is fact.cast(fact.const(float("inf")))

    def test_symbolic_operand_stays_symbolic(self):
        fact = TermFactory()
        term = ir_binop(fact, "+", fact.input("x"), fact.const(1))
        assert not term.is_const

    def test_shift_masks_to_six_bits(self):
        fact = TermFactory()
        term = ir_binop(fact, "<<", fact.const(1), fact.const(65))
        assert term.value == 1 << (65 & 63)

    def test_wrap_index_folds(self):
        fact = TermFactory()
        assert wrap_index(fact, fact.const(-1), 10).value == (-1) % 10


class TestSelectResolution:
    def test_const_condition_picks_arm(self):
        fact = TermFactory()
        a, b = fact.input("a"), fact.input("b")
        assert fact.select(fact.const(1), a, b) is a
        assert fact.select(fact.const(0), a, b) is b

    def test_equal_arms_collapse(self):
        fact = TermFactory()
        cond, a = fact.input("c"), fact.input("a")
        assert fact.select(cond, a, a) is a

    def test_assumed_condition_resolves(self):
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.input(key))
        cond = fact.cmp("<", fact.input("x"), fact.const(5))
        a, b = fact.input("a"), fact.input("b")
        assert state.select(cond, a, b).kind == "sel"
        state.assume(cond, True)
        assert state.select(cond, a, b) is a
        state.assume(cond, False)
        assert state.select(cond, a, b) is b


class TestMemoryVersioning:
    def _executor(self):
        module = compile_source(
            "func main() { var a[4]; a[0] = 1; return a[0]; }")
        func = module.functions["main"]
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.input(key))
        ops = []
        return IRSymbolicExecutor(func, module, state, ops), ops, fact

    def test_store_advances_load_version(self):
        ex, ops, fact = self._executor()
        ex.step(Const("i", 0))
        ex.step(Load("v0", "a", "i"))
        ex.step(Const("one", 1))
        ex.step(Store("a", "i", "one"))
        ex.step(Load("v1", "a", "i"))
        before, after = ex.read("v0"), ex.read("v1")
        assert before is not after
        assert [op[0] for op in ops] == ["store"]

    def test_same_version_loads_intern(self):
        ex, _ops, _fact = self._executor()
        ex.step(Const("i", 2))
        ex.step(Load("x", "a", "i"))
        ex.step(Load("y", "a", "i"))
        assert ex.read("x") is ex.read("y")

    def test_zero_fill_via_init_reg(self):
        module = compile_source("func main() { return 0; }")
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.const(0))
        ex = IRSymbolicExecutor(module.functions["main"], module, state,
                                [])
        ex.step(Mov("x", "never_written"))
        assert ex.read("x") is fact.const(0)


class TestStreams:
    def test_ops_equal_is_identity_on_terms(self):
        fact = TermFactory()
        x = fact.input("x")
        assert ops_equal(("gstore", "g", x), ("gstore", "g", x))
        assert not ops_equal(("gstore", "g", x),
                             ("gstore", "g", fact.input("y")))
        assert not ops_equal(("gstore", "g", x), ("gstore", "h", x))
        assert not ops_equal(("gstore", "g", x), ("store", "g", x))

    def test_select_instruction_streams_nothing(self):
        module = compile_source("func main() { return 0; }")
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.input(key))
        ops = []
        ex = IRSymbolicExecutor(module.functions["main"], module, state,
                                ops)
        ex.step(Const("c", 1))
        ex.step(Select("d", "c", "c", "c"))
        assert ops == []

    def test_gstore_appends_effect(self):
        module = compile_source(
            "global g; func main() { g = 3; return g; }")
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.input(key))
        ops = []
        ex = IRSymbolicExecutor(module.functions["main"], module, state,
                                ops)
        ex.step(Const("v", 3))
        ex.step(GlobalStore("g", "v"))
        assert len(ops) == 1 and ops[0][0] == "gstore"

    def test_formatting_smoke(self):
        fact = TermFactory()
        deep = fact.input("x")
        for _ in range(8):
            deep = fact.bin("+", deep, fact.const(1))
        assert "…" in format_term(deep)
        assert "gstore" in format_op(("gstore", "g", fact.const(2)))


class TestCloning:
    def test_clone_is_independent(self):
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.input(key))
        state.set("r", fact.const(1))
        cond = fact.input("c")
        twin = state.clone()
        twin.set("r", fact.const(2))
        twin.assume(cond, True)
        twin.write_mem(("gs", "g"))
        assert state.get("r") is fact.const(1)
        assert state.assumed(cond) is None
        assert state.version(("gs", "g")) == 0
        assert twin.version(("gs", "g")) == 1

    def test_activation_ordinals(self):
        fact = TermFactory()
        state = SymState(fact, lambda key: fact.input(key))
        assert state.activation("f") == 0
        assert state.activation("f") == 1
        assert state.activation("g") == 0
