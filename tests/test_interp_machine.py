"""Tests for the interpreter: execution, edge profile, path tracing, hooks."""

import pytest

from repro.interp import Machine, MachineError, run_module
from repro.lang import compile_source
from repro.profiles import EdgeProfile, PathProfile

from conftest import SMALL_PROGRAM, trace_module


class TestExecution:
    def test_deterministic(self, small_module):
        a = run_module(small_module)
        b = run_module(small_module)
        assert a.return_value == b.return_value
        assert a.instructions_executed == b.instructions_executed

    def test_instruction_limit(self, small_module):
        with pytest.raises(MachineError):
            run_module(small_module, max_instructions=100)

    def test_unknown_function(self, small_module):
        with pytest.raises(MachineError):
            Machine(small_module).run("ghost")

    def test_argument_passing(self):
        m = compile_source("func f(a, b) { return a * 10 + b; } "
                           "func main() { return f(1, 2); }")
        assert Machine(m).run("f", (7, 3)).return_value == 73

    def test_wrong_arity(self):
        m = compile_source("func f(a) { return a; } "
                           "func main() { return f(1); }")
        with pytest.raises(MachineError):
            Machine(m).run("f", (1, 2))

    def test_registers_zero_initialised(self):
        m = compile_source("func main() { return never_assigned; }")
        assert run_module(m).return_value == 0

    def test_array_index_wraps(self):
        m = compile_source("""
            global a[4];
            func main() { a[1] = 7; return a[5]; }""")
        assert run_module(m).return_value == 7

    def test_deep_recursion_does_not_hit_python_limit(self):
        m = compile_source("""
            func down(n) { if (n == 0) { return 0; }
                return down(n - 1) + 1; }
            func main() { return down(5000); }""")
        assert run_module(m).return_value == 5000

    def test_base_cost_counts_instructions(self, small_module):
        result = run_module(small_module)
        assert result.costs.base == pytest.approx(
            result.instructions_executed)


class TestEdgeProfile:
    def test_flow_conservation(self, small_module, small_truth):
        _actual, profile, _r = small_truth
        for name, fp in profile.functions.items():
            func = small_module.functions[name]
            for bname, block in func.cfg.blocks.items():
                inflow = sum(fp.freq(e) for e in block.pred_edges)
                if bname == func.cfg.entry:
                    inflow += fp.entry_count
                outflow = sum(fp.freq(e) for e in block.succ_edges)
                if bname == func.cfg.exit:
                    outflow += fp.entry_count  # each call exits once
                assert inflow == outflow, (name, bname)

    def test_block_freq_matches_edges(self, small_truth):
        _actual, profile, _r = small_truth
        fp = profile["helper"]
        entry = fp.func.cfg.entry
        assert fp.block_freq(entry) == fp.entry_count

    def test_invocations_counted(self, small_truth):
        _a, profile, _r = small_truth
        assert profile["main"].entry_count == 1
        assert profile["helper"].entry_count == 40

    def test_unit_flow_counts_paths(self, small_truth):
        actual, profile, _r = small_truth
        # Unit flow (invocations + back-edge traversals) must equal the
        # number of traced dynamic paths.
        assert profile.total_unit_flow() == actual.dynamic_paths()


class TestPathTracing:
    def test_paths_start_and_end_correctly(self, small_module, small_truth):
        actual, _p, _r = small_truth
        for name, fp in actual.functions.items():
            cfg = small_module.functions[name].cfg
            from repro.cfg import find_back_edges
            headers = {e.dst for e in find_back_edges(cfg)}
            tails = {e.src for e in find_back_edges(cfg)}
            for path in fp.counts:
                assert path[0] == cfg.entry or path[0] in headers
                assert path[-1] == cfg.exit or path[-1] in tails

    def test_path_counts_total(self, small_truth):
        actual, _p, _r = small_truth
        # main: 1 invocation -> paths = 1 + back-edge traversals.
        assert sum(actual["main"].counts.values()) >= 1

    def test_call_defers_caller_path(self):
        # The caller's path must pass *through* the call block, not break.
        m = compile_source("""
            func callee() { return 1; }
            func main() { x = callee(); return x + 1; }
        """)
        actual, _p, result = trace_module(m)
        assert result.return_value == 2
        main_paths = list(actual["main"].counts)
        assert len(main_paths) == 1
        # A single path covering entry..exit despite the call.
        path = main_paths[0]
        assert path[0] == "entry" and path[-1] == "exit"

    def test_consecutive_path_blocks_are_cfg_edges(self, small_module,
                                                   small_truth):
        actual, _p, _r = small_truth
        for name, fp in actual.functions.items():
            cfg = small_module.functions[name].cfg
            for path in fp.counts:
                for a, b in zip(path, path[1:]):
                    assert cfg.has_edge(a, b), (name, a, b)


class TestEdgeHooks:
    def test_hook_fires_per_traversal(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 5; i = i + 1) { s = s + i; }
                return s; }""")
        machine = Machine(m, collect_edge_profile=True)
        func = m.functions["main"]
        from repro.cfg import find_back_edges
        back = find_back_edges(func.cfg)[0]
        fired = []
        machine.set_edge_hook("main", back.uid, lambda frame: fired.append(1))
        result = machine.run()
        assert len(fired) == result.edge_counts["main"][back.uid] == 5

    @pytest.mark.parametrize("backend", ["compiled", "tuple"])
    def test_hook_sees_reserved_path_register(self, backend):
        # Every activation reserves a path register beside the IR's own
        # registers: it starts at zero, and the program never touches it.
        m = compile_source(
            "func main() { if (1) { x = 1; } else { x = 2; } return x; }")
        machine = Machine(m, backend=backend)
        func = m.functions["main"]
        edge = func.cfg.out_edges("entry")[0]
        seen = []

        def hook(frame):
            frame.path_reg += 5
            seen.append((frame.path_reg, len(frame.regs)))

        machine.set_edge_hook("main", edge.uid, hook)
        assert machine.run().return_value == 1
        assert seen == [(5, func.num_slots)]

    def test_unknown_edge_uid_rejected(self):
        m = compile_source("func main() { return 0; }")
        machine = Machine(m)
        with pytest.raises(MachineError):
            machine.set_edge_hook("main", 999999, lambda f: None)
