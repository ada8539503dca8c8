"""Tests for the profiler plugin framework.

Covers the registry and its conformance contract, the builtin plugins'
identity with the machine's native channels, the value and trip-count
profilers (correctness, tuple-vs-compiled parity), multi-profiler
fusion with a Ball-Larus plan, HashStore collision/lost accounting
through both backends, the generic observation verifier and the
profiler-fusion codegen client, and a hypothesis property test that any
registered profiler's observation stream is backend-independent on
random programs.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import plan_pp, plan_ppp, run_with_plan, ProfilerConfig
from repro.core.attach import (HookContext, StepCompiler,
                               attach_observations)
from repro.core.ops import AddReg, CountConst, SetReg
from repro.core.runtime import HashStore
from repro.interp import DEFAULT_COSTS, Machine, MachineError
from repro.lang import compile_source
from repro.profilers import (EdgeCountProfiler, InvocationProfiler,
                             MachineChannels, PathTraceProfiler, Profiler,
                             RecordReg, TripCountProfiler, ValueProfiler,
                             available, conformance_errors, create_profilers,
                             execute_profilers, get_profiler, mean_trips,
                             parse_profiler_names, top_values)
from repro.profilers.value_profile import VALUE_CAP
from repro.workloads import random_module

_LIMIT = 5_000_000

LOOPY = """
func main() {
    s = 0;
    for (i = 0; i < 10; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) {
            s = s + i * j;
        }
    }
    return s;
}
"""


# ----------------------------------------------------------------------
# Registry + conformance
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = {info.name for info in available()}
        assert {"calls", "edges", "path", "path-trace", "tripcounts",
                "values"} <= names

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown profiler.*edges"):
            get_profiler("nonsense")

    def test_parse_profiler_names(self):
        assert parse_profiler_names("") == ()
        assert parse_profiler_names("values, tripcounts") == \
            ("values", "tripcounts")
        assert parse_profiler_names(("values", "values")) == ("values",)
        with pytest.raises(ValueError):
            parse_profiler_names("values,bogus")

    def test_plan_bound_profiler_cannot_be_selected(self):
        with pytest.raises(ValueError, match="plan-bound"):
            create_profilers(("path",))

    def test_conformance_rejects_malformed_plugins(self):
        class Bad(Profiler):
            name = "Not Kebab"
            description = ""
            channels = None  # type: ignore[assignment]

        errors = conformance_errors(Bad)
        assert any("kebab" in e for e in errors)
        assert any("description" in e for e in errors)
        assert any("channels" in e for e in errors)
        assert any("collect" in e for e in errors)

    def test_registered_plugins_all_conform(self):
        from repro.profilers import registered_profilers
        for name, cls in registered_profilers().items():
            assert conformance_errors(cls) == [], name

    def test_register_rejects_duplicate_names(self):
        from repro.profilers.registry import register

        class Dupe(Profiler):
            name = "values"  # collides with ValueProfiler
            description = "imposter"
            channels = MachineChannels()

            def collect(self, machine, obs):
                return {}

        with pytest.raises(ValueError, match="duplicate"):
            register(Dupe)


# ----------------------------------------------------------------------
# Builtin plugins == the machine's native channels
# ----------------------------------------------------------------------

class TestBuiltinIdentity:
    @pytest.fixture(scope="class")
    def module(self):
        return compile_source(LOOPY)

    def test_builtins_match_native_channels(self, module):
        run = execute_profilers(
            module, [PathTraceProfiler(), EdgeCountProfiler(),
                     InvocationProfiler()], max_instructions=_LIMIT)
        machine = Machine(module, collect_edge_profile=True,
                          trace_paths=True, max_instructions=_LIMIT)
        native = machine.run()
        assert run.result.return_value == native.return_value
        assert run.result.instructions_executed == \
            native.instructions_executed
        assert run.profiles["edges"] == native.edge_counts
        assert run.profiles["path-trace"] == native.path_counts
        assert run.profiles["calls"] == dict(native.invocations)
        # Channel-only profilers place no ops: nothing billed.
        assert run.result.costs.instrumentation == 0.0

    def test_duplicate_selection_rejected(self, module):
        with pytest.raises(ValueError, match="duplicate"):
            execute_profilers(module, [ValueProfiler(), ValueProfiler()])


# ----------------------------------------------------------------------
# Value profiler
# ----------------------------------------------------------------------

class TestValueProfiler:
    @pytest.fixture(scope="class")
    def profile(self):
        module = compile_source(LOOPY)
        run = execute_profilers(module, [ValueProfiler()],
                                max_instructions=_LIMIT)
        return run.profiles["values"]

    def test_sites_observe_block_exit_values(self, profile):
        sites = profile["main"]
        # The outer increment site writes i = 1..10 exactly once each.
        i_sites = {k: v for k, v in sites.items() if k.endswith(":i")}
        assert any(set(v["values"].values()) == {1} and
                   len(v["values"]) >= 10 for v in i_sites.values())
        # The inner increment writes j = 1..3, once per outer iteration.
        j_sites = {k: v for k, v in sites.items() if k.endswith(":j")}
        assert any(v["values"].get(3) == 10 for v in j_sites.values())

    def test_top_values_ordering(self):
        site = {"values": {7: 5, 3: 5, 9: 1}, "lost": 0}
        assert top_values(site, 2) == [(3, 5), (7, 5)]  # count, then repr

    def test_lost_counter_beyond_cap(self):
        distinct = VALUE_CAP + 40
        src = f"""
        func main() {{
            s = 0;
            for (i = 0; i < {distinct}; i = i + 1) {{ s = s + i; }}
            return s;
        }}
        """
        module = compile_source(src)
        run = execute_profilers(module, [ValueProfiler()],
                                max_instructions=_LIMIT)
        sites = run.profiles["values"]["main"]
        s_sites = [v for k, v in sites.items() if k.endswith(":s")
                   and len(v["values"]) == VALUE_CAP]
        assert s_sites and all(v["lost"] > 0 for v in s_sites)
        # Exact + lost account for every execution of the site.
        for v in s_sites:
            assert sum(v["values"].values()) + v["lost"] == distinct

    def test_backend_parity(self):
        module = compile_source(LOOPY)
        runs = {backend: execute_profilers(module, [ValueProfiler()],
                                           max_instructions=_LIMIT,
                                           backend=backend)
                for backend in ("tuple", "compiled")}
        assert runs["tuple"].profiles == runs["compiled"].profiles
        assert runs["tuple"].result.costs.instrumentation == \
            runs["compiled"].result.costs.instrumentation


# ----------------------------------------------------------------------
# Trip-count profiler
# ----------------------------------------------------------------------

class TestTripCountProfiler:
    def _trips(self, src):
        module = compile_source(src)
        run = execute_profilers(module, [TripCountProfiler()],
                                max_instructions=_LIMIT)
        return run.profiles["tripcounts"]

    def test_nested_loop_histograms(self):
        trips = self._trips(LOOPY)
        loops = trips["main"]
        # Two loops; the outer completes once with 11 header executions
        # (10 iterations + the exit test), the inner 10 times with 4.
        hists = sorted(loops.values(), key=lambda h: sum(h.values()))
        assert sum(hists[0].values()) == 1 and hists[0] == {11: 1}
        assert sum(hists[1].values()) == 10 and hists[1] == {4: 10}

    def test_early_return_closes_episode_via_exit_edge(self):
        trips = self._trips("""
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                s = s + i;
                if (s > 10) { return s; }
            }
            return 0;
        }
        """)
        # The returning block is outside the natural loop, so the edge
        # into it is an exit edge: 5 back edges + 1 = 6 header trips.
        assert list(trips["main"].values()) == [{6: 1}]

    def test_mean_trips(self):
        assert mean_trips({}) == 0.0
        assert mean_trips({2: 1, 4: 1}) == 3.0

    def test_backend_parity(self):
        module = compile_source(LOOPY)
        runs = {backend: execute_profilers(module, [TripCountProfiler()],
                                           max_instructions=_LIMIT,
                                           backend=backend)
                for backend in ("tuple", "compiled")}
        assert runs["tuple"].profiles == runs["compiled"].profiles


# ----------------------------------------------------------------------
# Fusion with a Ball-Larus plan
# ----------------------------------------------------------------------

class TestPlanFusion:
    @pytest.fixture(scope="class")
    def module(self):
        return compile_source(LOOPY)

    def test_extra_profilers_do_not_change_path_counts(self, module):
        plan = plan_pp(module)
        bare = run_with_plan(plan)
        fused = run_with_plan(plan, profilers=("values", "tripcounts"))
        assert fused.run.return_value == bare.run.return_value
        for name in plan.functions:
            assert fused.stores[name].hot_items() == \
                bare.stores[name].hot_items()
        assert set(fused.profiles) == {"values", "tripcounts"}
        # Fused observation work is billed through the same counter.
        assert fused.run.costs.instrumentation > \
            bare.run.costs.instrumentation
        assert fused.overhead > bare.overhead

    def test_fusion_backend_parity(self, module):
        plan = plan_pp(module)
        runs = {b: run_with_plan(plan, backend=b,
                                 profilers=("values", "tripcounts"))
                for b in ("tuple", "compiled")}
        assert runs["tuple"].profiles == runs["compiled"].profiles
        assert runs["tuple"].run.costs.instrumentation == \
            runs["compiled"].run.costs.instrumentation
        for name in plan.functions:
            assert runs["tuple"].stores[name].hot_items() == \
                runs["compiled"].stores[name].hot_items()


# ----------------------------------------------------------------------
# Step hoisting (shared compiled steps for identical op lists)
# ----------------------------------------------------------------------

class TestStepHoisting:
    def test_identical_op_lists_share_compiled_steps(self):
        store = HashStore(num_hot=10)
        compiler = StepCompiler(HookContext(DEFAULT_COSTS, store=store))
        a = compiler.compile([SetReg(7, poison=True), AddReg(2)])
        b = compiler.compile([SetReg(7, poison=True), AddReg(2)])
        assert a is b  # memoised: same steps tuple, compiled once
        c = compiler.compile([SetReg(8, poison=True), AddReg(2)])
        assert c is not a

    def test_hoisted_steps_are_edge_independent(self):
        # One shared step bumped through two different "edges" must
        # observe both executions (it closes over the store, not the
        # edge).
        store = HashStore(num_hot=10)
        compiler = StepCompiler(HookContext(DEFAULT_COSTS, store=store))
        (step,), _cost = compiler.compile([CountConst(3)])
        step(None)
        step(None)
        assert store.hot_items() == [(3, 2)]


# ----------------------------------------------------------------------
# HashStore collision / lost accounting through both backends
# ----------------------------------------------------------------------

class TestHashStoreBackends:
    def _run(self, backend):
        """Force collisions: 3 slots, 1 try, distinct constant indices
        on every edge of a branchy loop."""
        module = compile_source(LOOPY)
        machine = Machine(module, max_instructions=_LIMIT,
                          backend=backend)
        store = HashStore(num_hot=1000, slots=3, tries=1)
        func = module.functions["main"]
        edge_ops = {e.uid: [CountConst(i * 37 + 1)]
                    for i, e in enumerate(sorted(func.cfg.edges(),
                                                 key=lambda e: e.uid))}
        ctx = HookContext(machine.cost_model, store=store, checked=False)
        attach_observations(machine, "main", [(edge_ops, ctx)])
        result = machine.run()
        return store, result

    def test_collisions_and_lost_identical_across_backends(self):
        tup_store, tup_result = self._run("tuple")
        comp_store, comp_result = self._run("compiled")
        assert tup_store.lost > 0  # the 3-slot table must overflow
        assert (tup_store.keys, tup_store.values, tup_store.lost,
                tup_store.cold) == (comp_store.keys, comp_store.values,
                                    comp_store.lost, comp_store.cold)
        assert tup_result.costs.instrumentation == \
            comp_result.costs.instrumentation

    def test_hash_plan_accounting_both_backends(self):
        # A genuinely hashed *plan* (threshold forced down) keeps
        # measured + lost == executions under either backend.
        module = compile_source(LOOPY)
        config = ProfilerConfig(hash_threshold=2)
        plan = plan_pp(module, config)
        assert plan.functions["main"].use_hash
        stores = {}
        for backend in ("tuple", "compiled"):
            run = run_with_plan(plan, backend=backend)
            stores[backend] = run.stores["main"]
        t, c = stores["tuple"], stores["compiled"]
        assert (t.keys, t.values, t.lost, t.cold) == \
            (c.keys, c.values, c.lost, c.cold)
        assert sum(v for _k, v in t.hot_items()) + t.cold_total() > 0


# ----------------------------------------------------------------------
# Generic observation verification + codegen fusion client
# ----------------------------------------------------------------------

class TestObservationVerification:
    def test_clean_placements_verify(self):
        from repro.analysis import verify_observations
        module = compile_source(LOOPY)
        report = verify_observations(
            module, create_profilers(("values", "tripcounts")))
        assert report.ok, report.format()

    def test_bad_placement_is_rejected(self):
        from repro.analysis import verify_observations
        from repro.profilers.base import (FunctionObservations,
                                          ModuleObservations)

        class Misplaced(ValueProfiler):
            def instrument(self, module, cost_model):
                obs = ModuleObservations()
                func = module.functions["main"]
                edge = next(iter(func.cfg.edges()))
                obs.functions["main"] = FunctionObservations(
                    edge_ops={
                        edge.uid: [RecordReg(10_000, "nowhere", "x")],
                        999_999: [RecordReg(0, edge.src, "s")],
                    },
                    context=HookContext(cost_model, state={}))
                return obs

        module = compile_source(LOOPY)
        report = verify_observations(module, [Misplaced()])
        codes = sorted(d.code for d in report.errors())
        assert "V501" in codes  # unknown edge uid
        assert "V502" in codes  # op's own contract violated

    def test_profiler_codegen_fusion_validates(self, monkeypatch):
        # The hooked code a fused selection runs is translation-
        # validated before it executes; a mismatch would raise.
        monkeypatch.setenv("REPRO_EQUIV", "1")
        module = compile_source(LOOPY)
        run = execute_profilers(
            module, create_profilers(("values", "tripcounts")),
            backend="compiled")
        assert set(run.profiles) == {"values", "tripcounts"}


# ----------------------------------------------------------------------
# Property: observation streams are backend-independent
# ----------------------------------------------------------------------

def _observation_signature(module, backend):
    try:
        run = execute_profilers(
            module, [PathTraceProfiler(), EdgeCountProfiler(),
                     InvocationProfiler(), ValueProfiler(),
                     TripCountProfiler()],
            max_instructions=400_000, backend=backend)
    except MachineError:
        return ("machine-error",)
    return {
        "return_value": run.result.return_value,
        "instructions": run.result.instructions_executed,
        "instrumentation": run.result.costs.instrumentation,
        "instrumentation_ops": run.result.costs.instrumentation_ops,
        "profiles": run.profiles,
    }


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_profiler_streams_backend_independent_on_random_programs(seed):
    module = random_module(seed)
    tup = _observation_signature(module, "tuple")
    comp = _observation_signature(module, "compiled")
    assert comp == tup, seed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_profilers_listing(self, capsys):
        from repro.__main__ import main as repro_main
        assert repro_main(["profilers"]) == 0
        out = capsys.readouterr().out
        for name in ("values", "tripcounts", "edges", "path-trace",
                     "calls", "path"):
            assert name in out
        assert "needs-plan" in out

    def test_profile_with_profilers(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main
        src = tmp_path / "p.minic"
        src.write_text(LOOPY)
        assert repro_main(["profile", str(src),
                           "--profilers", "values,tripcounts"]) == 0
        out = capsys.readouterr().out
        assert "values:" in out and "tripcounts:" in out
        assert "episodes" in out

    def test_profile_rejects_unknown_profiler(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main
        src = tmp_path / "p.minic"
        src.write_text(LOOPY)
        assert repro_main(["profile", str(src),
                           "--profilers", "bogus"]) == 1
        assert "unknown profiler" in capsys.readouterr().err

    def test_cache_info_prints_schema_version(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main
        from repro.engine import CACHE_SALT
        assert repro_main(["cache", "info", "--dir", str(tmp_path)]) == 0
        assert f"cache salt: {CACHE_SALT:08x}" in capsys.readouterr().out
