"""Differential equivalence between the compiled and tuple backends.

The tuple interpreter is the reference implementation; the compiled
backend must be observationally identical on every workload in the
suite: same return values, instruction counts, costs, edge counts, path
counts, invocation counts, and listener event streams.
"""

import gc
import re
import weakref
from collections import Counter

import pytest

from repro.analysis.conservation import static_placement
from repro.core import plan_pp, plan_ppp, plan_tpp, run_with_plan
from repro.interp import compiled
from repro.interp import (DEFAULT_BACKEND, VALID_BACKENDS, Machine,
                          MachineError, resolve_backend, run_module)
from repro.interp.codegen import ModeSpec, generate_source
from repro.lang import compile_source
from repro.workloads import SUITE, get_workload

from conftest import SMALL_PROGRAM, trace_module


def run_signature(module, backend, profile=False, trace=False,
                  listener=False, args=(), max_instructions=500_000_000):
    """Everything observable about one run, as one comparable value."""
    events = []

    def on_path(func_name, path):
        events.append((func_name, path))

    machine = Machine(
        module, collect_edge_profile=profile, trace_paths=trace,
        path_listener=(on_path if listener else None),
        max_instructions=max_instructions, backend=backend)
    result = machine.run(args=args)
    return {
        "return_value": result.return_value,
        "instructions": result.instructions_executed,
        "base_cost": result.costs.base,
        "instrumentation_cost": result.costs.instrumentation,
        "edge_counts": result.edge_counts,
        "path_counts": result.path_counts,
        "invocations": dict(result.invocations),
        "events": events,
    }


# ----------------------------------------------------------------------
# The tentpole contract: whole-suite differential equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", SUITE, ids=lambda w: w.name)
def test_differential_across_suite(workload):
    module = workload.compile()
    for profile, trace in ((False, False), (True, True)):
        tup = run_signature(module, "tuple", profile, trace)
        comp = run_signature(module, "compiled", profile, trace)
        assert comp == tup, (workload.name, profile, trace)


def test_differential_with_listener(small_module):
    tup = run_signature(small_module, "tuple", profile=True, trace=True,
                        listener=True)
    comp = run_signature(small_module, "compiled", profile=True, trace=True,
                         listener=True)
    assert comp == tup
    assert tup["events"], "listener should have observed paths"


def test_differential_instruction_limit(small_module):
    for backend in VALID_BACKENDS:
        with pytest.raises(MachineError, match="instruction limit"):
            run_signature(small_module, backend, max_instructions=100)


def test_deep_recursion_on_compiled_backend():
    m = compile_source("""
        func down(n) { if (n == 0) { return 0; }
            return down(n - 1) + 1; }
        func main() { return down(5000); }""")
    assert run_module(m, backend="compiled").return_value == 5000


def test_unknown_function_on_compiled_backend(small_module):
    with pytest.raises(MachineError):
        Machine(small_module, backend="compiled").run("ghost")


def test_wrong_arity_on_compiled_backend():
    m = compile_source("func f(a) { return a; } "
                       "func main() { return f(1); }")
    with pytest.raises(MachineError):
        Machine(m, backend="compiled").run("f", (1, 2))


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend() == DEFAULT_BACKEND == "compiled"

    def test_env_switch(self, small_module, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "tuple")
        assert Machine(small_module).backend == "tuple"

    def test_explicit_beats_env(self, small_module, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "tuple")
        assert Machine(small_module, backend="compiled").backend == "compiled"

    def test_invalid_backend_rejected(self, small_module, monkeypatch):
        with pytest.raises(MachineError, match="unknown backend"):
            Machine(small_module, backend="bytecode")
        monkeypatch.setenv("REPRO_BACKEND", "jit")
        with pytest.raises(MachineError, match="unknown backend"):
            Machine(small_module)


# ----------------------------------------------------------------------
# Edge-hook cost accounting (satellite): hooks share the machine's
# CostCounter, so overhead must be backend-independent -- including
# hooks firing on back edges while the path tracer is active.
# ----------------------------------------------------------------------

def _instrumented_run(module, backend, trace):
    machine = Machine(module, trace_paths=trace, backend=backend)
    fired = []
    for name, cf in machine.compiled.items():
        for key, uid in cf.edge_uid.items():
            if not cf.is_back[key]:
                continue

            def hook(frame, _name=name, _key=key,
                     _costs=machine.costs, _fired=fired):
                _costs.instrumentation += 3.0
                _fired.append((_name, _key))

            machine.set_edge_hook(name, uid, hook)
    result = machine.run()
    return result, fired


@pytest.mark.parametrize("trace", (False, True),
                         ids=("plain", "while-tracing"))
def test_back_edge_hook_costs_match(small_module, trace):
    res_t, fired_t = _instrumented_run(small_module, "tuple", trace)
    res_c, fired_c = _instrumented_run(small_module, "compiled", trace)
    assert fired_t, "test program must exercise back edges"
    assert fired_c == fired_t
    assert res_c.costs.instrumentation == res_t.costs.instrumentation
    assert res_c.costs.base == res_t.costs.base
    assert res_c.costs.overhead == res_t.costs.overhead
    if trace:
        assert res_c.path_counts == res_t.path_counts


def test_plan_overhead_identical_across_backends(small_module):
    _actual, profile, _res = trace_module(small_module)
    plan = plan_ppp(small_module, profile)
    runs = {b: run_with_plan(plan, backend=b) for b in VALID_BACKENDS}
    tup, comp = runs["tuple"], runs["compiled"]
    assert comp.run.return_value == tup.run.return_value
    assert comp.run.costs.base == tup.run.costs.base
    assert comp.run.costs.instrumentation == tup.run.costs.instrumentation
    assert comp.overhead == tup.overhead
    assert comp.overhead > 0, "PPP on this program must instrument"


def test_hooks_attached_after_a_run_still_fire(small_module):
    machine = Machine(small_module, backend="compiled")
    machine.run()  # generates unhooked code
    fired = []
    name = "helper"
    cf = machine.compiled[name]
    uid = next(iter(cf.uid_edge))
    machine.set_edge_hook(name, uid, lambda frame: fired.append(uid))
    machine.run()
    assert fired, "hook attached between runs must invalidate old code"


# ----------------------------------------------------------------------
# Plan independence: hooked code is generated once per (function,
# channels) and hook mutations only write slots
# ----------------------------------------------------------------------

@pytest.fixture()
def codegen_misses(monkeypatch):
    """Every ``_compiled_code`` miss as a (function, spec) pair."""
    misses = []
    real = compiled.generate_source

    def recording(func, module, spec):
        misses.append((func, spec))
        return real(func, module, spec)

    monkeypatch.setattr(compiled, "generate_source", recording)
    return misses


def test_hooked_code_shared_across_plans(codegen_misses):
    from repro.opt.pipeline import expand_module

    module = expand_module(compile_source(SMALL_PROGRAM,
                                          name="plans")).module
    _actual, profile, _res = trace_module(module)
    plans = (plan_pp(module), plan_tpp(module, profile),
             plan_ppp(module, profile))
    values = {run_with_plan(plan, backend="compiled").run.return_value
              for plan in plans}
    assert len(values) == 1
    hooked = Counter(func for func, spec in codegen_misses if spec.hooks)
    assert hooked, "the plans must instrument something"
    assert max(hooked.values()) == 1


def test_hook_mutations_need_no_codegen(small_module, codegen_misses):
    machine = Machine(small_module, backend="compiled")
    cf = machine.compiled["helper"]
    first, second = list(cf.uid_edge)[:2]
    fired = []
    machine.set_edge_hook("helper", first, lambda f: fired.append(1))
    machine.run()
    assert fired
    generated = len(codegen_misses)

    fired.clear()
    machine.set_edge_hook("helper", first, lambda f: fired.append(2))
    machine.set_edge_hook("helper", second, lambda f: fired.append(3))
    machine.run()
    assert set(fired) == {2, 3}

    fired.clear()
    machine.set_edge_hook("helper", second, lambda f: fired.append(4))
    machine.run()
    assert set(fired) == {2, 4}
    assert len(codegen_misses) == generated


# ----------------------------------------------------------------------
# Machine fixes (satellites): per-instance _last_return, O(1) hook attach
# ----------------------------------------------------------------------

def test_last_return_is_per_instance(small_module):
    assert "_last_return" not in Machine.__dict__
    m1 = Machine(small_module, backend="tuple")
    m2 = Machine(small_module, backend="tuple")
    m1.run()
    assert m1._last_return != 0
    assert m2._last_return == 0


def test_uid_edge_reverse_index(small_module):
    machine = Machine(small_module)
    for cf in machine.compiled.values():
        assert cf.uid_edge == {uid: key for key, uid in cf.edge_uid.items()}


def test_set_edge_hook_unknown_uid(small_module):
    machine = Machine(small_module)
    with pytest.raises(MachineError, match="no edge with uid"):
        machine.set_edge_hook("helper", 10**9, lambda frame: None)


# ----------------------------------------------------------------------
# Mode specialization: observation code exists only when enabled
# ----------------------------------------------------------------------

class TestModeFusion:
    @pytest.fixture()
    def helper(self, small_module):
        return small_module.functions["helper"], small_module

    def test_plain_mode_carries_no_observation_code(self, helper):
        func, module = helper
        src = generate_source(func, module, ModeSpec()).source
        assert "_ec[" not in src
        assert "_tr(" not in src
        assert "path_id" not in src
        assert "_hk[" not in src

    def test_profile_mode_counts_only_probes(self, helper):
        func, module = helper
        result = generate_source(func, module, ModeSpec(profile=True))
        probes = static_placement(func).probe_keys
        assert 0 < len(probes) < len(result.edge_keys)
        counted = {result.edge_keys[int(i)] for i in
                   re.findall(r"_ec\[(\d+)\] \+= 1", result.source)}
        assert counted == probes
        assert "_tr(" not in result.source

    def test_trace_mode_tracks_paths(self, helper):
        func, module = helper
        src = generate_source(func, module, ModeSpec(trace=True)).source
        assert "_tr(_t)" in src
        assert "_t = frame.path_id" in src
        # One integer per path: no block lists, path dicts or listener.
        assert "path_blocks" not in src
        assert "_pc" not in src
        assert "_pl" not in src

    def test_listener_rides_on_the_trace_code(self, small_module,
                                              monkeypatch):
        # The compiled backend feeds a listener after the run, so a
        # listened machine asks for no code of its own: it runs the
        # traced code.
        specs = []
        real = compiled._compiled_code
        monkeypatch.setattr(
            compiled, "_compiled_code",
            lambda func, module, spec: (specs.append(spec)
                                        or real(func, module, spec)))
        heard = []
        Machine(small_module, backend="compiled",
                path_listener=lambda f, b: heard.append(f)).run()
        assert heard
        assert set(specs) == {ModeSpec(trace=True)}

    def test_hooks_fused_per_edge(self, helper):
        func, module = helper
        result = generate_source(func, module, ModeSpec(hooks=True))
        for slot in range(len(result.edge_keys)):
            assert (f"if _hk[{slot}] is not None: _hk[{slot}](frame)"
                    in result.source)


def test_finished_compiled_machine_is_freed_without_the_cycle_collector():
    # A recording's machine holds segment tables, probe counters and the
    # path log: it must go when its last reference does, not whenever
    # the cyclic collector next runs.
    module = get_workload("mcf").compile()
    gc.collect()
    gc.disable()
    try:
        machine = Machine(module, collect_edge_profile=True,
                          trace_paths=True, backend="compiled")
        machine.run()
        assert machine._backend_impl is not None
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()
