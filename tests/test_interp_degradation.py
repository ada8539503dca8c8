"""Per-function codegen degradation in the compiled backend.

When generating code for one function fails, only that function falls
back to the reference tuple interpreter; everything else stays compiled,
and results (return value, instruction counts, edge/path profiles, cost
accounting) are bit-identical to a pure tuple run.
"""

import pytest

from repro.engine import faults
from repro.engine.faults import FaultPlan
from repro.interp import Machine
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_plan()
    faults.drain_degradations()
    yield
    faults.clear_plan()
    faults.drain_degradations()


def _run(module, backend):
    machine = Machine(module, collect_edge_profile=True, trace_paths=True,
                      backend=backend)
    return machine, machine.run()


def _assert_equal_runs(got, want):
    assert got.return_value == want.return_value
    assert got.instructions_executed == want.instructions_executed
    assert got.edge_counts == want.edge_counts
    assert got.path_counts == want.path_counts
    assert got.costs.base == want.costs.base


def test_degraded_entry_function_matches_tuple_backend():
    module = get_workload("mcf").compile(1)
    _machine, want = _run(module, "tuple")
    faults.install_plan(FaultPlan(codegen_fail=module.main))
    machine, got = _run(module, "compiled")
    _assert_equal_runs(got, want)
    assert [(d.kind, d.subject) for d in machine.degradations] == \
        [("codegen-fallback", module.main)]
    # The event also landed in the process-local log exactly once
    # (machines cache the failure; repeated runs do not re-record it).
    assert len(faults.drain_degradations()) == 1


def test_degraded_helper_keeps_the_rest_compiled():
    module = get_workload("crafty").compile(1)
    helper = next(n for n in module.functions if n != module.main)
    _machine, want = _run(module, "tuple")
    faults.install_plan(FaultPlan(codegen_fail=helper))
    machine, got = _run(module, "compiled")
    _assert_equal_runs(got, want)
    assert [(d.kind, d.subject) for d in machine.degradations] == \
        [("codegen-fallback", helper)]
    backend = machine._backend_impl
    assert helper not in backend.functions        # tuple-looped
    assert module.main in backend.functions       # still compiled


def test_real_codegen_defect_degrades_not_crashes(monkeypatch):
    # A genuine bug in source generation (not an injected fault) must
    # also degrade that one function gracefully.
    from repro.interp import compiled as compiled_mod

    module = get_workload("mcf").compile(1)
    _machine, want = _run(module, "tuple")
    real = compiled_mod.generate_source

    def broken_generate(func, mod, spec):
        if func.name == module.main:
            raise RuntimeError("synthetic codegen defect")
        return real(func, mod, spec)

    monkeypatch.setattr(compiled_mod, "generate_source", broken_generate)
    machine, got = _run(module, "compiled")
    _assert_equal_runs(got, want)
    assert [(d.kind, d.subject) for d in machine.degradations] == \
        [("codegen-fallback", module.main)]
    assert "synthetic codegen defect" in machine.degradations[0].detail


def test_no_fault_means_no_degradation():
    module = get_workload("mcf").compile(1)
    machine, _got = _run(module, "compiled")
    assert machine.degradations == []
    assert faults.drain_degradations() == []
