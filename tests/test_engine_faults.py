"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.engine import faults
from repro.engine.faults import (CodegenFault, DegradationEvent, FaultPlan,
                                 FaultSpecError)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends with no active plan or env spec."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_plan()
    faults.drain_degradations()
    yield
    faults.clear_plan()
    faults.drain_degradations()


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

def test_spec_round_trip_all_faults():
    spec = ("seed=7,kill-job=1x2,stall-job=2:6.0,"
            "corrupt-write=trace:3,codegen-fail=main")
    plan = FaultPlan.from_spec(spec)
    assert plan == FaultPlan(seed=7, kill_job=1, kill_job_count=2,
                             stall_job=2, stall_seconds=6.0,
                             corrupt_kind="trace", corrupt_nth=3,
                             codegen_fail="main")
    assert FaultPlan.from_spec(plan.to_spec()) == plan


def test_spec_defaults():
    plan = FaultPlan.from_spec("kill-job=0,corrupt-write=plan")
    assert plan.kill_job_count == 1 and plan.corrupt_nth == 0
    assert plan.seed == 0
    assert FaultPlan.from_spec("") == FaultPlan()


@pytest.mark.parametrize("bad", [
    "kill-job",             # not key=value
    "unknown-fault=1",      # unknown key
    "kill-job=abc",         # non-integer ordinal
    "stall-job=1:xx",       # non-float seconds
    "seed=1.5",             # non-integer seed
])
def test_spec_errors(bad):
    with pytest.raises(FaultSpecError):
        FaultPlan.from_spec(bad)


def test_codegen_fail_rejects_tier_suffix():
    # There is one codegen tier; "main@2" is not a function name that
    # could ever fire, so the spec is refused instead of going inert.
    with pytest.raises(FaultSpecError, match="'main@2'"):
        FaultPlan.from_spec("codegen-fail=main@2")


# ----------------------------------------------------------------------
# Activation: programmatic and environment
# ----------------------------------------------------------------------

def test_install_and_clear_plan(monkeypatch):
    plan = FaultPlan(seed=3, codegen_fail="f")
    faults.install_plan(plan)
    assert faults.current_plan() == plan
    import os
    assert os.environ[faults.ENV_VAR] == plan.to_spec()
    faults.clear_plan()
    assert faults.current_plan() is None
    assert faults.ENV_VAR not in os.environ


def test_env_var_activates_plan(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "seed=9,codegen-fail=g")
    plan = faults.current_plan()
    assert plan is not None and plan.seed == 9
    assert plan.codegen_fail == "g"


# ----------------------------------------------------------------------
# Trigger points
# ----------------------------------------------------------------------

def test_corrupt_write_is_deterministic_and_targeted():
    payload = bytes(range(256)) * 4
    faults.install_plan(FaultPlan(seed=11, corrupt_kind="trace",
                                  corrupt_nth=1))
    first = faults.corrupt_cache_payload("trace", payload)
    second = faults.corrupt_cache_payload("trace", payload)
    third = faults.corrupt_cache_payload("trace", payload)
    assert first == payload          # ordinal 0: untouched
    assert second != payload         # ordinal 1: scrambled
    assert third == payload          # ordinal 2: untouched
    assert len(second) == len(payload)
    # Other kinds never count or corrupt.
    assert faults.corrupt_cache_payload("plan", payload) == payload

    # The same plan over a fresh process state scrambles identically.
    faults.clear_plan()
    faults.install_plan(FaultPlan(seed=11, corrupt_kind="trace",
                                  corrupt_nth=1))
    faults.corrupt_cache_payload("trace", payload)
    assert faults.corrupt_cache_payload("trace", payload) == second


def test_maybe_fail_codegen_targets_one_function():
    faults.install_plan(FaultPlan(codegen_fail="hot"))
    faults.maybe_fail_codegen("cold")  # no raise
    with pytest.raises(CodegenFault):
        faults.maybe_fail_codegen("hot")


def test_delay_task_sleeps_only_first_attempt(monkeypatch):
    slept = []
    monkeypatch.setattr(faults.time, "sleep", slept.append)
    faults.install_plan(FaultPlan(stall_job=2, stall_seconds=1.5))
    faults.on_job_start(1, 0)    # wrong ordinal: no sleep
    faults.on_job_start(2, 1)    # retry attempt: no sleep
    faults.on_job_start(2, 0)    # the injected stall
    assert slept == [1.5]


def test_kill_task_exits_only_for_budgeted_attempts(monkeypatch):
    exited = []
    monkeypatch.setattr(faults.os, "_exit", exited.append)
    faults.install_plan(FaultPlan(kill_job=0, kill_job_count=2))
    faults.on_job_start(0, 0)
    faults.on_job_start(0, 1)
    faults.on_job_start(0, 2)    # budget spent: survives
    faults.on_job_start(1, 0)    # other jobs never die
    assert exited == [faults.KILL_STATUS, faults.KILL_STATUS]


# ----------------------------------------------------------------------
# The degradation log
# ----------------------------------------------------------------------

def test_degradation_log_drains_once():
    event = DegradationEvent("codegen-fallback", "main", "why")
    faults.record_degradation(event)
    assert faults.drain_degradations() == [event]
    assert faults.drain_degradations() == []
    assert event.to_dict() == {"kind": "codegen-fallback",
                               "subject": "main", "detail": "why"}
