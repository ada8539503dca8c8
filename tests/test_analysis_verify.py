"""The static plan verifier: pristine plans of every technique verify
clean, the documented skip/overcount notes surface as INFO, structural
IR problems pass through as V000, and a suite subset proves end-to-end
wiring through the session."""

import pytest

from conftest import small_module, small_truth  # noqa: F401 (fixtures)

from repro.analysis import (PlanVerificationError, Severity,
                            verify_function_plan, verify_module_plan,
                            verify_suite)
from repro.core import DEFAULT_CONFIG, plan_pp, plan_ppp, plan_tpp
from repro.core.pipeline import FunctionPlan, ModulePlan
from repro.engine import ArtifactCache, ProfilingSession
from repro.ir import IRBuilder, Module
from repro.lang import compile_source
from repro.workloads import get_workload


def _assert_clean(report):
    assert report.ok, report.format()
    assert not report.warnings(), report.format()


# ----------------------------------------------------------------------
# Pristine plans verify clean (all three techniques)
# ----------------------------------------------------------------------

def test_pp_plan_verifies_clean(small_module):
    _assert_clean(verify_module_plan(plan_pp(small_module)))


def test_tpp_plan_verifies_clean(small_module, small_truth):
    _actual, profile, _rv = small_truth
    _assert_clean(verify_module_plan(plan_tpp(small_module, profile)))


def test_ppp_plan_verifies_clean(small_module, small_truth):
    _actual, profile, _rv = small_truth
    _assert_clean(verify_module_plan(plan_ppp(small_module, profile)))


def test_single_block_function_accepted():
    """entry == exit, zero CFG edges, one empty path: the runtime counts
    it through the invocation channel, so a plan with no ops is right."""
    module = compile_source("func main() { return 0; }", name="tiny")
    report = verify_module_plan(plan_pp(module))
    _assert_clean(report)


def test_uninstrumented_plan_reports_skip_note():
    b = IRBuilder("f")
    b.block("A")
    b.ret()
    fplan = FunctionPlan(b.finish("A"), instrumented=False,
                         reason="unexecuted")
    diags = verify_function_plan(fplan, DEFAULT_CONFIG, "tpp")
    assert [d.code for d in diags] == ["V001"]
    assert diags[0].severity is Severity.INFO
    assert "unexecuted" in diags[0].message


# ----------------------------------------------------------------------
# Structural validation passthrough (V000)
# ----------------------------------------------------------------------

def test_validate_problems_surface_as_v000():
    b = IRBuilder("notmain")
    b.block("A")
    b.ret()
    module = Module("broken")  # main() is missing entirely
    func = module.add_function(b.finish("A"))
    mplan = ModulePlan(module, "pp", DEFAULT_CONFIG,
                       {"notmain": FunctionPlan(func, instrumented=False)})
    report = verify_module_plan(mplan)
    assert not report.ok
    assert any(d.code == "V000" for d in report.errors())


# ----------------------------------------------------------------------
# Corrupted geometry is caught without path enumeration
# ----------------------------------------------------------------------

def test_wrong_num_hot_is_an_error(small_module):
    plan = plan_pp(small_module)
    victim = next(p for p in plan.functions.values()
                  if p.instrumented and p.placement is not None)
    victim.placement.num_hot += 1
    report = verify_module_plan(plan)
    assert not report.ok


# ----------------------------------------------------------------------
# End-to-end: the session wiring and a real-suite subset
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def memory_session():
    return ProfilingSession(cache=ArtifactCache())


def test_verify_suite_subset_all_techniques(memory_session):
    reports = verify_suite(memory_session,
                           workloads=[get_workload("bzip2")])
    assert len(reports) == 3
    assert {r.title for r in reports} \
        == {"bzip2/pp", "bzip2/tpp", "bzip2/ppp"}
    for report in reports:
        _assert_clean(report)


def test_session_verify_plans_accepts_good_plans(small_module,
                                                 small_truth):
    _actual, profile, _rv = small_truth
    session = ProfilingSession(cache=ArtifactCache(), verify_plans=True)
    plan = session.plan("tpp", small_module, profile)
    assert plan.technique == "tpp"


def test_session_verify_plans_rejects_bad_plan_via_env(monkeypatch,
                                                       small_module):
    """REPRO_VERIFY=1 turns verification on; a corrupted planner output
    must fail fast with the readable report attached."""
    monkeypatch.setenv("REPRO_VERIFY", "1")
    session = ProfilingSession(cache=ArtifactCache())
    assert session.verify_plans

    from repro.engine import stages
    real_stage = stages.plan_stage

    def corrupting(technique, module, edge_profile=None,
                   config=DEFAULT_CONFIG):
        plan = real_stage(technique, module, edge_profile, config)
        for fplan in plan.functions.values():
            if fplan.instrumented and fplan.placement is not None:
                fplan.placement.num_hot += 1
                break
        return plan

    monkeypatch.setattr(stages, "plan_stage", corrupting)
    with pytest.raises(PlanVerificationError) as exc:
        session.plan("pp", small_module)
    assert not exc.value.report.ok


def test_session_verify_plans_reuses_suite_verdicts(tmp_path, capsys):
    """`repro verify --suite` and the session's verify_plans check share
    one verdict entry per plan: the check re-verifies nothing."""
    from repro.__main__ import main as repro_main

    assert repro_main(["verify", "--suite", "--benchmarks", "mcf",
                       "--cache-dir", str(tmp_path), "--quiet"]) == 0
    capsys.readouterr()
    session = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path),
                               verify_plans=True)
    session.run_workload(get_workload("mcf"))
    stats = session.cache.stats.of("verifyreport")
    assert (stats.hits, stats.misses) == (3, 0)
    assert "verify" not in session.cache.stats.kinds
