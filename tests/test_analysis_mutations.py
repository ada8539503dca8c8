"""The seeded-corruption harness: every applicable mutation of a real
workload's plan must be flagged, and pristine plans must verify clean
(zero false positives) — the acceptance bar for the verifier."""

import pytest

from repro.analysis import MUTATIONS, mutate_plan, verify_module_plan
from repro.core import plan_ppp, plan_tpp
from repro.engine import ArtifactCache, ProfilingSession
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def vpr_plans():
    session = ProfilingSession(cache=ArtifactCache())
    module = session.expand(get_workload("vpr")).module
    _actual, profile, _rv = session.trace(module)
    return {
        "tpp": plan_tpp(module, profile),
        "ppp": plan_ppp(module, profile),
    }


@pytest.mark.parametrize("technique", ["tpp", "ppp"])
def test_pristine_plan_has_zero_false_positives(vpr_plans, technique):
    report = verify_module_plan(vpr_plans[technique])
    assert report.ok, report.format()
    assert not report.warnings(), report.format()


@pytest.mark.parametrize("technique", ["tpp", "ppp"])
def test_every_applicable_mutation_is_detected(vpr_plans, technique):
    plan = vpr_plans[technique]
    kinds = [kind for kind in MUTATIONS
             if mutate_plan(plan, kind) is not None]
    # The acceptance bar: at least ten distinct seeded corruptions.
    assert len(kinds) >= 10, kinds
    missed = []
    for kind in kinds:
        mutated = mutate_plan(plan, kind)
        assert mutated is not None, kind
        if verify_module_plan(mutated).ok:
            missed.append(kind)
    assert missed == [], f"undetected mutations: {missed}"


def test_mutating_leaves_the_original_untouched(vpr_plans):
    plan = vpr_plans["tpp"]
    before = verify_module_plan(plan)
    assert before.ok
    mutated = mutate_plan(plan, "drop-count")
    assert mutated is not None and mutated is not plan
    after = verify_module_plan(plan)
    assert after.ok  # deepcopy isolation: original still pristine


def test_inapplicable_mutation_returns_none():
    """A plan with nothing instrumented offers no mutation site."""
    from repro.core import DEFAULT_CONFIG
    from repro.core.pipeline import FunctionPlan, ModulePlan
    from repro.ir import IRBuilder, Module

    b = IRBuilder("main")
    b.block("A")
    b.ret()
    module = Module("empty")
    func = module.add_function(b.finish("A"))
    mplan = ModulePlan(module, "tpp", DEFAULT_CONFIG,
                       {"main": FunctionPlan(func, instrumented=False)})
    for kind in MUTATIONS:
        assert mutate_plan(mplan, kind) is None


def test_unknown_mutation_kind_raises(vpr_plans):
    with pytest.raises(ValueError):
        mutate_plan(vpr_plans["tpp"], "no-such-mutation")
