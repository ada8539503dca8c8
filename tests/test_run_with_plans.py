"""One execution for many plans: every plan's account equals its lone run.

``run_with_plans`` attaches each plan as its own account -- its own path
register, its own cost counter, fresh instances of the extra profilers --
so fusing plans into one execution must not change anything any plan
observes.  perlbmk's expanded module covers the cases that could leak
between accounts: pp and tpp count in a hash table (where the order of
first counts decides each path's slot), PPP without free poisoning
checks poisoned paths, and the trip-count profiler keeps live counters
in the frame's scratch state.
"""

import pytest

from repro.core import (HashStore, plan_pp, plan_ppp, plan_tpp,
                        ppp_config_without, run_with_plan, run_with_plans)
from repro.engine import ProfilingSession
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def perlbmk_plans():
    session = ProfilingSession()
    module = session.expand(get_workload("perlbmk")).module
    _actual, profile, _rv = session.trace(module)
    return [plan_pp(module), plan_tpp(module, profile),
            plan_ppp(module, profile),
            plan_ppp(module, profile, ppp_config_without("FP"))]


def _observed(run):
    result = run.run
    return {
        "stores": {name: vars(store) for name, store in run.stores.items()},
        "profiles": run.profiles,
        "costs": vars(result.costs),
        "return_value": result.return_value,
        "instructions": result.instructions_executed,
        "invocations": result.invocations,
        "edge_counts": result.edge_counts,
        "path_counts": result.path_counts,
    }


def test_plans_cover_hashing_and_checked_poisoning(perlbmk_plans):
    pp, tpp, _ppp, no_fp = perlbmk_plans
    for plan in (pp, tpp):
        assert plan.functions["compile_pattern"].use_hash
    assert any(f.instrumented and f.poison_style == "check"
               for f in no_fp.functions.values())


@pytest.mark.parametrize("profilers", [(), ("values", "tripcounts")])
@pytest.mark.parametrize("backend", ["compiled", "tuple"])
def test_fused_run_equals_lone_runs(perlbmk_plans, backend, profilers):
    fused = run_with_plans(perlbmk_plans, backend=backend,
                           profilers=profilers)
    assert [run.plan for run in fused] == perlbmk_plans
    assert len({id(run.run.costs) for run in fused}) == len(fused)
    for plan, run in zip(perlbmk_plans, fused):
        lone = run_with_plan(plan, backend=backend, profilers=profilers)
        assert _observed(run) == _observed(lone), plan.technique
    hashed = fused[0].stores["compile_pattern"]
    assert isinstance(hashed, HashStore)
    assert sum(key is not None for key in hashed.keys) > 1
    if profilers:
        assert any(fused[0].profiles["tripcounts"].values())
