"""A plan replayed over its module's recording equals its executed run.

The session scores every plan with :func:`~repro.core.replay_plan`,
which reads counter stores and costs off ``session.record(module)``
instead of running the plan; :func:`~repro.core.run_with_plan` stays
the executing oracle.  These tests hold the two equal -- counter stores,
every :class:`~repro.interp.costs.CostCounter` field, overhead, accuracy
and coverage -- on both backends, over the cases that could tell them
apart:

* perfbench's draw (parser, perlbmk, gap, wupwise, applu, apsi);
* bzip2, whose ``sort_range`` back edge ``endwhile6 -> for0`` carries
  only ``r = 5``: the count was pushed onto the loop exits while the
  exit dummy stayed live, so splitting the fold by liveness miscounts;
* perlbmk and crafty, whose hashed stores depend on the order paths are
  first seen;
* PPP without free poisoning, which bills a poison check per count;
* the if-converted and sampled-profile requests.
"""

import pytest

from repro.core import (HashStore, plan_pp, plan_ppp, plan_tpp,
                        ppp_config_without, replay_plan, run_with_plan)
from repro.engine import ProfilingSession, ScoreRequest, stages
from repro.harness.ablation import (leave_one_out_requests,
                                    one_at_a_time_requests)
from repro.harness.sampling_study import sampling_requests
from repro.opt.ifconvert import if_convert_module
from repro.workloads import get_workload

CASES = ("parser", "perlbmk", "gap", "wupwise", "applu", "apsi", "bzip2",
         "crafty")


@pytest.fixture(scope="module")
def perlbmk_plans():
    session = ProfilingSession()
    module = session.expand(get_workload("perlbmk")).module
    _actual, profile, _rv = session.trace(module)
    return [plan_pp(module), plan_tpp(module, profile),
            plan_ppp(module, profile),
            plan_ppp(module, profile, ppp_config_without("FP"))]


def _counters(run):
    return {
        "stores": {name: vars(store) for name, store in run.stores.items()},
        "costs": vars(run.run.costs),
        "overhead": run.overhead,
        "return_value": run.run.return_value,
        "instructions": run.run.instructions_executed,
        "invocations": run.run.invocations,
    }


def test_plans_cover_hashing_and_checked_poisoning(perlbmk_plans):
    pp, tpp, _ppp, no_fp = perlbmk_plans
    for plan in (pp, tpp):
        assert plan.functions["compile_pattern"].use_hash
    assert any(f.instrumented and f.poison_style == "check"
               for f in no_fp.functions.values())


@pytest.mark.parametrize("profilers", [(), ("values", "tripcounts")])
@pytest.mark.parametrize("backend", ["compiled", "tuple"])
def test_replay_equals_lone_runs(perlbmk_plans, backend, profilers):
    session = ProfilingSession(backend=backend)
    recording = session.record(perlbmk_plans[0].module)
    replays = [replay_plan(plan, recording, profilers)
               for plan in perlbmk_plans]
    for plan, replayed in zip(perlbmk_plans, replays):
        lone = run_with_plan(plan, backend=backend, profilers=profilers)
        assert _counters(replayed) == _counters(lone), plan.technique
    hashed = replays[0].stores["compile_pattern"]
    assert isinstance(hashed, HashStore)
    assert sum(key is not None for key in hashed.keys) > 1


# ----------------------------------------------------------------------
# Every request the harness scores
# ----------------------------------------------------------------------

def _scores(result):
    """What a study reads of a technique's result, plus the counters."""
    return {"accuracy": result.accuracy, "coverage": result.coverage,
            **_counters(result.run)}


def _requests(session, result):
    """What a cold ``harness all`` scores on the workload's expanded
    module (and on its if-converted variant)."""
    expanded, profile = result.expanded, result.edge_profile
    converted, _stats = if_convert_module(expanded, profile)
    _actual, converted_profile, _rv = session.trace(converted)
    return [
        *(ScoreRequest(name, expanded, None if name == "pp" else profile,
                       score_profile=profile)
          for name in ("pp", "tpp", "ppp")),
        *leave_one_out_requests(result), *one_at_a_time_requests(result),
        *sampling_requests(result),
        ScoreRequest("ppp", converted, converted_profile),
    ]


@pytest.mark.parametrize("backend", ["compiled", "tuple"])
def test_study_requests_scored_in_the_suite_run_equal_lone_scores(
        backend, monkeypatch):
    import repro.profilers
    from repro.profilers import drive

    session = ProfilingSession(backend=backend)
    for name in CASES:
        result = session.run_workload(get_workload(name))
        requests = _requests(session, result)

        # Scoring executes nothing: every run comes from a recording.
        def no_run(*_args, **_kwargs):
            raise AssertionError(f"{name}: a scored plan executed")

        for home in (drive, repro.profilers):
            monkeypatch.setattr(home, "execute_profilers", no_run)
        scored = session.plan_and_score(requests)
        monkeypatch.undo()

        lone_runs = {}  # labels whose plans coincide share a plan object
        for request, tech in zip(requests, scored):
            assert tech.name == request.name
            recording = session.record(request.module)
            lone = lone_runs.get(id(tech.plan))
            if lone is None:
                lone = lone_runs[id(tech.plan)] = run_with_plan(
                    tech.plan, backend=backend)
            # The instrumented run behaves like the plain one.
            assert lone.run.return_value == recording.return_value, \
                (name, request.name)
            expected = stages.score_technique(
                request.name, tech.plan, lone, recording.paths,
                request.scoring)
            assert _scores(tech) == _scores(expected), (name, request.name)


def test_disagreeing_back_edge_folds_are_rejected():
    # A path key names the header it restarts at, not the back edge
    # taken, so back edges into one header must share their init part.
    from repro.core import ReplayError, record_module
    from repro.core.ops import SetReg
    from repro.lang import compile_source

    module = compile_source("""func main() {
      i = 0; s = 0;
      while (i < 10) {
        i = i + 1;
        if (i < 5) { continue; }
        s = s + i;
      }
      return s;
    }""")
    plan = plan_pp(module)
    fplan = plan.functions["main"]
    first, second = fplan.dag.back_edges
    assert first.dst == second.dst
    recording = record_module(module)
    assert replay_plan(plan, recording, ()).stores["main"].cold == 0
    fplan.placement.edge_ops[second.uid] = [SetReg(1)]
    with pytest.raises(ReplayError, match="disagree on the init part"):
        replay_plan(plan, recording, ())
