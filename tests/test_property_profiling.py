"""Property-based tests over randomly generated programs.

The central invariants of the whole reproduction, checked on arbitrary
structured programs:

1. **PP exactness** -- Ball-Larus counters reproduce the ground-truth path
   trace exactly (array-counted routines).
2. **Transparency** -- no instrumentation (PP/TPP/PPP, any config)
   changes program behaviour.
3. **Flow bounds** -- for every executed path, definite flow <= actual
   frequency <= potential flow.
4. **Numbering bijectivity** -- path numbers are unique and dense.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (measured_paths, plan_pp, plan_ppp, plan_tpp,
                        ppp_config_without, run_with_plan)
from repro.interp import Machine, MachineError
from repro.profiles import (EdgeProfile, PathProfile, definite_flow_sets,
                            potential_flow_sets, reconstruct_hot_paths)
from repro.workloads import random_module

_LIMIT = 400_000

_PROP_SETTINGS = dict(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _trace_or_skip(seed: int):
    """Generate, compile, and trace a random program; skip huge ones."""
    try:
        module = random_module(seed)
    except Exception as exc:  # pragma: no cover - generator bug guard
        pytest.fail(f"generator produced invalid program for {seed}: {exc}")
    machine = Machine(module, collect_edge_profile=True, trace_paths=True,
                      max_instructions=_LIMIT)
    try:
        result = machine.run()
    except MachineError:
        return None
    actual = PathProfile.from_trace(module, result.path_counts)
    profile = EdgeProfile.from_run(module, result.edge_counts,
                                   result.invocations)
    return module, actual, profile, result


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_pp_counters_match_ground_truth(seed):
    env = _trace_or_skip(seed)
    if env is None:
        return
    module, actual, _profile, result = env
    plan = plan_pp(module)
    run = run_with_plan(plan, max_instructions=_LIMIT)
    assert run.run.return_value == result.return_value
    for name, fplan in plan.functions.items():
        if fplan.use_hash:
            continue
        assert measured_paths(run, name) == actual[name].counts, name


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_instrumentation_is_transparent(seed):
    env = _trace_or_skip(seed)
    if env is None:
        return
    module, _actual, profile, result = env
    for plan in (plan_tpp(module, profile), plan_ppp(module, profile),
                 plan_ppp(module, profile, ppp_config_without("FP")),
                 plan_ppp(module, profile, ppp_config_without("Push"))):
        run = run_with_plan(plan, max_instructions=_LIMIT)
        assert run.run.return_value == result.return_value


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_definite_le_actual_le_potential(seed):
    env = _trace_or_skip(seed)
    if env is None:
        return
    module, actual, profile, _result = env
    for name, func in module.functions.items():
        fprofile = profile[name]
        if not fprofile.executed():
            continue
        truth = actual[name].counts
        d_sets = definite_flow_sets(func, fprofile)
        p_sets = potential_flow_sets(func, fprofile)
        # cutoff is strict (flow > cutoff), and zero-branch paths have
        # branch-flow 0, so enumerate exhaustively with cutoff -1.
        definite = {p.blocks: p.freq
                    for p in reconstruct_hot_paths(d_sets, -1.0,
                                                   max_paths=100_000)}
        potential = {p.blocks: p.freq
                     for p in reconstruct_hot_paths(p_sets, -1.0,
                                                    max_paths=100_000)}
        for blocks, freq in truth.items():
            assert definite.get(blocks, 0) <= freq, (name, blocks)
            # Every executed path must appear in the potential profile
            # with at least its actual frequency.
            assert potential.get(blocks, 0) >= freq, (name, blocks)
        # Total definite flow never exceeds total actual flow.
        assert d_sets.total_flow() <= actual[name].total_flow("branch") + 1e-9


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_path_numbering_dense_and_unique(seed):
    env = _trace_or_skip(seed)
    if env is None:
        return
    module, _actual, _profile, _result = env
    from repro.cfg import build_profiling_dag
    from repro.core import number_paths
    for func in module.functions.values():
        dag = build_profiling_dag(func.cfg)
        numbering = number_paths(dag)
        if numbering.total > 4000:
            continue  # skip pathological path blowups
        seen = set()
        for n in range(numbering.total):
            path = numbering.decode(n)
            assert path is not None
            assert numbering.number_of(path) == n
            key = tuple(e.uid for e in path)
            assert key not in seen
            seen.add(key)
