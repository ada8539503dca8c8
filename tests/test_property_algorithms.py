"""Property-based tests of the core algorithms on random graphs.

Complements test_property_profiling (whole-pipeline invariants on random
*programs*) with invariants checked on random *DAGs*: numbering
bijectivity under both orderings, event-counting sum preservation under
arbitrary weights, and placement producing runnable single-op edges.
Plus: scalar cleanup preserves behaviour, and serialization round-trips.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfg import ControlFlowGraph, ProfilingDag
from repro.core import event_count, number_paths, place_instrumentation
from repro.interp import Machine, MachineError, run_module
from repro.opt import cleanup_module
from repro.profiles import (EdgeProfile, PathProfile,
                            edge_profile_from_dict, edge_profile_to_dict)
from repro.workloads import random_module

_SETTINGS = dict(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Random layered DAGs
# ----------------------------------------------------------------------

@st.composite
def layered_dags(draw):
    """A random single-entry/single-exit DAG built from layers."""
    import random as _random
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = _random.Random(seed)
    n_layers = rng.randint(2, 5)
    layers = [[f"L{i}B{j}" for j in range(rng.randint(1, 3))]
              for i in range(n_layers)]
    layers.insert(0, ["entry"])
    layers.append(["exit"])
    cfg = ControlFlowGraph(f"dag{seed}")
    for layer in layers:
        for name in layer:
            cfg.add_block(name)
    cfg.set_entry("entry")
    cfg.set_exit("exit")
    for i in range(len(layers) - 1):
        # Every block gets at least one successor in a later layer, and
        # every next-layer block at least one predecessor.
        for src in layers[i]:
            targets = rng.sample(layers[i + 1],
                                 rng.randint(1, len(layers[i + 1])))
            for dst in targets:
                cfg.add_edge(src, dst)
        for dst in layers[i + 1]:
            if not cfg.blocks[dst].pred_edges:
                cfg.add_edge(rng.choice(layers[i]), dst)
    return cfg, seed


def _all_paths(dag: ProfilingDag):
    out = []

    def walk(v, path):
        if v == dag.dag.exit:
            out.append(list(path))
            return
        for e in dag.dag.out_edges(v):
            path.append(e)
            walk(e.dst, path)
            path.pop()

    walk(dag.dag.entry, [])
    return out


@given(data=layered_dags())
@settings(**_SETTINGS)
def test_numbering_bijective_on_random_dags(data):
    cfg, seed = data
    dag = ProfilingDag(cfg)
    paths = _all_paths(dag)
    if len(paths) > 3000:
        return
    import random as _random
    rng = _random.Random(seed)
    freqs = {e.uid: float(rng.randint(0, 100)) for e in dag.dag.edges()}
    for order, kw in (("ballarus", {}), ("smart", {"edge_freq": freqs})):
        numbering = number_paths(dag, order=order, **kw)
        assert numbering.total == len(paths)
        numbers = sorted(numbering.number_of(p) for p in paths)
        assert numbers == list(range(len(paths)))
        for p in paths:
            decoded = numbering.decode(numbering.number_of(p))
            assert [e.uid for e in decoded] == [e.uid for e in p]


@given(data=layered_dags())
@settings(**_SETTINGS)
def test_event_counting_preserves_sums_random_weights(data):
    cfg, seed = data
    dag = ProfilingDag(cfg)
    paths = _all_paths(dag)
    if len(paths) > 3000:
        return
    import random as _random
    rng = _random.Random(seed * 7 + 1)
    live = {e.uid for e in dag.dag.edges()}
    numbering = number_paths(dag, live=live)
    weights = {uid: float(rng.randint(0, 1000)) for uid in live}
    increments = event_count(dag, live, numbering.val, weights)
    for p in paths:
        assert sum(increments[e.uid] for e in p) == numbering.number_of(p)


@given(data=layered_dags())
@settings(**_SETTINGS)
def test_placement_edges_carry_at_most_two_ops(data):
    cfg, _seed = data
    dag = ProfilingDag(cfg)
    live = {e.uid for e in dag.dag.edges()}
    numbering = number_paths(dag, live=live)
    if numbering.total == 0 or numbering.total > 3000:
        return
    weights = {uid: 1.0 for uid in live}
    increments = event_count(dag, live, numbering.val, weights)
    placement = place_instrumentation(dag, live, increments,
                                      numbering.total)
    for uid, ops in placement.edge_ops.items():
        assert 1 <= len(ops) <= 2


# ----------------------------------------------------------------------
# Cleanup & serialization on random programs
# ----------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_cleanup_preserves_behaviour(seed):
    module = random_module(seed)
    try:
        before = run_module(module, max_instructions=300_000)
    except MachineError:
        return
    cleaned, _stats = cleanup_module(module)
    after = run_module(cleaned, max_instructions=600_000)
    assert after.return_value == before.return_value
    assert after.instructions_executed <= before.instructions_executed


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_serialization_round_trips(seed):
    module = random_module(seed)
    machine = Machine(module, collect_edge_profile=True,
                      max_instructions=300_000)
    try:
        result = machine.run()
    except MachineError:
        return
    edge = EdgeProfile.from_run(module, result.edge_counts,
                                result.invocations)
    edge2 = edge_profile_from_dict(edge_profile_to_dict(edge), module)
    for name, fp in edge.functions.items():
        assert edge2[name].edge_freq == fp.edge_freq
        assert edge2[name].entry_count == fp.entry_count


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_transform_composition_preserves_profiling_exactness(seed):
    """Superblocks + if-conversion + cleanup composed on a random
    program: behaviour identical, and PP still counts the transformed
    module's paths exactly."""
    from repro.core import measured_paths, plan_pp, run_with_plan
    from repro.opt import (cleanup_module, form_superblocks,
                           if_convert_module)

    module = random_module(seed)
    try:
        base = run_module(module, max_instructions=300_000)
    except MachineError:
        return
    machine = Machine(module, collect_edge_profile=True, trace_paths=True,
                      max_instructions=600_000)
    result = machine.run()
    actual = PathProfile.from_trace(module, result.path_counts)
    profile = EdgeProfile.from_run(module, result.edge_counts,
                                   result.invocations)

    formed, _sb = form_superblocks(module, actual.hot_paths(0.00125)[:3])
    mid_profile = Machine(formed, collect_edge_profile=True,
                          max_instructions=600_000).run()
    formed_profile = EdgeProfile.from_run(formed, mid_profile.edge_counts,
                                          mid_profile.invocations)
    converted, _ic = if_convert_module(formed, formed_profile)
    final, _cl = cleanup_module(converted)

    final_truth = Machine(final, trace_paths=True,
                          max_instructions=900_000).run()
    assert final_truth.return_value == base.return_value
    final_actual = PathProfile.from_trace(final, final_truth.path_counts)

    plan = plan_pp(final)
    run = run_with_plan(plan, max_instructions=900_000)
    assert run.run.return_value == base.return_value
    for name, fplan in plan.functions.items():
        if fplan.use_hash:
            continue
        assert measured_paths(run, name) == final_actual[name].counts, name
