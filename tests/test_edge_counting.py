"""The machine's one edge counter: cotree probes plus reconstruction.

Counting is unbilled and changes no behaviour, reconstruction works from
accumulated counts, and the generated code of every suite function
counts exactly its probe edges -- a deterministic gate on how many
counters profiled code carries.
"""

import re

import pytest

from conftest import hook_edge_counts

from repro.analysis.conservation import static_placement
from repro.interp import Machine
from repro.interp.codegen import ModeSpec, generate_source
from repro.workloads import SUITE, get_workload

BACKENDS = ("tuple", "compiled")

#: perfbench's fixed draw: three CINT and three CFP workloads.
DRAW = ("parser", "perlbmk", "gap", "wupwise", "applu", "apsi")


@pytest.fixture(scope="module")
def draw_modules():
    return {name: get_workload(name).compile(1) for name in DRAW}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", DRAW)
def test_edge_profiled_run_is_a_plain_run(draw_modules, name, backend):
    # opt.pipeline._edge_profiled_run bills its run as a plain run.
    module = draw_modules[name]
    plain = Machine(module, backend=backend).run()
    profiled = Machine(module, collect_edge_profile=True,
                       backend=backend).run()
    assert profiled.return_value == plain.return_value
    assert profiled.instructions_executed == plain.instructions_executed
    assert profiled.costs == plain.costs
    _result, dense = hook_edge_counts(module, backend=backend)
    assert profiled.edge_counts == dense


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_runs_count_twice(backend):
    module = get_workload("parser").compile(1)
    once = Machine(module, collect_edge_profile=True,
                   backend=backend).run().edge_counts
    machine = Machine(module, collect_edge_profile=True, backend=backend)
    machine.run()
    twice = machine.run().edge_counts
    assert any(once.values())
    assert twice == {fn: {uid: 2 * count for uid, count in counts.items()}
                     for fn, counts in once.items()}


def test_profiled_code_counts_exactly_the_probes(profiling_session):
    # Inlining may copy an edge's increment into several segments, so
    # the gate compares the distinct counter slots each function's
    # profile-mode code increments with its probe set.
    probes = edges = 0
    for workload in SUITE:
        module = profiling_session.expand(workload).module
        for func in module.functions.values():
            placement = static_placement(func)
            result = generate_source(func, module, ModeSpec(profile=True))
            slots = {int(i) for i in re.findall(r"_ec\[(\d+)\] \+= 1",
                                                result.source)}
            assert len(slots) == placement.num_probes, func.name
            assert {result.edge_keys[i] for i in slots} == \
                placement.probe_keys, func.name
            probes += placement.num_probes
            edges += placement.num_edges
    assert probes < edges
