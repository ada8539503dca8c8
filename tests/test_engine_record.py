"""One recording per module, one execution per instrumentation identity.

A session records each distinct module once (edge counting plus the
path listener), and every view -- the expansion's edge profiles, ground
truth, the path stream -- reads that recording.  Plan executions are
shared by every label whose plan coincides, and each study's new plans
of one module share one execution.  The first test counts interpreter
runs over a cold ``harness all``; the rest prove a recording observes
exactly what each single-purpose run observes.
"""

from collections import Counter

import pytest

from repro.core import record_module, record_path_stream
from repro.engine import stages
from repro.engine.fingerprint import (fingerprint_config,
                                      fingerprint_edge_profile,
                                      fingerprint_module)
import repro.profilers
from repro.interp.machine import Machine
from repro.profilers import EdgeCountProfiler, execute_profilers
from repro.profilers import drive
from repro.profilers.builtin import PathPlanProfiler
from repro.workloads import SUITE, get_workload

DRAW = ("parser", "perlbmk", "gap", "wupwise", "applu", "apsi")


def test_cold_harness_runs_each_execution_once(tmp_path, monkeypatch,
                                               capsys):
    from repro.harness.__main__ import main

    # A plan's identity is what it was planned from.
    identity: dict[int, tuple] = {}
    real_plan_stage = stages.plan_stage

    def plan_stage(technique, module, edge_profile=None, *args):
        plan = real_plan_stage(technique, module, edge_profile, *args)
        identity[id(plan)] = (technique, fingerprint_module(module),
                              fingerprint_edge_profile(edge_profile),
                              *map(fingerprint_config, args))
        return plan

    executions: list[tuple] = []
    depth = [0]
    real_execute = drive.execute_profilers

    def execute_profilers(module, accounts, *args, **kwargs):
        plans = [identity[id(p.plan)] for profilers in accounts
                 for p in profilers if isinstance(p, PathPlanProfiler)]
        executions.append((tuple(plans), fingerprint_module(module),
                           tuple(tuple(p.name for p in profilers)
                                 for profilers in accounts),
                           kwargs.get("backend")))
        depth[0] += 1
        try:
            return real_execute(module, accounts, *args, **kwargs)
        finally:
            depth[0] -= 1

    modules: list[str] = []
    hooked: list[str] = []
    real_run = Machine.run

    def run(machine, *args, **kwargs):
        (hooked if depth[0] else modules).append(
            fingerprint_module(machine.module))
        return real_run(machine, *args, **kwargs)

    monkeypatch.setattr(stages, "plan_stage", plan_stage)
    for home in (drive, repro.profilers):
        monkeypatch.setattr(home, "execute_profilers", execute_profilers)
    monkeypatch.setattr(Machine, "run", run)
    assert main(["all", "--quiet", "--jobs", "1",
                 "--benchmarks", "applu,apsi",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    capsys.readouterr()

    # Every run outside a plan or profiler execution is a recording,
    # and each distinct module is recorded once.
    assert modules and len(modules) == len(set(modules)), \
        Counter(modules).most_common(3)
    assert any(plans for plans, *_ in executions)
    repeated = [e for e, n in Counter(executions).items() if n > 1]
    assert not repeated, repeated
    # No plan identity executes twice, not even fused with others.
    twice = [p for p, n in Counter(
        plan for plans, *_ in executions for plan in plans).items() if n > 1]
    assert not twice, twice
    # Neither module clears Figure 13's gate, so each expanded module
    # runs hooked three times: pp, tpp and ppp in one execution, the
    # sampling study's two new plans in another, and the profiler
    # study's plugins in a third.
    assert sorted(Counter(hooked).values()) == [3, 3], Counter(hooked)


def test_profilers_ride_on_the_technique_executions(monkeypatch, capsys):
    # --profilers fuses the plugins into every pp/tpp/ppp account, and
    # the workload's profiles come from the first: the three plans of
    # mcf's expanded module share one run, with no extra run.
    import pickle

    from repro.engine import ProfilingSession
    from repro.harness.__main__ import main
    from repro.profilers import create_profilers

    mcf = get_workload("mcf")
    expanded = fingerprint_module(ProfilingSession().expand(mcf).module)
    hooked: list[str] = []
    depth = [0]
    real_execute = drive.execute_profilers
    real_run = Machine.run

    def execute_profilers(*args, **kwargs):
        depth[0] += 1
        try:
            return real_execute(*args, **kwargs)
        finally:
            depth[0] -= 1

    def run(machine, *args, **kwargs):
        if depth[0]:
            hooked.append(fingerprint_module(machine.module))
        return real_run(machine, *args, **kwargs)

    for home in (drive, repro.profilers):
        monkeypatch.setattr(home, "execute_profilers", execute_profilers)
    monkeypatch.setattr(Machine, "run", run)
    assert main(["table2", "--quiet", "--benchmarks", "mcf",
                 "--profilers", "values", "--no-cache"]) == 0
    capsys.readouterr()
    assert hooked.count(expanded) == 1
    monkeypatch.undo()

    session = ProfilingSession(profilers=("values",))
    result = session.run_workload(mcf)
    [alone_run] = execute_profilers(result.expanded,
                                    [create_profilers(["values"])],
                                    backend=session.backend)
    alone = alone_run.profiles
    assert pickle.dumps(result.profiles) == pickle.dumps(alone)


# ----------------------------------------------------------------------
# A recording equals each single-purpose run
# ----------------------------------------------------------------------

def _check_recording(module, backend):
    recording = record_module(module, backend=backend)

    plain = Machine(module, backend=backend).run()
    assert recording.return_value == plain.return_value
    assert recording.instructions_executed == plain.instructions_executed
    assert recording.base_cost == plain.costs.base
    assert plain.costs.instrumentation == 0

    [edges_run] = execute_profilers(module, [[EdgeCountProfiler()]],
                                    backend=backend)
    edges = edges_run.profiles["edges"]
    for name, fp in recording.edges.functions.items():
        assert fp.edge_freq == edges.get(name, {}), name
        assert fp.entry_count == plain.invocations[name], name

    traced = Machine(module, trace_paths=True, backend=backend).run()
    assert traced.path_counts is not None
    for name, counts in traced.path_counts.items():
        recorded = recording.paths[name].counts
        assert recorded == counts, name
        assert list(recorded) == list(counts), name  # insertion order

    stream = record_path_stream(module, backend=backend)
    assert recording.stream.paths == stream.paths
    assert recording.stream.events == stream.events
    assert recording.stream.return_value == stream.return_value


@pytest.mark.parametrize("name", [w.name for w in SUITE])
def test_recording_matches_single_runs_compiled(name):
    _check_recording(get_workload(name).compile(), "compiled")


@pytest.mark.parametrize("name", DRAW)
def test_recording_matches_single_runs_tuple(name):
    _check_recording(get_workload(name).compile(), "tuple")
