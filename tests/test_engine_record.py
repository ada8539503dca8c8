"""One recording per module, and no plan executes.

A session records each distinct module once (edge counting plus the
path listener), and every view -- the expansion's edge profiles, ground
truth, the path stream -- reads that recording.  Every plan a session
scores is replayed over its module's recording, so the only hooked runs
left are registry profilers' (the profiler study, ``--profilers``), one
per module.  The first tests count interpreter runs over a cold
``harness all``; the rest prove a recording observes exactly what each
single-purpose run observes.
"""

from collections import Counter

import pytest

from repro.core import record_module
from repro.engine.fingerprint import fingerprint_module
import repro.profilers
from repro.interp.machine import Machine
from repro.profilers import EdgeCountProfiler, execute_profilers
from repro.profilers import drive
from repro.profilers.builtin import PathPlanProfiler
from repro.workloads import SUITE, get_workload

DRAW = ("parser", "perlbmk", "gap", "wupwise", "applu", "apsi")


def _counted_harness(argv, monkeypatch, capsys):
    """Run ``harness`` in-process; its stdout, and one ``(module, hooked
    profiler names or None)`` entry per ``Machine.run``, in order."""
    from repro.harness.__main__ import main

    runs: list[tuple] = []
    profilers: list[tuple] = []
    real_execute = drive.execute_profilers
    real_run = Machine.run

    def execute_profilers(module, selected, *args, **kwargs):
        profilers.append(tuple(p.name for p in selected))
        assert not any(isinstance(p, PathPlanProfiler) for p in selected)
        try:
            return real_execute(module, selected, *args, **kwargs)
        finally:
            profilers.pop()

    def run(machine, *args, **kwargs):
        runs.append((fingerprint_module(machine.module),
                     profilers[-1] if profilers else None))
        return real_run(machine, *args, **kwargs)

    for home in (drive, repro.profilers):
        monkeypatch.setattr(home, "execute_profilers", execute_profilers)
    monkeypatch.setattr(Machine, "run", run)
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    return out, runs


def _expanded(names):
    from repro.engine import ProfilingSession

    session = ProfilingSession()
    return {fingerprint_module(session.expand(get_workload(name)).module)
            for name in names}


def test_cold_harness_runs_each_execution_once(tmp_path, monkeypatch,
                                               capsys):
    argv = ["all", "--quiet", "--jobs", "1", "--benchmarks", "applu,apsi"]
    cold_out, cold = _counted_harness(
        argv + ["--cache-dir", str(tmp_path / "cache")], monkeypatch, capsys)
    # Every plain run is a recording, and each distinct module is
    # recorded once.
    recorded = [module for module, hooked in cold if hooked is None]
    assert recorded and len(recorded) == len(set(recorded)), \
        Counter(recorded).most_common(3)
    # Each expanded module runs hooked once, for the profiler study's
    # plugins; no other module runs hooked.
    hooked = [(module, names) for module, names in cold if names]
    assert sorted(module for module, _ in hooked) == \
        sorted(_expanded(["applu", "apsi"]))
    assert {names for _, names in hooked} == {("values", "tripcounts")}

    # --no-cache keeps the memory layer: the same runs, in the same
    # order, and the same output.
    uncached_out, uncached = _counted_harness(
        argv + ["--no-cache"], monkeypatch, capsys)
    assert uncached == cold
    assert uncached_out == cold_out

    # A warm pass reads just the 16 tables and the record that the
    # suite's execution report was clean: no workload result.
    from repro.harness.__main__ import main

    assert main(["all", "--jobs", "1", "--benchmarks", "applu,apsi",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    warm = capsys.readouterr().out
    assert "[cache: 17 hits, 0 misses, 17 from disk]" in warm, warm


def test_cold_harness_scores_every_study_without_running_plans(
        monkeypatch, capsys):
    out, runs = _counted_harness(
        ["all", "--quiet", "--no-cache", "--benchmarks", "perlbmk"],
        monkeypatch, capsys)
    # perlbmk clears Figure 13's gate, so every study scores plans on
    # its expanded module -- yet it runs hooked once, for the profiler
    # study, and the if-converted module only ever runs plain.
    [expanded] = _expanded(["perlbmk"])
    assert [names for module, names in runs if module == expanded] == \
        [None, ("values", "tripcounts")]
    assert [names for _, names in runs if names] == [("values", "tripcounts")]
    for title in ("Figure 13.", "One-at-a-time"):
        table = out[out.index(title):].split("\n\n")[0]
        assert "\n  perlbmk " in table, table


def test_profilers_run_once_beside_replayed_plans(monkeypatch, capsys):
    # With --profilers, the plans' overheads bill the plugins' ops from
    # the recording, and the plugins themselves run once over the
    # expanded module: its only hooked run.
    import pickle

    from repro.engine import ProfilingSession
    from repro.harness.__main__ import main
    from repro.profilers import create_profilers

    _out, runs = _counted_harness(
        ["table2", "--quiet", "--benchmarks", "mcf", "--profilers",
         "values", "--no-cache"], monkeypatch, capsys)
    [expanded] = _expanded(["mcf"])
    assert [(module, names) for module, names in runs if names] == \
        [(expanded, ("values",))]

    session = ProfilingSession(profilers=("values",))
    result = session.run_workload(get_workload("mcf"))
    alone = execute_profilers(result.expanded, create_profilers(["values"]),
                              backend=session.backend).profiles
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

    edges = execute_profilers(module, [EdgeCountProfiler()],
                              backend=backend).profiles["edges"]
    for name, fp in recording.edges.functions.items():
        assert fp.edge_freq == edges.get(name, {}), name
        assert fp.entry_count == plain.invocations[name], name

    traced = Machine(module, trace_paths=True, backend=backend).run()
    assert traced.path_counts is not None
    for name, counts in traced.path_counts.items():
        recorded = recording.paths[name].counts
        assert recorded == counts, name
        assert list(recorded) == list(counts), name  # insertion order

    stream = record_module(module, backend).stream
    assert recording.stream.paths == stream.paths
    assert recording.stream.events == stream.events
    assert recording.stream.return_value == stream.return_value


@pytest.mark.parametrize("name", [w.name for w in SUITE])
def test_recording_matches_single_runs_compiled(name):
    _check_recording(get_workload(name).compile(), "compiled")


@pytest.mark.parametrize("name", DRAW)
def test_recording_matches_single_runs_tuple(name):
    _check_recording(get_workload(name).compile(), "tuple")
