"""End-to-end equivalence tests for the ProfilingSession engine layer.

The acceptance bar for the engine refactor: a cached session run and a
parallel session run must reproduce the cold serial ``run_workload``
results exactly (same dicts, same rendered tables), and a warm re-run
must perform no recompilation or re-interpretation -- proven via the
cache's per-kind counters.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (TECHNIQUES, ArtifactCache, ParallelRunner,
                          ProfilingSession, ScoreRequest, WorkloadTask)
from repro.harness import figure9, table2
from repro.harness.json_export import workload_result_to_dict
from repro.workloads import get_workload

# Three suite workloads with different categories / shapes.
NAMES = ("mcf", "crafty", "bzip2")

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def as_dict(result):
    # Canonical JSON form: uid-free, covers profiles, plans and scores.
    return json.loads(json.dumps(workload_result_to_dict(result)))


@pytest.fixture(scope="module")
def serial_baseline():
    """Cold serial runs through a fresh session."""
    session = ProfilingSession()
    return {name: session.run_workload(get_workload(name)) for name in NAMES}


def test_warm_session_matches_cold_serial(serial_baseline):
    session = ProfilingSession(cache=ArtifactCache())
    cold = {n: session.run_workload(get_workload(n)) for n in NAMES}
    stats = session.cache.stats
    cold_traffic = {kind: (stats.of(kind).hits, stats.of(kind).misses)
                    for kind in ("compile", "expand", "record", "plan",
                                 "execution", "technique")}

    warm = {n: session.run_workload(get_workload(n)) for n in NAMES}
    for name in NAMES:
        assert as_dict(cold[name]) == as_dict(serial_baseline[name]), name
        # Warm lookups return the identical cached artifact.
        assert warm[name] is cold[name], name

    # The warm pass was served entirely from the workload-level entries:
    # no compilation, expansion, tracing or planning happened again.
    assert stats.of("workload").hits == len(NAMES)
    assert stats.of("workload").misses == len(NAMES)
    for kind, traffic in cold_traffic.items():
        assert (stats.of(kind).hits, stats.of(kind).misses) == traffic, kind
    # Rendered reports agree byte-for-byte with the legacy path.
    assert table2(cold) == table2(serial_baseline)
    assert figure9(cold) == figure9(serial_baseline)


def test_parallel_runner_matches_cold_serial(serial_baseline):
    runner = ParallelRunner(jobs=2)
    results = runner.run([WorkloadTask(workload=get_workload(n))
                          for n in NAMES])
    assert [r.workload.name for r in results] == list(NAMES)  # input order
    for name, result in zip(NAMES, results):
        assert as_dict(result) == as_dict(serial_baseline[name]), name


def test_run_suite_parallel_matches_serial(serial_baseline):
    session = ProfilingSession(cache=ArtifactCache())
    results = session.run_suite([get_workload(n) for n in NAMES], jobs=2)
    assert list(results) == list(NAMES)
    for name in NAMES:
        assert as_dict(results[name]) == as_dict(serial_baseline[name]), name
    assert session.cache.stats.of("workload").misses == len(NAMES)


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_cache_suite_hands_study_results_to_the_studies(
        jobs, serial_baseline, monkeypatch):
    # With no cache at all, what each build (in a worker too) scored for
    # the studies reaches the parent's session, and the studies run
    # nothing again; the workload results carry none of it.
    import repro.profilers
    from repro.engine import StudyRequests
    from repro.harness.profiler_study import STUDY_PROFILERS
    from repro.harness.sampling_study import (sampling_requests,
                                              sampling_study)
    from repro.profilers import drive

    workloads = [get_workload(n) for n in NAMES[:2]]
    session = ProfilingSession(cache=ArtifactCache(memory=False))
    results = session.run_suite(
        workloads, jobs=jobs,
        studies=StudyRequests(scores=(sampling_requests,),
                              profilers=STUDY_PROFILERS))
    # Three sampled results per workload (the 1/1 plan is ppp's own, so
    # it scores ppp's run under its own label) and one profile
    # collection.
    assert sorted(kind for kind, _key in session.handoff) == \
        ["profiles"] * 2 + ["technique"] * 6

    def no_run(*_args, **_kwargs):
        raise AssertionError("a study's request executed again")

    for home in (drive, repro.profilers):
        monkeypatch.setattr(home, "execute_profilers", no_run)
    for workload in workloads:
        result = results[workload.name]
        assert result.handoff == {}
        assert as_dict(result) == as_dict(serial_baseline[workload.name])
        assert len(sampling_study(result, session=session)) == 3
        assert session.profile_module(result.expanded, STUDY_PROFILERS)
    assert not session.handoff


def test_disk_cache_warms_fresh_session(tmp_path, serial_baseline):
    name = NAMES[0]
    first = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path))
    first.run_workload(get_workload(name))

    second = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path))
    result = second.run_workload(get_workload(name))
    assert as_dict(result) == as_dict(serial_baseline[name])
    stats = second.cache.stats
    assert stats.of("workload").hits == 1
    assert stats.of("workload").disk_hits == 1
    assert stats.misses == 0  # nothing recomputed anywhere


def test_parallel_suite_rebuilds_corrupt_workload_entry(tmp_path,
                                                        serial_baseline):
    # A corrupt workload entry reads as one counted miss and is rebuilt;
    # it must not pass the warm/cold split and then vanish on lookup.
    workloads = [get_workload(n) for n in NAMES[:2]]
    first = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path))
    first.run_suite(workloads, jobs=2)
    victim = sorted(tmp_path.glob("workload-*.pkl"))[0]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))

    session = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path))
    results = session.run_suite(workloads, jobs=2)
    for workload in workloads:
        assert as_dict(results[workload.name]) \
            == as_dict(serial_baseline[workload.name]), workload.name
    stats = session.cache.stats.of("workload")
    assert stats.corrupt == 1
    assert (stats.hits, stats.misses) == (1, 1)
    report = session.last_run_report
    assert report.cache_quarantined == 1
    assert [d.kind for r in report.records.values()
            for d in r.degradations] == ["cache-quarantine"]


def test_uncached_session_still_correct(serial_baseline):
    session = ProfilingSession(cache=ArtifactCache(memory=False))
    name = NAMES[0]
    first = session.run_workload(get_workload(name))
    again = session.run_workload(get_workload(name))
    assert as_dict(first) == as_dict(serial_baseline[name])
    assert as_dict(again) == as_dict(serial_baseline[name])
    assert session.cache.stats.hits == 0


def test_variant_config_does_not_hit_base_entries(serial_baseline):
    from repro.core import ppp_config_without
    session = ProfilingSession(cache=ArtifactCache())
    base = session.run_workload(get_workload(NAMES[0]))
    recorded = session.cache.stats.of("record").misses
    [tech] = session.plan_and_score([ScoreRequest(
        "ppp", base.expanded, base.edge_profile, base.actual,
        config=ppp_config_without("LC"), label="ppp-LC",
        expected_return=base.return_value)])
    assert tech.plan is not None and tech.run is not None
    # The variant planned fresh (different config fingerprint) but reused
    # the module and profiles without re-tracing anything.
    assert session.cache.stats.of("technique").misses == \
        len(TECHNIQUES) + 1
    # Expansion recorded the baseline, inlined and expanded modules; the
    # variant recorded none.
    assert recorded == 3
    assert session.cache.stats.of("record").misses == recorded


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def run_cli(*argv, cwd):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"})


def test_cli_harness_jobs_and_cache_flags(tmp_path):
    cache_dir = tmp_path / "cache"
    warmup = run_cli("-m", "repro.harness", "table2", "--benchmarks", "mcf",
                     "--cache-dir", str(cache_dir), cwd=tmp_path)
    assert warmup.returncode == 0, warmup.stderr
    assert "Table 2" in warmup.stdout
    assert "[cache:" in warmup.stdout
    assert cache_dir.is_dir() and any(cache_dir.iterdir())

    warm = run_cli("-m", "repro.harness", "table2", "--benchmarks", "mcf",
                   "--jobs", "2", "--cache-dir", str(cache_dir),
                   cwd=tmp_path)
    assert warm.returncode == 0, warm.stderr
    assert "from disk" in warm.stdout

    def table_lines(text):
        return [ln for ln in text.splitlines()
                if not ln.startswith("[") and ln.strip()]
    assert table_lines(warmup.stdout) == table_lines(warm.stdout)

    nocache = run_cli("-m", "repro.harness", "table2", "--benchmarks", "mcf",
                      "--no-cache", cwd=tmp_path)
    assert nocache.returncode == 0, nocache.stderr
    assert table_lines(nocache.stdout) == table_lines(warmup.stdout)


def test_cli_harness_chaos_results_match_fault_free(tmp_path):
    # A seeded chaos run must exit 0, report its degradations, and
    # produce byte-identical benchmark metrics to the fault-free run.
    cache_dir = tmp_path / "cache"
    clean = run_cli("-m", "repro.harness", "table2", "--benchmarks", "mcf",
                    "--no-cache", "--json", str(tmp_path / "clean.json"),
                    cwd=tmp_path)
    assert clean.returncode == 0, clean.stderr

    chaos = run_cli("-m", "repro.harness", "table2", "--benchmarks", "mcf",
                    "--cache-dir", str(cache_dir),
                    "--chaos", "seed=7,codegen-fail=main,corrupt-write=workload:0",
                    "--json", str(tmp_path / "chaos.json"), cwd=tmp_path)
    assert chaos.returncode == 0, chaos.stderr
    assert "Execution report" in chaos.stdout
    assert "codegen-fallback" in chaos.stdout

    clean_doc = json.loads((tmp_path / "clean.json").read_text())
    chaos_doc = json.loads((tmp_path / "chaos.json").read_text())
    assert chaos_doc["benchmarks"] == clean_doc["benchmarks"]
    assert chaos_doc["execution"]["degradations"] > 0

    # The corrupt-write fault left a latent bad cache entry: a fresh
    # fault-free run over the same directory quarantines it, recomputes,
    # and still matches.
    after = run_cli("-m", "repro.harness", "table2", "--benchmarks", "mcf",
                    "--cache-dir", str(cache_dir),
                    "--json", str(tmp_path / "after.json"), cwd=tmp_path)
    assert after.returncode == 0, after.stderr
    after_doc = json.loads((tmp_path / "after.json").read_text())
    assert after_doc["benchmarks"] == clean_doc["benchmarks"]
    assert after_doc["execution"]["cache_quarantined"] >= 1

    verify = run_cli("-m", "repro", "cache", "verify", "--dir",
                     str(cache_dir), cwd=tmp_path)
    assert verify.returncode == 0, verify.stderr  # quarantine already done


def test_cli_cache_info_and_clear(tmp_path):
    cache_dir = tmp_path / "cache"
    seed = run_cli("-m", "repro.harness", "table1", "--benchmarks", "mcf",
                   "--cache-dir", str(cache_dir), cwd=tmp_path)
    assert seed.returncode == 0, seed.stderr

    info = run_cli("-m", "repro", "cache", "info", "--dir", str(cache_dir),
                   cwd=tmp_path)
    assert info.returncode == 0, info.stderr
    assert "workload" in info.stdout

    clear = run_cli("-m", "repro", "cache", "clear", "--dir", str(cache_dir),
                    cwd=tmp_path)
    assert clear.returncode == 0, clear.stderr
    assert not list(cache_dir.glob("*.pkl"))

    empty = run_cli("-m", "repro", "cache", "info", "--dir", str(cache_dir),
                    cwd=tmp_path)
    assert empty.returncode == 0
