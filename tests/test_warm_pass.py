"""A warm ``harness all`` prints its cached tables and nothing more.

Every table of a warm pass is cached, so the pass needs the cache layer
and the workload sources (for the suite key), not the pipeline: it
imports no compiler, interpreter, planner or profiler module and loads
no ``workload`` result.  Whether a cold pass's execution report was
clean is cached beside the tables, so a warm pass over a degraded cold
run still prints the report the cold run printed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PIPELINE = ("lang", "ir", "cfg", "opt", "interp", "core", "profiles",
            "profilers", "analysis")
BENCHMARKS = "applu,swim"


# Runs ``python -m MODULE ARGS...`` and, at exit, writes the names of
# every module it imported as the last line of stderr.
_RUN_MODULE = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
runpy.run_module(sys.argv.pop(1), run_name="__main__")
"""


def _run(*argv: str, cwd: Path) -> tuple[str, list[str]]:
    """Stdout and the ``repro`` pipeline modules imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run([sys.executable, "-c", _RUN_MODULE, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stderr.splitlines()[-1].split()
    assert "repro.engine.cache" in modules
    pipeline = sorted(m for m in modules if m.split(".")[:2] in
                      [["repro", layer] for layer in PIPELINE])
    return proc.stdout, pipeline


def _harness(cache: Path, *extra: str) -> tuple[str, list[str]]:
    return _run("repro.harness", "all", "--quiet", "--benchmarks",
                BENCHMARKS, "--cache-dir", str(cache), *extra,
                cwd=cache.parent)


@pytest.fixture
def cold_cache(tmp_path):
    cache = tmp_path / "cache"
    return cache, _harness(cache)[0]


def test_warm_pass_imports_and_loads_only_the_cache(cold_cache):
    cache, cold = cold_cache
    # A pass that read a workload entry would quarantine it and print
    # an execution report.
    entries = sorted(cache.glob("workload-*.pkl"))
    assert entries
    for entry in entries:
        entry.write_bytes(b"not a cache entry")
    warm, pipeline = _harness(cache)
    assert warm == cold
    assert pipeline == []
    assert sorted(cache.glob("workload-*.pkl")) == entries
    assert all(e.read_bytes() == b"not a cache entry" for e in entries)
    assert not list(cache.glob("*.corrupt"))


def test_cache_commands_import_only_the_cache_layer(cold_cache):
    cache, _cold = cold_cache
    for action in ("info", "verify", "gc"):
        _out, pipeline = _run("repro", "cache", action, "--dir",
                              str(cache), cwd=cache.parent)
        assert pipeline == [], action


def test_warm_pass_prints_a_degraded_cold_runs_report(tmp_path):
    cache = tmp_path / "cache"
    cold_json, warm_json = tmp_path / "cold.json", tmp_path / "warm.json"
    cold, _pipeline = _harness(cache, "--chaos", "codegen-fail=main",
                               "--json", str(cold_json))
    assert "Execution report" in cold
    assert "codegen-fallback" in cold
    assert _harness(cache)[0] == cold
    assert _harness(cache, "--json", str(warm_json))[0] == cold
    assert json.loads(warm_json.read_text()) == \
        json.loads(cold_json.read_text())
