#!/usr/bin/env python
"""CI chaos gate: a seeded fault-injection run must change nothing.

Runs the harness twice over the same benchmark subset:

1. a fault-free baseline, and
2. a chaos run under a seeded :class:`repro.engine.faults.FaultPlan`
   that kills a worker, injects a codegen failure, and corrupts a cache
   entry on write,

then asserts:

* both runs exit 0;
* the ``benchmarks`` subtree of the two ``--json`` exports is
  byte-identical (fault tolerance may never change results);
* the chaos run's execution report shows the faults actually fired
  (nonzero retries or worker-crash failures, nonzero degradations);
* a follow-up fault-free ``--jobs`` run over the chaos run's cache
  directory quarantines the corrupt entry and still matches, and
  ``repro cache verify`` then reports a clean directory.

Usage::

    python scripts/chaos_check.py
    python scripts/chaos_check.py --benchmarks mcf,bzip2,crafty --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

CHAOS_SPEC = "seed=7,kill-task=1,codegen-fail=main,corrupt-write=workload:0"


def run(argv: list[str], **extra_env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra_env)
    env.pop("REPRO_FAULTS", None)  # only --chaos may inject faults
    print(f"$ {' '.join(argv)}", flush=True)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True)


def fail(message: str, proc: subprocess.CompletedProcess | None = None) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(proc.stdout[-4000:], file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default="mcf,bzip2,crafty")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--retries", type=int, default=2)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="chaos-check-") as tmp:
        tmp_path = Path(tmp)
        cache_dir = tmp_path / "cache"
        base_json = tmp_path / "baseline.json"
        chaos_json = tmp_path / "chaos.json"
        after_json = tmp_path / "after.json"

        common = ["-m", "repro.harness", "table2",
                  "--benchmarks", args.benchmarks, "--quiet"]

        baseline = run([*common, "--no-cache", "--json", str(base_json)])
        if baseline.returncode != 0:
            return fail("baseline run failed", baseline)

        chaos = run([*common, "--jobs", str(args.jobs),
                     "--retries", str(args.retries),
                     "--cache-dir", str(cache_dir),
                     "--chaos", CHAOS_SPEC, "--json", str(chaos_json)])
        if chaos.returncode != 0:
            return fail(f"chaos run (spec {CHAOS_SPEC!r}) failed", chaos)

        base_doc = json.loads(base_json.read_text())
        chaos_doc = json.loads(chaos_json.read_text())
        if chaos_doc["benchmarks"] != base_doc["benchmarks"]:
            return fail("chaos run changed benchmark results", chaos)

        execution = chaos_doc.get("execution") or {}
        crashes = sum(
            1 for task in execution.get("tasks", {}).values()
            for failure in task.get("failures", [])
            if failure.get("kind") == "worker-crash")
        if not (execution.get("retries", 0) or crashes):
            return fail("chaos run shows no retries or worker crashes; "
                        "the kill-task fault never fired", chaos)
        if not execution.get("degradations", 0):
            return fail("chaos run shows no degradation events; the "
                        "codegen-fail fault never fired", chaos)
        print(f"chaos execution report: retries={execution['retries']} "
              f"degradations={execution['degradations']} "
              f"pool_rebuilds={execution['pool_rebuilds']}")

        # The corrupt-write fault is latent: this fault-free run reads
        # the scrambled entry, quarantines it, recomputes, and matches.
        # It takes the parallel path, whose warm/cold split must treat
        # the quarantined entry as a miss.
        after = run([*common, "--jobs", str(args.jobs),
                     "--cache-dir", str(cache_dir),
                     "--json", str(after_json)])
        if after.returncode != 0:
            return fail("post-chaos cached run failed", after)
        after_doc = json.loads(after_json.read_text())
        if after_doc["benchmarks"] != base_doc["benchmarks"]:
            return fail("post-chaos cached run changed results", after)
        quarantined = (after_doc.get("execution") or {}) \
            .get("cache_quarantined", 0)
        if not quarantined:
            return fail("post-chaos run quarantined nothing; the "
                        "corrupt-write fault never fired", after)

        sweep = run(["-m", "repro", "cache", "verify",
                     "--dir", str(cache_dir)])
        if sweep.returncode != 0:
            return fail("cache verify found corruption after quarantine",
                        sweep)
        gc = run(["-m", "repro", "cache", "gc", "--dir", str(cache_dir)])
        if gc.returncode != 0:
            return fail("cache gc failed", gc)

    print("chaos check passed: faults fired, results unchanged, "
          "cache repaired")
    return 0


if __name__ == "__main__":
    sys.exit(main())
