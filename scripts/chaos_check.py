#!/usr/bin/env python
"""CI chaos gate: a seeded fault-injection run must change nothing.

Runs the harness twice over the same benchmark subset:

1. a fault-free baseline, and
2. a chaos run under a seeded :class:`repro.engine.faults.FaultPlan`
   that kills a worker, stalls another job for far longer than the
   run's ``--timeout``, injects a codegen failure, and corrupts a cache
   entry on write,

then asserts:

* both runs exit 0;
* the ``benchmarks`` subtree of the two ``--json`` exports is
  byte-identical (fault tolerance may never change results);
* the chaos run's execution report shows the faults actually fired
  (worker-crash and timeout failures, nonzero degradations);
* the chaos process's wall time stays below the stall: the timed-out
  worker is killed, so exiting never waits on it;
* a follow-up fault-free ``--jobs`` run over the chaos run's cache
  directory quarantines the corrupt entry and still matches, and
  ``repro cache verify`` then reports a clean directory;
* the source under ``src/repro`` -- which salts every cache key -- did
  not change between the chaos run and the follow-up run.

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
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.engine.fingerprint import source_salt  # noqa: E402

# Task 1's worker dies on its first attempt; task 2's first attempt
# stalls STALL_S seconds, far past the chaos run's TIMEOUT_S.
STALL_S = 120.0
TIMEOUT_S = 20.0
CHAOS_SPEC = (f"seed=7,kill-job=1,stall-job=2:{STALL_S},codegen-fail=main,"
              "corrupt-write=workload:0")


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

        # Every cache key is salted with a hash of the source, so an
        # edit between the chaos run and the follow-up run sends the
        # follow-up to other keys, past the corrupted entry.
        salt_before = source_salt()
        started = time.monotonic()
        chaos = run([*common, "--jobs", str(args.jobs),
                     "--retries", str(args.retries),
                     "--timeout", str(TIMEOUT_S),
                     "--cache-dir", str(cache_dir),
                     "--chaos", CHAOS_SPEC, "--json", str(chaos_json)])
        chaos_s = time.monotonic() - started
        if chaos.returncode != 0:
            return fail(f"chaos run (spec {CHAOS_SPEC!r}) failed", chaos)
        if chaos_s >= STALL_S:
            return fail(f"chaos run took {chaos_s:.1f}s, not below the "
                        f"{STALL_S:.0f}s stall: its exit waited on the "
                        "timed-out worker", chaos)

        base_doc = json.loads(base_json.read_text())
        chaos_doc = json.loads(chaos_json.read_text())
        if chaos_doc["benchmarks"] != base_doc["benchmarks"]:
            return fail("chaos run changed benchmark results", chaos)

        execution = chaos_doc.get("execution") or {}
        kinds = {failure.get("kind")
                 for task in execution.get("tasks", {}).values()
                 for failure in task.get("failures", [])}
        for kind, fault in (("worker-crash", "kill-job"),
                            ("timeout", "stall-job")):
            if kind not in kinds:
                return fail(f"chaos run shows no {kind} failure; the "
                            f"{fault} fault never fired", chaos)
        if not execution.get("degradations", 0):
            return fail("chaos run shows no degradation events; the "
                        "codegen-fail fault never fired", chaos)
        print(f"chaos execution report: retries={execution['retries']} "
              f"degradations={execution['degradations']} "
              f"pool_rebuilds={execution['pool_rebuilds']} "
              f"wall={chaos_s:.1f}s (stall {STALL_S:.0f}s)")

        # The corrupt-write fault is latent: this fault-free run reads
        # the scrambled entry, quarantines it, recomputes, and matches.
        # It takes the parallel path, whose warm/cold split must treat
        # the quarantined entry as a miss.
        after = run([*common, "--jobs", str(args.jobs),
                     "--cache-dir", str(cache_dir),
                     "--json", str(after_json)])
        salt_after = source_salt()
        if salt_after != salt_before:
            return fail(f"source under src/repro changed during the check "
                        f"(salt {salt_before:08x} -> {salt_after:08x}); "
                        "rerun on a quiet tree", after)
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
