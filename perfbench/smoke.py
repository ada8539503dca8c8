"""Smoke test of the benchmark itself (about 3 minutes).

    python3 perfbench/smoke.py

Runs every workload at its smallest size (``--smoke``: 1 benchmark, 10
requests), untraced and traced, and checks that each prints every metric
it owes with its unit and no failed operation.  Then corrupts the
expected outputs and checks that the runs report failed operations
instead of crashing.
"""

from __future__ import annotations

import json
import sys

import layers
from common import (ORACLE_PATH, draw_for_seed, draw_key, last_json_line,
                    load_oracle, remove_dir, run_child, work_dir)
from run import END_TO_END, WORKLOADS

SEED = 1


def bench(workload: str, trace: int, oracle: str = "") -> tuple[int, dict]:
    args = ["perfbench/run.py", "--workload", workload, "--seed",
            str(SEED), "--seconds", "5", "--trace", str(trace), "--smoke"]
    _span, proc = run_child(args + (["--oracle", oracle] if oracle else []))
    if proc.returncode != 0:
        return proc.returncode, {"stderr": proc.stderr[-2000:]}
    return 0, last_json_line(proc.stdout)


def main() -> int:
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, layers.PER_LAYER)):
            code, result = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0:
                problems.append(f"{label}: exit {code} {result}")
                continue
            metrics = result["metrics"]
            wrong = [name for name, unit in units.items()
                     if metrics.get(name, {}).get("unit") != unit]
            if wrong or set(metrics) != set(units):
                problems.append(f"{label}: metrics missing or mislabelled: "
                                f"{wrong or sorted(set(metrics) ^ set(units))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed")
            print(f"{label}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations", flush=True)

    work = work_dir("smoke-")
    try:
        oracle = load_oracle(ORACLE_PATH)
        smoke_key = draw_key(draw_for_seed(oracle, SEED)[:1])
        oracle["harness"][smoke_key] = "0" * 64
        oracle["service"] = {k: "0" * 64 for k in oracle["service"]}
        corrupt = work / "oracle.json"
        corrupt.write_text(json.dumps(oracle))
        for workload in ("harness-all", "service-open"):
            code, result = bench(workload, 0, str(corrupt))
            if code != 0 or not result.get("failed") or result["correct"]:
                problems.append(f"{workload}: corrupted oracle not reported "
                                f"as failed operations: exit {code} "
                                f"{result}")
            else:
                print(f"{workload} vs corrupted oracle: "
                      f"{result['failed']} of {result['attempted']} failed, "
                      f"as expected", flush=True)
    finally:
        remove_dir(work)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
