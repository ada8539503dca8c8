#!/usr/bin/env python
"""Interpreter throughput benchmark: ops/sec per workload, both backends.

Runs every workload in the stock suite on the tuple and compiled
backends, measures interpreted IR instructions per second (best of
``--repeats`` timed runs, after an untimed warm-up that also populates
the codegen cache), and writes ``BENCH_interp.json``.  The process pins
itself to one CPU, and each workload's tuple and compiled runs
alternate, so both sides of a speedup ratio see the same host speed:

    {
      "schema": 2,
      "scale": 1,
      "repeats": 3,
      "mode": "plain",
      "workloads": {
        "mcf": {"instructions": ..., "tuple_ops_per_sec": ...,
                 "compiled_ops_per_sec": ..., "speedup": ...},
        ...
      },
      "geomean_speedup": ...,
      "min_speedup": ...
    }

Subsequent PRs diff this file to track the perf trajectory; CI runs
``--smoke --min-speedup 1.0`` as a regression gate (fail if the compiled
backend is ever slower than the reference interpreter).
``--compare OLD.json`` diffs this run against a saved
report and exits non-zero on any per-workload speedup regression beyond
``--compare-tolerance`` percent.

``--profilers`` switches to the profiler-overhead benchmark instead:
each registered (non-plan-bound) profiler plugin runs alone over the
suite on the compiled backend, interleaved with the no-observation
baseline within every repeat, and its wall-clock slowdown (median and
min-max over the repeats) and billed instrumentation cost relative to
that baseline are written to ``BENCH_profilers.json``:

    {
      "schema": 3,
      "baseline": {"mcf": {"ops_per_sec": ...}, ...},
      "profilers": {
        "values": {"mcf": {"ops_per_sec": ..., "overhead_pct": ...,
                            "overhead_min_pct": ...,
                            "overhead_max_pct": ...,
                            "billed_overhead_pct": ...}, ...},
        ...
      }
    }

Usage::

    PYTHONPATH=src python scripts/bench.py                # full suite
    PYTHONPATH=src python scripts/bench.py --smoke        # 4 workloads
    PYTHONPATH=src python scripts/bench.py --min-speedup 3.0
    PYTHONPATH=src python scripts/bench.py --smoke --profilers
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.interp import Machine, VALID_BACKENDS  # noqa: E402
from repro.workloads import SUITE, get_workload  # noqa: E402

# A branchy/loopy/call-heavy cross-section for the CI smoke gate.
SMOKE_WORKLOADS = ("vpr", "mcf", "parser", "swim")


def pin_to_one_cpu() -> None:
    """Pin this process to the lowest CPU it may run on (where the OS
    supports affinity), so the scheduler never migrates a timed run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_run(module, backend: str, profile: bool,
              trace: bool) -> tuple[float, int]:
    """(seconds, instructions executed) of one run of ``module``."""
    machine = Machine(module, collect_edge_profile=profile,
                      trace_paths=trace, backend=backend)
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return elapsed, result.instructions_executed


def ops_per_sec(module, repeats: int, profile: bool,
                trace: bool) -> dict[str, tuple[float, int]]:
    """Best-of-N interpreted (ops/sec, instructions) per backend for one
    module, the backends' repeats interleaved."""
    for backend in VALID_BACKENDS:
        # Warm-up: codegen cache, branch predictors, allocator.
        timed_run(module, backend, profile, trace)
    best = {backend: (math.inf, 0) for backend in VALID_BACKENDS}
    for _ in range(max(1, repeats)):
        for backend in VALID_BACKENDS:
            best[backend] = min(best[backend],
                                timed_run(module, backend, profile, trace))
    return {backend: (instructions / seconds, instructions)
            for backend, (seconds, instructions) in best.items()}


def _geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def run_bench(names: list[str], scale: int, repeats: int, profile: bool,
              trace: bool) -> dict:
    workloads: dict[str, dict] = {}
    speedups: list[float] = []
    for name in names:
        module = get_workload(name).compile(scale)
        rates = ops_per_sec(module, repeats, profile, trace)
        speedup = rates["compiled"][0] / rates["tuple"][0]
        speedups.append(speedup)
        workloads[name] = {
            "instructions": rates["tuple"][1],
            "tuple_ops_per_sec": round(rates["tuple"][0], 1),
            "compiled_ops_per_sec": round(rates["compiled"][0], 1),
            "speedup": round(speedup, 3),
        }
        print(f"  {name:10s} tuple {rates['tuple'][0] / 1e6:7.2f} Mops/s"
              f"   compiled {rates['compiled'][0] / 1e6:7.2f} Mops/s   "
              f"{speedup:5.2f}x", flush=True)
    return {
        "schema": 2,
        "scale": scale,
        "repeats": repeats,
        "mode": ("profile+trace" if trace else
                 "profile" if profile else "plain"),
        "workloads": workloads,
        "geomean_speedup": round(_geomean(speedups), 3),
        "min_speedup": round(min(speedups), 3),
    }


def compare_reports(old: dict, new: dict, tolerance_pct: float
                    ) -> list[str]:
    """Per-workload regressions of ``new`` vs ``old`` beyond the
    tolerance (in percent); empty when nothing regressed."""
    problems: list[str] = []
    if old.get("mode") != new.get("mode") \
            or old.get("scale") != new.get("scale"):
        problems.append(
            f"incomparable runs: old mode/scale "
            f"{old.get('mode')}/{old.get('scale')} vs new "
            f"{new.get('mode')}/{new.get('scale')}")
        return problems
    floor = 1.0 - tolerance_pct / 100.0
    for name, old_row in sorted(old.get("workloads", {}).items()):
        new_row = new.get("workloads", {}).get(name)
        if new_row is None:
            continue  # workload dropped from this run's selection
        was, now = old_row["speedup"], new_row["speedup"]
        if was > 0 and now < was * floor:
            problems.append(
                f"{name}: speedup regressed {was:.3f}x -> {now:.3f}x "
                f"({(now / was - 1.0) * 100.0:+.1f}%, tolerance "
                f"-{tolerance_pct:.0f}%)")
    return problems


def _profiled_run(module, profiler_names: tuple[str, ...]
                  ) -> tuple[float, float, float, int]:
    """Wall seconds, base cost, instrumentation cost and instructions of
    one run of the module under the named profilers (compiled backend)."""
    from repro.profilers import build_machine, create_profilers

    machine, (account,) = build_machine(
        module, [create_profilers(profiler_names)], backend="compiled")
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return (elapsed, result.costs.base, account.costs.instrumentation,
            result.instructions_executed)


def run_profiler_bench(names: list[str], scale: int, repeats: int) -> dict:
    """Per-profiler wall overhead vs the no-observation baseline.

    Each repeat runs the baseline and then every plugin once, back to
    back, and a plugin's overhead in that repeat is its time over that
    repeat's baseline time, so both runs see the same host speed.  Each
    cell reports the median and the min-max of those per-repeat
    overheads, and best-of-N ops/sec.
    """
    from repro.profilers import registered_profilers

    plugin_names = sorted(name for name, cls in
                          registered_profilers().items()
                          if not cls.requires_plan)
    selections = [()] + [(plugin,) for plugin in plugin_names]
    baseline: dict[str, dict] = {}
    report: dict[str, dict] = {plugin: {} for plugin in plugin_names}
    for name in names:
        module = get_workload(name).compile(scale)
        for selection in selections:
            _profiled_run(module, selection)  # warm-up: codegen cache
        runs: dict[tuple, list] = {selection: [] for selection in selections}
        for _ in range(max(1, repeats)):
            for selection in selections:
                runs[selection].append(_profiled_run(module, selection))
        base_times = [run[0] for run in runs[()]]
        instructions = runs[()][0][3]
        baseline[name] = {
            "ops_per_sec": round(instructions / min(base_times), 1)}
        for plugin in plugin_names:
            times = [run[0] for run in runs[(plugin,)]]
            overheads = sorted((t / b - 1.0) * 100.0
                               for t, b in zip(times, base_times))
            _t, base, instr, _n = runs[(plugin,)][0]
            billed = (instr / base * 100.0) if base else 0.0
            overhead = statistics.median(overheads)
            report[plugin][name] = {
                "ops_per_sec": round(instructions / min(times), 1),
                "overhead_pct": round(overhead, 1),
                "overhead_min_pct": round(overheads[0], 1),
                "overhead_max_pct": round(overheads[-1], 1),
                "billed_overhead_pct": round(billed, 2),
            }
            print(f"  {plugin:12s} {name:10s} "
                  f"{instructions / min(times) / 1e6:7.2f} Mops/s   wall "
                  f"{overhead:+6.1f}% [{overheads[0]:+.1f}, "
                  f"{overheads[-1]:+.1f}]   billed {billed:6.2f}%",
                  flush=True)
    return {
        "schema": 3,
        "scale": scale,
        "repeats": repeats,
        "backend": "compiled",
        "baseline": baseline,
        "profilers": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark interpreter backends over the workload "
                    "suite and write BENCH_interp.json.")
    parser.add_argument("--smoke", action="store_true",
                        help=f"only {', '.join(SMOKE_WORKLOADS)} (CI gate)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per measurement; best is kept")
    parser.add_argument("--profiled", action="store_true",
                        help="measure the profile+trace observation mode "
                             "instead of plain execution")
    parser.add_argument("--profilers", action="store_true",
                        help="benchmark per-plugin profiler overhead vs "
                             "the no-observation baseline and write "
                             "BENCH_profilers.json instead")
    parser.add_argument("--compare", metavar="OLD.json", default=None,
                        help="compare this run against a previous "
                             "BENCH_interp.json; exit non-zero on any "
                             "per-workload speedup regression beyond "
                             "--compare-tolerance")
    parser.add_argument("--compare-tolerance", type=float, default=15.0,
                        metavar="PCT",
                        help="allowed per-workload speedup drop vs "
                             "--compare baseline, in percent (default 15)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_interp.json, or "
                             "BENCH_profilers.json with --profilers)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if any workload's compiled/"
                             "tuple ratio falls below X")
    args = parser.parse_args(argv)

    names = (list(SMOKE_WORKLOADS) if args.smoke
             else [w.name for w in SUITE])
    pin_to_one_cpu()
    print(f"benchmarking {len(names)} workloads at scale {args.scale} "
          f"({args.repeats} repeats) ...", flush=True)

    if args.profilers:
        report = run_profiler_bench(names, args.scale, args.repeats)
        out = args.out or "BENCH_profilers.json"
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {out}]")
        return 0

    # Read the comparison baseline before --out can overwrite it.
    old_report = None
    if args.compare:
        old_report = json.loads(Path(args.compare).read_text())

    report = run_bench(names, args.scale, args.repeats,
                       profile=args.profiled, trace=args.profiled)
    args.out = args.out or "BENCH_interp.json"
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"geomean speedup: {report['geomean_speedup']:.2f}x   "
          f"min: {report['min_speedup']:.2f}x")
    print(f"[written to {args.out}]")

    failed = False
    if args.min_speedup is not None \
            and report["min_speedup"] < args.min_speedup:
        print(f"FAIL: min speedup {report['min_speedup']:.2f}x is below "
              f"the required {args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    if old_report is not None:
        problems = compare_reports(old_report, report,
                                   args.compare_tolerance)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"[no regressions vs {args.compare}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
