"""Workload ``harness-all``: the user-facing paper reproduction,
``python -m repro.harness all --quiet --jobs 1``, over the seed's draw.

Each round is a cold pass (fresh process, empty ``--cache-dir``) and
``WARM_PASSES`` warm passes (fresh processes, same directory).  Every
output must equal the tuple-backend oracle byte for byte (less the
tables the two backends disagree on, see ``common.BACKEND_DEPENDENT``),
and each warm pass must equal the cold pass in full.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import layers
from common import (BENCH_DIR, BenchError, Span, harness_digest, median,
                    remove_dir, run_child, walls, work_dir)
from speed import SpeedProbe, bracketed, loop_seconds, pin_to_one_cpu

SETUP_PROBES = 5
# The warm pass writes nothing to the cache, so repeating it measures the
# same work again; its median is steadier than one short pass.
WARM_PASSES = 3


def _pass(benchmarks: str, cache: str) -> tuple[Span, str, int]:
    span, proc = run_child(["-m", "repro.harness", "all", "--quiet",
                            "--jobs", "1", "--benchmarks", benchmarks,
                            "--cache-dir", cache])
    return span, proc.stdout, proc.returncode


def _traced_pass(benchmarks: str, cache: str, phase: str, out: str
                 ) -> tuple[Span, str, int]:
    span, proc = run_child([str(BENCH_DIR / "child.py"), "harness-traced",
                            "--benchmarks", benchmarks, "--cache-dir",
                            cache, "--phase", phase, "--out", out])
    return span, proc.stdout, proc.returncode


def run(benchmarks: str, expected: str, seconds: float, trace: bool
        ) -> tuple[int, int, dict[str, float], list[str]]:
    pin_to_one_cpu()  # the passes run one process at a time (speed.py)
    work = work_dir("harness-")
    attempted = failed = 0
    lines: list[str] = []

    def check(label: str, stdout: str, code: int, cold: str = "") -> None:
        nonlocal attempted, failed
        attempted += 1
        if (code != 0 or harness_digest(stdout) != expected
                or (cold and stdout != cold)):
            failed += 1
            lines.append(f"harness-all: {label} output differs from the "
                         f"oracle (exit {code})")

    try:
        if trace:
            metrics = _traced(benchmarks, work, check, lines)
            return attempted, failed, metrics, lines
        with SpeedProbe() as probe:
            setups, loops, colds, warms = _measure(benchmarks, work,
                                                   seconds, check)
        values = {name: [probe.seconds(*span) for span in spans]
                  for name, spans in (("cold_s", colds), ("warm_s", warms))}
        values["setup_s"] = bracketed(setups, loops)
        lines.append(f"harness-all: {len(colds)} cold pass(es), "
                     f"{len(warms)} warm; wall s: set-ups {walls(setups)}, "
                     f"cold {walls(colds)}, warm {walls(warms)}; speed "
                     f"scale {probe.scale(*colds[0]):.3f}")
        return attempted, failed, {name: median(v)
                                   for name, v in values.items()}, lines
    finally:
        remove_dir(work)


def _measure(benchmarks: str, work: Path, seconds: float, check
             ) -> tuple[list[Span], list[float], list[Span], list[Span]]:
    """The span of each set-up probe, the host-speed loop times around
    them (``speed.bracketed``), and the span of each cold and warm
    pass."""
    setups = []
    loops = [loop_seconds()]
    for i in range(SETUP_PROBES):
        span, proc = run_child([str(BENCH_DIR / "child.py"),
                                "harness-setup", "--cache-dir",
                                str(work / f"probe{i}")])
        if proc.returncode != 0:
            raise BenchError(f"harness set-up failed:\n{proc.stderr}")
        setups.append(span)
        loops.append(loop_seconds())
    colds: list[Span] = []
    warms: list[Span] = []
    begin = time.perf_counter()
    while True:
        cache = str(work / f"cache{len(colds)}")
        span, cold, code = _pass(benchmarks, cache)
        colds.append(span)
        check("cold pass", cold, code)
        for _ in range(WARM_PASSES):
            span, out, code = _pass(benchmarks, cache)
            warms.append(span)
            check("warm pass", out, code, cold)
        elapsed = time.perf_counter() - begin
        if elapsed * (len(colds) + 1) / len(colds) > seconds:
            return setups, loops, colds, warms


def _traced(benchmarks: str, work, check, lines: list[str]
            ) -> dict[str, float]:
    """Untraced pair, traced pair, then plain baselines for wall
    overhead; per-layer metrics sum both traced passes."""
    cold = ""
    summaries = {}
    untraced: list[Span] = []
    traced: list[Span] = []
    with SpeedProbe() as probe:
        for label in ("cold pass", "warm pass"):
            span, out, code = _pass(benchmarks, str(work / "untraced"))
            untraced.append(span)
            check(label, out, code, cold)
            cold = cold or out
        for phase in ("cold", "warm"):
            out_path = str(work / f"{phase}.json")
            span, out, code = _traced_pass(
                benchmarks, str(work / "traced"), phase, out_path)
            traced.append(span)
            check(f"traced {phase} pass", out, code, cold)
            if code != 0:
                raise BenchError(f"traced {phase} pass failed")
            summaries[phase] = (span[1] - span[0],
                                json.loads(open(out_path).read()))
    untraced_s, traced_s = (sum(probe.seconds(*s) for s in spans)
                            for spans in (untraced, traced))
    _span, proc = run_child([str(BENCH_DIR / "child.py"), "baseline",
                             "--benchmarks", benchmarks, "--cache-dir",
                             str(work / "traced"), "--out",
                             str(work / "plain.json")])
    if proc.returncode != 0:
        raise BenchError(f"plain baseline failed:\n{proc.stderr}")
    plain = json.loads((work / "plain.json").read_text())["plain_s"]

    metrics = {name: 0.0 for name in layers.PER_LAYER}
    coverage = 0.0
    for phase, (wall, summary) in summaries.items():
        for name, value in summary["layers"].items():
            if name.startswith("interp.mops."):
                continue
            metrics[name] += value
        metrics.update(summary["cache"])
        metrics.update(summary["studies"])
        coverage += summary["coverage_pct"] * wall / sum(
            w for w, _s in summaries.values())
    for mode in layers.MODES:
        seconds = metrics[f"interp.run_s.{mode}"]
        instrs = sum(s["layers"][f"interp.mops.{mode}"]
                     * s["layers"][f"interp.run_s.{mode}"]
                     for _w, s in summaries.values())
        metrics[f"interp.mops.{mode}"] = instrs / seconds if seconds else 0.0
    metrics["engine.cache.disk_bytes"] = float(sum(
        p.stat().st_size for p in (work / "traced").glob("*.pkl")))
    runs = summaries["cold"][1]["techniques"]
    metrics.update(layers.overhead_metrics(runs, plain))
    metrics["trace.overhead_pct"] = \
        100.0 * (traced_s - untraced_s) / untraced_s
    metrics["trace.coverage_pct"] = coverage
    for bench, base in plain.items():
        cells = []
        for tech in layers.TECHNIQUES:
            run = runs.get(f"{bench}/{tech}")
            if run is not None:
                wall_pct = 100.0 * (run["run_s"] - base) / base
                cells.append(f"{tech} billed {run['billed_pct']:.1f}% "
                             f"wall {wall_pct:.1f}%")
        lines.append(f"overhead {bench} (plain {base * 1000:.1f} ms): "
                     + "; ".join(cells))
    return metrics
