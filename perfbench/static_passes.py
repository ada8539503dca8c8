"""Workload ``static-passes``: the CI proof gates ``verify_suite``,
``conserve_suite``, ``match_suite`` and ``equiv_suite`` over the seed's
draw.

Set-up builds the upstream artifacts (compile, expand, ground-truth
traces, PP/TPP/PPP plans) into a disk cache in a fresh process.  The cold
pass, in another fresh process, loads them and times only the four proof
families (symbolic execution, the tuple-backend ground truth of
``equiv``, proof checking) until every verdict is in.  Verdicts are
cached on disk, so a warm pass re-checks the draw against them.  One more
fresh process makes ``WARM_REPEATS`` warm passes, each in a fresh session
that loads the artifacts and verdicts from disk, and the median pass is
reported, each pass scaled by the host-speed loop timed around it
(``speed.bracketed``): the cached verdicts alone take a few
milliseconds, and a whole fresh process is mostly interpreter start-up
and imports, whose time varies from host to host far more than the
program's own work.  Every report must be ``ok``.
"""

from __future__ import annotations

import json

import layers
from common import BENCH_DIR, BenchError, Span, median, remove_dir, \
    run_child, walls, work_dir
from speed import SpeedProbe, bracketed, pin_to_one_cpu

SETUPS = 2
WARM_REPEATS = 60


def _setup(benchmarks: str, cache: str) -> Span:
    span, proc = run_child([str(BENCH_DIR / "child.py"), "static-setup",
                            "--benchmarks", benchmarks, "--cache-dir",
                            cache])
    if proc.returncode != 0:
        raise BenchError(f"static set-up failed:\n{proc.stderr}")
    return span


def _proofs(benchmarks: str, cache: str, out: str, phase: str,
            trace: bool = False, repeats: int = 1) -> dict:
    """Proof passes in one fresh process: its summary, whose ``spans``
    hold the (start, end) of each pass (see ``child.static``)."""
    args = [str(BENCH_DIR / "child.py"), "static", "--benchmarks",
            benchmarks, "--cache-dir", cache, "--phase", phase,
            "--out", out, "--repeats", str(repeats)]
    span, proc = run_child(args + (["--trace"] if trace else []))
    if proc.returncode != 0:
        return {"reports": 0, "bad": ["<crashed>"],
                "verdict_s": span[1] - span[0], "spans": [span],
                "loops": [], "error": proc.stderr[-2000:]}
    with open(out) as handle:
        return json.load(handle)


def run(benchmarks: str, trace: bool
        ) -> tuple[int, int, dict[str, float], list[str]]:
    """Fixed work per run (a proof pass is most of a run's budget)."""
    pin_to_one_cpu()  # the passes run one process at a time (speed.py)
    work = work_dir("static-")
    attempted = failed = 0
    lines: list[str] = []

    def check(label: str, summary: dict) -> None:
        nonlocal attempted, failed
        attempted += max(summary["reports"], 1)
        bad = summary["bad"]
        failed += len(bad)
        if bad:
            lines.append(f"static-passes: {label}: reports not ok: {bad} "
                         f"{summary.get('error', '')}")

    try:
        if trace:
            # Untraced passes first, for the tracing cost, on a cache of
            # their own; the traced ones get a second upstream build.
            cache = str(work / "up0")
            with SpeedProbe() as probe:
                _setup(benchmarks, cache)
                _setup(benchmarks, str(work / "up1"))
                cold = _proofs(benchmarks, cache, str(work / "cold.json"),
                               "cold")
                check("cold pass", cold)
                warm = _proofs(benchmarks, cache, str(work / "warm.json"),
                               "warm")
                check("warm pass", warm)
                metrics, timed = _traced(benchmarks, work, check)
            untraced = sum(probe.seconds(*s["spans"][0])
                           for s in (cold, warm))
            traced = sum(probe.seconds(*t) for t in timed)
            metrics["trace.overhead_pct"] = \
                100.0 * (traced - untraced) / untraced
            return attempted, failed, metrics, lines
        with SpeedProbe() as probe:
            setups = [_setup(benchmarks, str(work / f"up{i}"))
                      for i in range(SETUPS)]
            cold = _proofs(benchmarks, str(work / "up0"),
                           str(work / "cold.json"), "cold")
            check("cold pass", cold)
            warm = _proofs(benchmarks, str(work / "up0"),
                           str(work / "warm.json"), "warm",
                           repeats=WARM_REPEATS)
            check("warm passes", warm)
        warms = warm["spans"]
        lines.append(f"static-passes: {cold['reports']} reports; wall s: "
                     f"set-ups {walls(setups)}, verdicts "
                     f"{cold['verdict_s']:.3f}, warm passes "
                     f"{walls(warms)}; speed scale "
                     f"{probe.scale(*cold['spans'][0]):.3f}")
        return attempted, failed, {
            "setup_s": median([probe.seconds(*s) for s in setups]),
            "cold_s": probe.seconds(*cold["spans"][0]),
            "warm_s": median(bracketed(warms, warm["loops"])
                             if warm["loops"] else walls(warms))}, lines
    finally:
        remove_dir(work)


def _traced(benchmarks: str, work, check
            ) -> tuple[dict[str, float], list[Span]]:
    """Per-layer metrics of a traced cold and warm pass, and their spans
    to compare with the untraced passes."""
    cache = str(work / "up1")
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    coverage = 0.0
    summaries = []
    timed = []
    for phase in ("cold", "warm"):
        summary = _proofs(benchmarks, cache,
                          str(work / f"traced-{phase}.json"), phase,
                          trace=True)
        check(f"traced {phase} pass", summary)
        if "layers" not in summary:
            raise BenchError(f"traced {phase} pass failed")
        timed.append(summary["spans"][0])
        summaries.append(summary)
    for summary in summaries:
        for name, value in summary["layers"].items():
            if not name.startswith("interp.mops."):
                metrics[name] += value
        metrics.update(summary["cache"])
        coverage += summary["coverage_pct"] * summary["verdict_s"]
    for mode in layers.MODES:
        run_s = metrics[f"interp.run_s.{mode}"]
        instrs = sum(s["layers"][f"interp.mops.{mode}"]
                     * s["layers"][f"interp.run_s.{mode}"]
                     for s in summaries)
        metrics[f"interp.mops.{mode}"] = instrs / run_s if run_s else 0.0
    metrics["engine.cache.disk_bytes"] = float(sum(
        p.stat().st_size for p in (work / "up1").glob("*.pkl")))
    metrics["trace.coverage_pct"] = coverage / sum(
        s["verdict_s"] for s in summaries)
    return metrics, timed
