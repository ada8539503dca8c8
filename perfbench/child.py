"""Child-process entry points of the benchmark (one fresh interpreter per
pass, as a user would run them).

    child.py harness-setup  --cache-dir D
    child.py harness-traced --benchmarks B --cache-dir D --out F
    child.py baseline       --benchmarks B --cache-dir D --out F
    child.py static-setup   --benchmarks B --cache-dir D
    child.py static         --benchmarks B --cache-dir D --out F
                            [--phase cold|warm] [--repeats N] [--trace]

The untraced harness passes run ``python -m repro.harness`` itself; only
the traced ones come through here.  Each mode writes a JSON summary to
``--out``; the harness text goes to stdout for the oracle check.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from common import median, require_program
from speed import loop_seconds
from tracer import Tracer

TECHS = ("pp", "tpp", "ppp")


def _workloads(names: str) -> list:
    from repro.workloads import get_workload

    return [get_workload(n) for n in names.split(",") if n]


def harness_setup(args: argparse.Namespace) -> dict:
    from repro.harness.__main__ import build_session

    build_session(jobs=1, cache_dir=args.cache_dir)
    return {}


def harness_traced(args: argparse.Namespace) -> dict:
    import layers

    tracer = Tracer()
    sessions: list = []
    layers.install(tracer, sessions)
    from repro.harness.__main__ import main

    start = time.perf_counter()
    code = main(["all", "--quiet", "--jobs", "1", "--benchmarks",
                 args.benchmarks, "--cache-dir", args.cache_dir])
    end = time.perf_counter()
    sys.stdout.flush()
    spans = tracer.spans
    return {
        "code": code,
        "layers": layers.layer_metrics(spans),
        "cache": layers.cache_metrics(spans, sessions[0].stats, args.phase),
        "studies": layers.study_metrics(spans, args.phase),
        "techniques": layers.technique_runs(spans),
        "coverage_pct": layers.coverage_pct(spans, start, end,
                                            spans[0]["pid"] if spans else 0),
        "spans": len(spans),
    }


def baseline(args: argparse.Namespace) -> dict:
    """Plain compiled runs of each expanded module (median of 3 after a
    warm-up that fills the codegen cache), read from the cold cache."""
    from repro.engine import ArtifactCache, ProfilingSession
    from repro.interp import Machine

    session = ProfilingSession(cache=ArtifactCache(disk_dir=args.cache_dir))
    plain: dict[str, float] = {}
    for workload in _workloads(args.benchmarks):
        module = session.expand(workload).module
        Machine(module, backend="compiled").run()
        times = []
        for _ in range(3):
            machine = Machine(module, backend="compiled")
            start = time.perf_counter()
            machine.run()
            times.append(time.perf_counter() - start)
        plain[workload.name] = median(times)
    return {"plain_s": plain}


def _upstream(session, workloads: list) -> None:
    """The artifacts the proof families consume (built in set-up)."""
    for workload in workloads:
        module = session.compile(workload)
        expanded = session.expand(workload).module
        session.trace(module)
        _paths, edge_profile, _rv = session.trace(expanded)
        for tech in TECHS:
            session.plan(tech, expanded,
                         None if tech == "pp" else edge_profile)


def static_setup(args: argparse.Namespace) -> dict:
    from repro.engine import ArtifactCache, ProfilingSession

    session = ProfilingSession(cache=ArtifactCache(disk_dir=args.cache_dir))
    _upstream(session, _workloads(args.benchmarks))
    return {}


def static(args: argparse.Namespace) -> dict:
    """``--repeats`` proof passes, all four families over the draw, each
    in a fresh session on the disk cache.  Verdicts land in that cache,
    so passes on a directory that already holds them are warm.  A cold
    pass's span brackets the analysis alone (its inputs were built in
    set-up); a warm pass's span also holds its loads from disk, because
    the cached verdicts alone take a few milliseconds.  ``loops`` holds
    the host-speed loop time before the first pass and after each pass
    (``speed.bracketed``)."""
    tracer = None
    if args.trace:
        import layers

        tracer = Tracer()
        layers.install(tracer)
    from repro.analysis.equiv import equiv_suite
    from repro.analysis.verify import conserve_suite, match_suite, \
        verify_suite
    from repro.engine import ArtifactCache, ProfilingSession

    workloads = _workloads(args.benchmarks)
    timed: list[list[float]] = []
    bad: list[str] = []
    count = 0
    loops = [loop_seconds()]
    for _ in range(args.repeats):
        gc.collect()  # the last pass's garbage is not this pass's cost
        begin = time.perf_counter()
        session = ProfilingSession(
            cache=ArtifactCache(disk_dir=args.cache_dir))
        _upstream(session, workloads)  # disk hits: loads, computes nothing
        stats = session.stats
        loaded = stats.hits, stats.misses, stats.disk_hits
        spans_before = len(tracer.spans) if tracer else 0

        start = time.perf_counter()
        reports = [r for r in verify_suite(session, workloads)]
        reports += conserve_suite(session, workloads)
        reports += match_suite(session, workloads)
        reports += [r for _w, _label, r in equiv_suite(session, workloads)]
        end = time.perf_counter()
        timed.append([start if args.phase == "cold" else begin, end])
        loops.append(loop_seconds())
        count += len(reports)
        bad += [r.title or "?" for r in reports if not r.ok]

    out = {"verdict_s": end - start, "spans": timed, "loops": loops,
           "reports": count, "bad": bad, "upstream_misses": loaded[1]}
    if tracer is not None:  # of the last pass
        import layers

        spans = tracer.spans[spans_before:]
        stats_delta = _Stats(stats.hits - loaded[0], stats.misses - loaded[1],
                             stats.disk_hits - loaded[2])
        out["layers"] = layers.layer_metrics(spans)
        out["cache"] = layers.cache_metrics(spans, stats_delta, args.phase)
        out["coverage_pct"] = layers.coverage_pct(
            spans, start, end, spans[0]["pid"] if spans else 0)
    return out


class _Stats:
    def __init__(self, hits: int, misses: int, disk_hits: int):
        self.hits, self.misses, self.disk_hits = hits, misses, disk_hits


MODES = {"harness-setup": harness_setup, "harness-traced": harness_traced,
         "baseline": baseline, "static-setup": static_setup,
         "static": static}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--benchmarks", default="")
    parser.add_argument("--cache-dir", default="")
    parser.add_argument("--phase", default="cold")
    parser.add_argument("--out", default="")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    require_program()
    result = MODES[args.mode](args)
    if args.out:
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
