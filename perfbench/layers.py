"""Which calls the traced run wraps, and the per-layer metrics derived
from their spans.

``install`` puts a wrapper on each layer's public entry points (plus the
two engine internals the issue names: the codegen cache fill and the
artifact cache's ``get_or_compute``).  ``PER_LAYER`` is the full list of
per-layer metrics a traced run prints; a layer that does not run on a
workload reports 0.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from common import median
from tracer import Span, Tracer, outermost, total_s

MODES = ("plain", "trace", "instrumented", "listener", "tuple")
TECHNIQUES = ("pp", "tpp", "ppp")
PASSES = ("cold", "warm")
EXPERIMENTS = ("run_suite", "table1", "table2", "fig9", "fig10", "fig11",
               "fig12", "fig13", "oaat", "net", "superblocks", "ifconvert",
               "metrics", "sampling", "hpt", "profilers", "matching")
# repro.harness.__main__ global -> experiment name
RENDERERS = {
    "table1": "table1", "table2": "table2", "figure9": "fig9",
    "figure10": "fig10", "figure11": "fig11", "figure12": "fig12",
    "figure13": "fig13", "one_at_a_time": "oaat", "net_table": "net",
    "superblock_table": "superblocks", "ifconvert_table": "ifconvert",
    "metrics_table": "metrics", "sampling_table": "sampling",
    "hpt_table": "hpt", "profiler_table": "profilers",
    "matching_table": "matching",
}
ANALYSIS = {  # span name suffix -> wrapped functions
    "verify": ("repro.analysis.verify:verify_module_plan",),
    "conserve": ("repro.analysis.verify:verify_conservation",),
    "match": ("repro.analysis.match:match_modules",
              "repro.analysis.verify:verify_match"),
    "transfer": ("repro.analysis.transfer:remap_edge_profile",
                 "repro.analysis.verify:verify_transfer"),
    "equiv_codegen": ("repro.analysis.equiv:check_module_codegen",),
    "equiv_pass": ("repro.analysis.equiv:check_pass",),
}


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {
        "lang.compile_s": "s", "opt.expand_s": "s",
        "opt.expanded_instrs": "count", "interp.codegen_s": "s",
        "interp.codegen_calls": "count",
    }
    for mode in MODES:
        units[f"interp.run_s.{mode}"] = "s"
        units[f"interp.mops.{mode}"] = "Mop/s"
    units.update({"core.plan_s": "s", "core.plans": "count",
                  "core.static_ops": "count", "profilers.execute_s": "s",
                  "profiles.score_s": "s"})
    for name in ANALYSIS:
        units[f"analysis.{name}_s"] = "s"
    units.update({"analysis.reports": "count", "analysis.errors": "count",
                  "engine.fingerprint_s": "s",
                  "engine.cache.disk_bytes": "B"})
    for phase in PASSES:
        for stat, unit in (("hits", "count"), ("misses", "count"),
                           ("disk_hits", "count"), ("hit_ratio", "ratio"),
                           ("self_s", "s")):
            units[f"engine.cache.{stat}.{phase}"] = unit
    for experiment in EXPERIMENTS:
        for phase in PASSES:
            units[f"harness.study_s.{experiment}.{phase}"] = "s"
    for tech in TECHNIQUES:
        units[f"profilers.billed_pct.{tech}"] = "%"
        units[f"profilers.wall_pct.{tech}"] = "%"
    for name in ("queue_wait_ms", "dispatch_ms", "job_ms",
                 "pool_overhead_ms", "remap_ms"):
        units[f"service.{name}"] = "ms"
    for name in ("fresh", "rejected", "retries"):
        units[f"service.{name}"] = "count"
    units.update({"loadgen.late_max_ms": "ms",
                  "loadgen.latency_p50_ms": "ms",
                  "loadgen.latency_p90_ms": "ms",
                  "trace.overhead_pct": "%", "trace.coverage_pct": "%"})
    return units


PER_LAYER: dict[str, str] = _per_layer()


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def machine_mode(machine: Any) -> str:
    if machine.backend == "tuple":
        return "tuple"
    if machine.path_listener is not None:
        return "listener"
    if machine.trace_paths:
        return "trace"
    if any(cf.hooks for cf in machine.compiled.values()):
        return "instrumented"
    return "plain"


def _module_instrs(module: Any) -> int:
    return sum(len(block.instructions)
               for func in module.functions.values()
               for block in func.cfg.blocks.values())


def _report_counts(report: Any, *_args: Any, **_kw: Any) -> dict:
    return {"reports": 1, "errors": len(report.errors())}


def install(tracer: Tracer, sessions: Optional[list] = None) -> None:
    """Wrap every layer entry point (call before any pool forks)."""
    wrap = tracer.wrap
    wrap("repro.lang.lower:compile_source", "lang.compile")
    wrap("repro.opt.pipeline:expand_module", "opt.expand",
         after=lambda r, *a, **k: {"instrs": _module_instrs(r.module)})
    wrap("repro.interp.compiled:generate_source", "interp.generate")
    wrap("repro.interp.compiled:_compiled_code", "interp.codegen")
    wrap("repro.interp.machine:Machine.run", "interp.run",
         attrs=lambda m, *a, **k: {"mode": machine_mode(m)},
         after=lambda r, *a, **k: {"instrs": r.instructions_executed})
    for planner in ("plan_pp", "plan_tpp", "plan_ppp"):
        wrap(f"repro.core.pipeline:{planner}", "core.plan",
             after=lambda r, *a, **k: {"static_ops": r.static_ops()})
    wrap("repro.profilers.drive:execute_profilers", "profilers.execute")
    for scorer in ("build_estimated_profile", "evaluate_accuracy",
                   "evaluate_coverage"):
        wrap(f"repro.core.estimate:{scorer}", "profiles.score")
    for name, targets in ANALYSIS.items():
        for target in targets:
            after = _report_counts if name not in ("match", "transfer") \
                or "verify" in target else None
            wrap(target, f"analysis.{name}", after=after)
    for fingerprint in ("fingerprint_text", "fingerprint_module",
                        "fingerprint_edge_profile", "fingerprint_config"):
        wrap(f"repro.engine.fingerprint:{fingerprint}",
             "engine.fingerprint")
    wrap("repro.engine.stages:score_technique", "engine.technique",
         attrs=lambda name, plan, *a, **k: {"technique": name,
                                            "module": plan.module.name},
         after=lambda r, *a, **k: {"billed_pct": 100.0 * r.overhead})
    _install_cache(tracer)
    wrap("repro.engine.parallel:ParallelRunner.run", "engine.dispatch",
         attrs=lambda runner, tasks, *a, **k: {
             "task": getattr(tasks[0], "name", "") if tasks else ""})
    wrap("repro.service.api:ProfileJob.run", "service.job",
         attrs=lambda job, *a, **k: {"task": job.name,
                                     "kind": job.request.kind})
    wrap("repro.service.service:ProfilingService._process",
         "service.process",
         attrs=lambda svc, entry, *a, **k: {
             "request": entry.request.request_id})
    wrap("repro.engine.session:ProfilingSession.run_suite",
         "harness.study", attrs=lambda *a, **k: {"experiment": "run_suite"})
    for renderer, experiment in RENDERERS.items():
        wrap(f"repro.harness.__main__:{renderer}", "harness.study",
             attrs=lambda *a, _e=experiment, **k: {"experiment": _e})
    if sessions is not None:
        wrap("repro.harness.__main__:build_session", "harness.session",
             after=lambda r, *a, **k: sessions.append(r) or {})


def _install_cache(tracer: Tracer) -> None:
    """``get_or_compute`` spans carry the time spent in ``compute`` so
    the cache's own cost (probe, pickle, disk) is span minus compute."""
    from repro.engine.cache import ArtifactCache

    original = ArtifactCache.get_or_compute
    tracer.originals["repro.engine.cache:ArtifactCache.get_or_compute"] = \
        original

    def get_or_compute(cache: Any, kind: str, key: str,
                       compute: Callable[[], object]) -> object:
        inner = [0.0]

        def timed() -> object:
            start = time.perf_counter()
            try:
                return compute()
            finally:
                inner[0] += time.perf_counter() - start

        return tracer.call("engine.cache", original,
                           (cache, kind, key, timed), {},
                           attrs=lambda *a: {"kind": kind},
                           after=lambda *a: {"compute_s": inner[0]})

    ArtifactCache.get_or_compute = get_or_compute  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Deriving metrics from spans
# ----------------------------------------------------------------------

def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts over one set of spans (times are
    outermost-per-name, so nesting and recursion count once)."""
    out: dict[str, float] = {
        "lang.compile_s": total_s(spans, "lang.compile"),
        "opt.expand_s": total_s(spans, "opt.expand"),
        "opt.expanded_instrs": float(sum(
            s.get("instrs", 0) for s in outermost(spans, "opt.expand"))),
        "interp.codegen_calls": float(sum(
            1 for s in spans if s["name"] == "interp.generate")),
        "core.plan_s": total_s(spans, "core.plan"),
        "core.plans": float(len(outermost(spans, "core.plan"))),
        "core.static_ops": float(sum(
            s.get("static_ops", 0) for s in outermost(spans, "core.plan"))),
        "profilers.execute_s": total_s(spans, "profilers.execute"),
        "profiles.score_s": total_s(spans, "profiles.score"),
        "engine.fingerprint_s": total_s(spans, "engine.fingerprint"),
    }
    # Code generation: a codegen-cache fill that generated (source plus
    # compile()), or source generation called directly (the validator).
    fills = {(s["pid"], s["id"]): s for s in spans
             if s["name"] == "interp.codegen"}
    codegen_s = 0.0
    for span in spans:
        if span["name"] != "interp.generate":
            continue
        fill = fills.pop((span["pid"], span["parent"]), None)
        codegen_s += (fill or span)["t1"] - (fill or span)["t0"]
    out["interp.codegen_s"] = codegen_s
    runs = outermost(spans, "interp.run")
    for mode in MODES:
        chosen = [s for s in runs if s.get("mode") == mode]
        seconds = sum(s["t1"] - s["t0"] for s in chosen)
        instrs = sum(s.get("instrs", 0) for s in chosen)
        out[f"interp.run_s.{mode}"] = seconds
        out[f"interp.mops.{mode}"] = instrs / seconds / 1e6 if seconds \
            else 0.0
    reports = errors = 0
    for name in ANALYSIS:
        out[f"analysis.{name}_s"] = total_s(spans, f"analysis.{name}")
        for span in spans:
            if span["name"] == f"analysis.{name}":
                reports += span.get("reports", 0)
                errors += span.get("errors", 0)
    out["analysis.reports"] = float(reports)
    out["analysis.errors"] = float(errors)
    return out


def cache_metrics(spans: list[Span], stats: Any, phase: str
                  ) -> dict[str, float]:
    """One pass's cache counters (from the session) and self time."""
    lookups = stats.hits + stats.misses
    return {
        f"engine.cache.hits.{phase}": float(stats.hits),
        f"engine.cache.misses.{phase}": float(stats.misses),
        f"engine.cache.disk_hits.{phase}": float(stats.disk_hits),
        f"engine.cache.hit_ratio.{phase}": (stats.hits / lookups
                                            if lookups else 0.0),
        f"engine.cache.self_s.{phase}": sum(
            (s["t1"] - s["t0"]) - s.get("compute_s", 0.0)
            for s in spans if s["name"] == "engine.cache"),
    }


def study_metrics(spans: list[Span], phase: str) -> dict[str, float]:
    out = {f"harness.study_s.{e}.{phase}": 0.0 for e in EXPERIMENTS}
    for span in outermost(spans, "harness.study"):
        key = f"harness.study_s.{span['experiment']}.{phase}"
        out[key] += span["t1"] - span["t0"]
    return out


def technique_runs(spans: list[Span]) -> dict[str, dict[str, float]]:
    """The suite run's instrumented execution per (benchmark, technique):
    billed overhead and the instrumented ``Machine.run`` wall time
    without the code generation inside it."""
    children: dict[tuple[int, Optional[int]], list[Span]] = {}
    for span in spans:
        children.setdefault((span["pid"], span["parent"]), []).append(span)

    def descendants(span: Span) -> list[Span]:
        out, todo = [], [span]
        while todo:
            node = todo.pop()
            kids = children.get((node["pid"], node["id"]), [])
            out += kids
            todo += kids
        return out

    found: dict[str, dict[str, float]] = {}
    for span in outermost(spans, "engine.technique"):
        key = f"{span['module']}/{span['technique']}"
        if span["technique"] not in TECHNIQUES or key in found:
            continue
        below = descendants(span)
        runs = [s for s in below if s["name"] == "interp.run"
                and s.get("mode") == "instrumented"]
        if not runs:  # the plan placed no probe: nothing to time
            continue
        run_s = sum(s["t1"] - s["t0"] for s in runs)
        generated = {(s["pid"], s["parent"]) for s in below
                     if s["name"] == "interp.generate"}
        codegen_s = sum(s["t1"] - s["t0"] for s in below
                        if s["name"] == "interp.codegen"
                        and (s["pid"], s["id"]) in generated)
        found[key] = {"billed_pct": span.get("billed_pct", 0.0),
                      "run_s": max(0.0, run_s - codegen_s)}
    return found


def overhead_metrics(runs: dict[str, dict[str, float]],
                     plain_s: dict[str, float]) -> dict[str, float]:
    """Mean billed and wall overhead per technique over the benchmarks."""
    out: dict[str, float] = {}
    for tech in TECHNIQUES:
        billed, wall = [], []
        for bench, base in plain_s.items():
            run = runs.get(f"{bench}/{tech}")
            if run is None or base <= 0:
                continue
            billed.append(run["billed_pct"])
            wall.append(100.0 * (run["run_s"] - base) / base)
        out[f"profilers.billed_pct.{tech}"] = (sum(billed) / len(billed)
                                               if billed else 0.0)
        out[f"profilers.wall_pct.{tech}"] = (sum(wall) / len(wall)
                                             if wall else 0.0)
    return out


def service_metrics(spans: list[Span], submitted: dict[str, float]
                    ) -> dict[str, float]:
    """Queueing, dispatch and pool split of the service's requests."""
    first_process: dict[str, float] = {}
    for span in spans:
        if span["name"] == "service.process":
            rid = span["request"]
            first_process[rid] = min(first_process.get(rid, span["t0"]),
                                     span["t0"])
    waits = [1000.0 * (first_process[r] - t) for r, t in submitted.items()
             if r in first_process]
    dispatch: dict[str, float] = {}
    for span in spans:
        if span["name"] == "engine.dispatch" and span.get("task"):
            dispatch[span["task"]] = 1000.0 * (span["t1"] - span["t0"])
    jobs: dict[str, float] = {}
    remaps: list[float] = []
    for span in spans:
        if span["name"] == "service.job":
            jobs[span["task"]] = 1000.0 * (span["t1"] - span["t0"])
            if span.get("kind") == "remap":
                remaps.append(jobs[span["task"]])
    split = [dispatch[t] - jobs[t] for t in dispatch if t in jobs]
    return {
        "service.queue_wait_ms": median(waits),
        "service.dispatch_ms": median(list(dispatch.values())),
        "service.job_ms": median(list(jobs.values())),
        "service.pool_overhead_ms": median(split),
        "service.remap_ms": median(remaps),
    }


def coverage_pct(spans: list[Span], start: float, end: float, pid: int,
                 containers: tuple[str, ...] = ("harness.study",)) -> float:
    """Share of ``[start, end]`` spent inside layer spans of ``pid``."""
    from tracer import covered_s

    if end <= start:
        return 0.0
    inner = [s for s in spans if s["name"] not in containers]
    return 100.0 * covered_s(inner, start, end, pid) / (end - start)
