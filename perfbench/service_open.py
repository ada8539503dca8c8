"""Workload ``service-open``: an open loop against the in-process
:class:`repro.service.ProfilingService`.

Two tenants send requests at ``RATE`` per second, at least
``MIN_REQUESTS`` of them and more for a longer ``--seconds``.  80% are
``profile`` requests over the suite's workloads, each workload getting
one first request ("cold": it traces the workload and writes the trace
to the service's disk cache) and the same number of later ones
("warm": they read that trace).  The rest are ``remap`` requests: each
carries a sketch-embedded saved profile of a drawn workload's
unexpanded build and targets a seeded edit of that build
(``harness.matching_study.seeded_edit``), so it runs match and transfer
instead of the interpreter.  The seed orders the requests and picks
tenants and arrival gaps; the mix is the same in every run.

The service runs 2 dispatcher shards; each dispatch gets a supervised
pool with one worker process (``jobs=2`` caps the pool at the batch
size, 1).  Latency is measured from when a request was due, so a late
generator or a queue counts against it.  Every request must come back
fresh; a profile payload must equal the tuple-backend oracle and a remap
payload must be flow-conserved.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import layers
from common import (BenchError, canonical_digest, median, percentile,
                    remove_dir, work_dir)
from tracer import Tracer

RATE = 3.0            # requests per second
MIN_REQUESTS = 100    # so the p90 has at least 10 samples beyond it
REMAP_SHARE = 0.2
TENANTS = ("acme", "beta")
P90_LIMIT_MS = 2000.0
SETUPS = 3
DRAIN_TIMEOUT_S = 60.0
WARM_GAP = 3          # profile requests between a trace and its reuse


@dataclass
class Sent:
    request: Any
    due: float
    workload: str
    group: str  # "cold" (first trace of a workload), "warm", or "remap"
    sent: float = 0.0
    done: float = 0.0
    response: Any = None
    error: str = ""


@dataclass
class Loop:
    sent: list[Sent] = field(default_factory=list)
    late_max_s: float = 0.0
    snapshot: dict = field(default_factory=dict)

    def latencies_ms(self, group: Optional[str] = None) -> list[float]:
        return [1000.0 * (s.done - s.due) for s in self.sent
                if s.response is not None
                and (group is None or s.group == group)]


def _remap_inputs(benchmarks: list[str], seed: int) -> dict[str, tuple]:
    """Per drawn workload: (saved profile with sketch, edited target)."""
    from repro.engine.stages import ground_truth
    from repro.harness.matching_study import seeded_edit
    from repro.profiles import edge_profile_to_dict
    from repro.workloads import get_workload

    out = {}
    for name in benchmarks:
        module = get_workload(name).compile()
        _paths, profile, _rv = ground_truth(module)
        saved = edge_profile_to_dict(profile, embed_sketch=True)
        out[name] = (saved, seeded_edit(module, seed=seed + 1))
    return out


def _schedule(seed: int, workloads: list[str], warm_each: int,
              remaps: dict[str, tuple]) -> list[Sent]:
    """Every workload gets one cold and ``warm_each`` warm profile
    requests, and remaps make up ``REMAP_SHARE`` of the whole: the seed
    changes order, tenants and arrival times, never the mix."""
    from repro.service import ProfileRequest

    rng = random.Random(seed)
    profiles = len(workloads) * (1 + warm_each)
    count = profiles + round(profiles * REMAP_SHARE / (1 - REMAP_SHARE))
    remap_at = set(rng.sample(range(count), count - profiles))
    names = _profile_names(rng, workloads, warm_each)
    drawn = _rounds(rng, sorted(remaps), count)
    # Poisson arrivals with stratified gaps: the gaps are the quantiles
    # of the exponential distribution in seeded order, so every run has
    # the same gaps and length and only their order varies.
    gaps = [-math.log(1 - (i + 0.5) / count) / RATE for i in range(count)]
    rng.shuffle(gaps)
    out: list[Sent] = []
    due = 0.0
    for i in range(count):
        due += gaps[i]
        tenant = rng.choice(TENANTS)
        rid = f"r{i}"
        if i in remap_at:
            name = drawn.pop()
            saved, target = remaps[name]
            request = ProfileRequest(tenant=tenant, module=target,
                                     kind="remap", stale_profile=saved,
                                     label=f"remap:{name}", request_id=rid)
            out.append(Sent(request, due, name, "remap"))
        else:
            name, group = names.pop()
            request = ProfileRequest(tenant=tenant, workload=name,
                                     request_id=rid)
            out.append(Sent(request, due, name, group))
    return out


def _profile_names(rng: random.Random, workloads: list[str],
                   warm_each: int) -> list[tuple[str, str]]:
    """(workload, group) of each profile request, popped from the end.

    A workload's first request ("cold") traces it.  First requests are
    spread evenly over the run, not bunched at its start where they
    would queue behind each other, and end early enough to leave room
    for their warm requests.  A warm request goes to a workload first
    requested at least ``WARM_GAP`` requests earlier (so its trace is
    on disk) that is short of ``warm_each`` warm requests, least-used
    first.
    """
    unseen = rng.sample(workloads, len(workloads))
    count = len(workloads) * (1 + warm_each)
    firsts = {j * count // (len(workloads) + 1)
              for j in range(len(workloads))}
    introduced: dict[str, int] = {}
    uses: dict[str, int] = {}
    out: list[tuple[str, str]] = []
    for k in range(count):
        ready = [n for n, at in introduced.items()
                 if at <= k - WARM_GAP and uses[n] <= warm_each]
        if unseen and (k in firsts or not ready):
            name = unseen.pop()
            introduced[name] = k
            out.append((name, "cold"))
        else:
            ready = ready or list(introduced)
            least = min(uses[n] for n in ready)
            name = rng.choice([n for n in ready if uses[n] == least])
            out.append((name, "warm"))
        uses[name] = uses.get(name, 0) + 1
    return out[::-1]


def _rounds(rng: random.Random, names: list[str], count: int) -> list[str]:
    """``count`` names as consecutive shuffled rounds, popped from the
    end."""
    out: list[str] = []
    while len(out) < count:
        out += rng.sample(names, len(names))
    return out[:count][::-1]


def _service(cache_dir: str, seed: int):
    from repro.service import ProfilingService

    return ProfilingService(jobs=2, shards=2, queue_capacity=256,
                            tenant_quota=128, cache_dir=cache_dir,
                            seed=seed)


async def _drive(service: Any, schedule: list[Sent]) -> Loop:
    from repro.service import AdmissionError, ServiceError

    loop = Loop(sent=schedule)
    futures = []
    start = time.perf_counter()
    for item in schedule:
        item.due += start
        delay = item.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        item.sent = time.perf_counter()
        loop.late_max_s = max(loop.late_max_s, item.sent - item.due)
        try:
            future = await service.submit(item.request)
        except (AdmissionError, ServiceError) as exc:
            item.error = f"refused: {exc}"
            continue

        def finished(_f: Any, item: Sent = item) -> None:
            item.done = time.perf_counter()

        future.add_done_callback(finished)
        futures.append((item, future))
    done, pending = await asyncio.wait([f for _i, f in futures],
                                       timeout=DRAIN_TIMEOUT_S)
    for item, future in futures:
        if future in done:
            item.response = future.result()
        else:
            item.error = "no response within the drain timeout"
    await service.stop(drain=not pending)
    loop.snapshot = service.metrics_snapshot()
    return loop


def _check(loop: Loop, expected: dict[str, str]) -> tuple[int, list[str]]:
    from repro.analysis.transfer import conservation_violations

    failed, lines = 0, []
    for item in loop.sent:
        response = item.response
        problem = item.error
        if not problem and response.status != "fresh":
            problem = f"{response.status}: {response.error}"
        elif not problem and item.request.kind == "profile":
            if canonical_digest(response.payload) != expected[item.workload]:
                problem = "payload differs from the tuple-backend oracle"
        elif not problem:
            broken = [name for name, fp in response.profile.functions.items()
                      if conservation_violations(fp)]
            if broken:
                problem = f"remapped profile not conserved in {broken}"
        if problem:
            failed += 1
            lines.append(f"service-open: {item.request.request_id} "
                         f"({item.workload}): {problem}")
    return failed, lines


def run(benchmarks: list[str], expected: dict[str, str], seed: int,
        seconds: float, trace: bool, smoke: bool = False
        ) -> tuple[int, int, dict[str, float], list[str]]:
    from repro.workloads import SUITE

    workloads = [w.name for w in SUITE]
    if smoke:  # 2 workloads x (1 cold + 3 warm) + 2 remaps
        workloads, warm_each = workloads[:2], 3
    else:
        profiles = max(MIN_REQUESTS, RATE * seconds) * (1 - REMAP_SHARE)
        warm_each = math.ceil(profiles / len(workloads)) - 1
    work = work_dir("service-")
    try:
        return asyncio.run(_run(benchmarks, expected, seed, workloads,
                                warm_each, trace, work))
    finally:
        remove_dir(work)


async def _run(benchmarks: list[str], expected: dict[str, str], seed: int,
               workloads: list[str], warm_each: int, trace: bool, work: Any
               ) -> tuple[int, int, dict[str, float], list[str]]:
    setups = []
    for i in range(SETUPS):
        start = time.perf_counter()
        remaps = _remap_inputs(benchmarks, seed)
        service = _service(str(work / f"cache{i}"), seed)
        await service.start()
        setups.append(time.perf_counter() - start)
        if i < SETUPS - 1:
            await service.stop()
    plain = await _drive(service,
                         _schedule(seed, workloads, warm_each, remaps))
    failed, lines = _check(plain, expected)
    attempted = len(plain.sent)
    all_ms = plain.latencies_ms()
    groups = {g: plain.latencies_ms(g) for g in ("cold", "warm", "remap")}
    lines.append(
        f"service-open: {attempted} requests at {RATE}/s; p50 "
        f"{percentile(all_ms, 50):.1f} ms, p90 {percentile(all_ms, 90):.1f} "
        f"ms (limit {P90_LIMIT_MS:.0f} ms); generator at most "
        f"{plain.late_max_s * 1000:.1f} ms late")
    lines += [f"service-open: {len(ms)} {g} requests, median "
              f"{median(ms):.1f} ms" for g, ms in groups.items()]
    if not trace:
        return attempted, failed, {
            "setup_s": median(setups),
            "cold_s": median(groups["cold"]) / 1000.0,
            "warm_s": median(groups["warm"]) / 1000.0,
        }, lines

    spill = work / "spans"
    spill.mkdir()
    tracer = Tracer(spill_dir=spill)
    layers.install(tracer)
    service = _service(str(work / "traced-cache"), seed)
    await service.start()
    traced = await _drive(service,
                          _schedule(seed, workloads, warm_each, remaps))
    more_failed, more_lines = _check(traced, expected)
    spans = tracer.collect()
    submitted = {s.request.request_id: s.sent for s in traced.sent}
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    metrics.update({k: v for k, v in layers.layer_metrics(spans).items()})
    metrics.update(layers.service_metrics(spans, submitted))
    tenants = traced.snapshot.get("tenants", {}).values()
    for counter in ("fresh", "rejected", "retries"):
        metrics[f"service.{counter}"] = float(sum(t[counter]
                                                  for t in tenants))
    metrics["loadgen.late_max_ms"] = 1000.0 * traced.late_max_s
    metrics["loadgen.latency_p50_ms"] = percentile(all_ms, 50)
    metrics["loadgen.latency_p90_ms"] = percentile(all_ms, 90)
    untraced_p50 = percentile(all_ms, 50)
    metrics["trace.overhead_pct"] = 100.0 * (
        percentile(traced.latencies_ms(), 50) - untraced_p50) / untraced_p50
    metrics["trace.coverage_pct"] = _coverage(traced, spans)
    return (attempted + len(traced.sent), failed + more_failed, metrics,
            lines + more_lines)


def _coverage(loop: Loop, spans: list) -> float:
    """Share of request latency inside the request's dispatch spans."""
    dispatch: dict[str, float] = {}
    for span in spans:
        if span["name"] == "engine.dispatch":
            dispatch[span["task"]] = dispatch.get(span["task"], 0.0) + (
                span["t1"] - span["t0"])
    covered = total = 0.0
    for item in loop.sent:
        if item.response is None:
            continue
        total += item.done - item.due
        covered += dispatch.get(
            f"{item.request.tenant}:{item.request.request_id}", 0.0)
    if not total:
        raise BenchError("no request completed")
    return 100.0 * covered / total
