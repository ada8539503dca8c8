#!/usr/bin/env python
"""CI chaos gate for the continuous profiling service: zero losses.

Drives the same multi-tenant request schedule through an in-process
:class:`repro.service.ProfilingService` three times:

1. a **fault-free baseline**, recording every fresh response's profile
   payload;
2. a **seeded chaos run** under a service-scoped
   :class:`repro.engine.faults.FaultPlan` that kills a pool worker
   mid-job, stalls another past the service's task timeout, drops a
   dispatch outright, and latently corrupts a write-ahead journal
   record; and
3. a **crash-replay run** that starts a fresh service on a journal
   holding accepted-but-unanswered requests.

Asserted invariants (the PR's acceptance bar):

* every accepted request completes -- fresh, retried, or degraded to a
  conservation-repaired stale remap; none is lost or left hanging;
* every degraded response carries an explicit ``stale-remap``
  :class:`~repro.engine.faults.DegradationEvent`;
* wherever fresh profiling succeeded, the profile payload is
  **byte-identical** to the fault-free baseline's;
* the injected faults actually fired (drop + timeout + worker-crash
  failures in the execution records, exactly one corrupt journal
  record) and the journal shows zero lost entries: every readable
  ``accept`` has a matching ``done``;
* the replay run re-admits and answers every journaled request,
  flagging each response ``journal-recovered``.

A metrics snapshot is written as a JSON artifact for CI.

Usage::

    python scripts/service_chaos.py
    python scripts/service_chaos.py --out results/service_chaos.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.engine import faults  # noqa: E402
from repro.service import (ProfileRequest, ProfilingService,  # noqa: E402
                           ServiceResponse, WriteAheadJournal)

# Ordinals are admission order, so with the sequential schedule below:
# journal-corrupt=0 scrambles request r0's accept record (latently),
# kill-job=1 crashes r1's pool worker, drop-request=2 loses r2's
# first dispatch, stall-job=3:2.0 stalls r3 past the 0.75s timeout.
CHAOS_SPEC = ("seed=7,journal-corrupt=0,kill-job=1,drop-request=2,"
              "stall-job=3:2.0")

# (request_id, tenant, workload) -- two tenants, three workloads, plus a
# deliberately impossible deadline that must degrade to a stale remap.
SCHEDULE = [
    ("r0", "acme", "mcf"),
    ("r1", "beta", "bzip2"),
    ("r2", "acme", "twolf"),
    ("r3", "beta", "bzip2"),
    ("r4", "acme", "mcf"),
    ("r5", "beta", "twolf"),
]
RUSHED = ("r6", "acme", "mcf")  # same tenant+key as r0/r4 -> stale hit


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


async def drive(journal: Path | None,
                jobs: int) -> tuple[ProfilingService,
                                    dict[str, ServiceResponse]]:
    """Run the schedule sequentially (deterministic admission ordinals)."""
    service = ProfilingService(
        jobs=jobs, shards=2, retries=3, backoff_s=0.05,
        task_timeout=0.75, breaker_reset_s=0.5,
        journal_path=journal, seed=7)
    await service.start()
    responses: dict[str, ServiceResponse] = {}
    for request_id, tenant, workload in SCHEDULE:
        responses[request_id] = await service.request(ProfileRequest(
            tenant=tenant, workload=workload, request_id=request_id))
    request_id, tenant, workload = RUSHED
    responses[request_id] = await service.request(ProfileRequest(
        tenant=tenant, workload=workload, request_id=request_id,
        deadline_s=0.001))
    await service.stop()
    return service, responses


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


async def replay_leg(journal: Path) -> int:
    """Start a service on a journal of unanswered accepts; all must run."""
    pending = [ProfileRequest(tenant="acme", workload="mcf",
                              request_id="lost0"),
               ProfileRequest(tenant="beta", workload="twolf",
                              request_id="lost1")]
    writer = WriteAheadJournal(journal)
    for request in pending:
        writer.accept(request.request_id, {"request": request})
    writer.close()

    recovered: list[ServiceResponse] = []
    service = ProfilingService(jobs=1, shards=2, journal_path=journal,
                               on_response=recovered.append)
    await service.start()
    if service.metrics.journal_replayed != len(pending):
        return fail(f"replayed {service.metrics.journal_replayed} of "
                    f"{len(pending)} journaled requests")
    await service.stop()  # drains the replayed work
    if len(recovered) != len(pending):
        return fail(f"replay answered {len(recovered)} of {len(pending)}")
    for response in recovered:
        if response.status != "fresh":
            return fail(f"replayed {response.request_id} ended "
                        f"{response.status}: {response.error}")
        kinds = [d.kind for d in response.execution.degradations]
        if "journal-recovered" not in kinds:
            return fail(f"replayed {response.request_id} response is not "
                        f"flagged journal-recovered (got {kinds})")
    scan = WriteAheadJournal.scan(journal)
    if scan.pending():
        return fail("journal still shows pending work after replay")
    print(f"replay: {len(recovered)} journaled requests re-admitted, "
          f"answered fresh, flagged journal-recovered")
    return 0


async def main_async(out: Path, jobs: int) -> int:
    with tempfile.TemporaryDirectory(prefix="service-chaos-") as tmp:
        tmp_path = Path(tmp)

        faults.install_plan(None)
        print("baseline: fault-free run")
        _svc, baseline = await drive(tmp_path / "baseline.journal", jobs)
        if bad := [r for r in baseline.values()
                   if r.request_id != "r6" and r.status != "fresh"]:
            return fail(f"baseline not fresh: "
                        f"{[(r.request_id, r.error) for r in bad]}")

        plan = faults.FaultPlan.from_spec(CHAOS_SPEC)
        faults.install_plan(plan)
        print(f"chaos: {CHAOS_SPEC}")
        chaos_journal = tmp_path / "chaos.journal"
        try:
            service, responses = await drive(chaos_journal, jobs)
        finally:
            faults.install_plan(None)

        # 1. Every accepted request completed; none failed outright.
        if len(responses) != len(SCHEDULE) + 1:
            return fail("not every request was answered")
        if bad := [r for r in responses.values() if r.status == "failed"]:
            return fail(f"requests failed under chaos: "
                        f"{[(r.request_id, r.error) for r in bad]}")

        # 2. Degraded responses are explicitly flagged.
        degraded = [r for r in responses.values() if r.status == "degraded"]
        for response in degraded:
            if (response.degradation is None
                    or response.degradation.kind != "stale-remap"):
                return fail(f"degraded {response.request_id} lacks a "
                            f"stale-remap DegradationEvent")
        if not any(r.request_id == "r6" for r in degraded):
            return fail("the impossible-deadline request was not degraded")

        # 3. Fresh payloads are byte-identical to the fault-free run.
        fresh = [r for r in responses.values() if r.status == "fresh"]
        for response in fresh:
            want = canonical(baseline[response.request_id].payload)
            got = canonical(response.payload)
            if want != got:
                return fail(f"chaos changed {response.request_id}'s "
                            f"fresh payload")

        # 4. The faults actually fired.
        kinds = {f.kind for r in responses.values()
                 for f in r.execution.failures}
        for expected in ("drop", "worker-crash", "timeout"):
            if expected not in kinds:
                return fail(f"no {expected!r} failure was recorded; that "
                            f"fault never fired (saw {sorted(kinds)})")

        # 5. Zero lost journal entries: exactly one corrupt record (the
        # injected one) and every readable accept has a done.
        scan = WriteAheadJournal.scan(chaos_journal)
        if scan.corrupt != 1:
            return fail(f"expected exactly 1 corrupt journal record, "
                        f"found {scan.corrupt}")
        if pending := scan.pending():
            return fail(f"journal lost {len(pending)} accepted requests: "
                        f"{[doc.get('id') for doc in pending]}")

        snapshot = service.metrics_snapshot()
        tenants = snapshot["tenants"]
        print(f"chaos: {len(fresh)} fresh (payloads byte-identical), "
              f"{len(degraded)} degraded (all flagged), 0 failed; "
              f"failure kinds seen: {sorted(kinds)}")
        print(f"chaos journal: {snapshot['journal']['appends']} appends, "
              f"1 corrupt (injected), 0 pending")
        for name in sorted(tenants):
            t = tenants[name]
            print(f"  tenant {name}: accepted={t['accepted']} "
                  f"fresh={t['fresh']} degraded={t['degraded']} "
                  f"retries={t['retries']}")

        # 6. Crash replay: journaled-but-unanswered work is re-run.
        if code := await replay_leg(tmp_path / "replay.journal"):
            return code

        out.parent.mkdir(parents=True, exist_ok=True)
        snapshot["chaos_spec"] = CHAOS_SPEC
        snapshot["responses"] = {r.request_id: r.status
                                 for r in responses.values()}
        out.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
        print(f"metrics snapshot written to {out}")

    print("service chaos check passed: 100% of accepted requests "
          "completed, zero journal losses, fresh payloads byte-identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO / "results" / "service_chaos.json",
                        help="metrics snapshot artifact path")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes in the service's pool "
                             "(default 2)")
    args = parser.parse_args()
    return asyncio.run(main_async(args.out, args.jobs))


if __name__ == "__main__":
    sys.exit(main())
