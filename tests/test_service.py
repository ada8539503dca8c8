"""Tests for the continuous profiling service (``repro.service``).

The service is exercised in-process -- no sockets except in the server
tests -- with a stub executor standing in for the worker pool, so the
admission / breaker / journal / degrade control flow is what's under
test and runs for real.  One fresh ground-truth profile of a tiny
module is shared by the whole file; the stub hands it back instantly.
"""

import asyncio
import json
import multiprocessing
import time

import pytest

from repro.engine import faults, fingerprint_module
from repro.engine.faults import FaultPlan
from repro.engine.results import ExecutionRecord
from repro.harness import ground_truth
from repro.lang import compile_source
from repro.profiles import edge_profile_to_dict
from repro.service import (AdmissionError, AdmissionLimits, AdmissionQueue,
                           CircuitBreaker, JobOutcome, ProfileRequest,
                           ProfilingServer, ProfilingService, ServiceError,
                           WriteAheadJournal)
from repro.service.service import BREAKER_THRESHOLD

SOURCE = """
    func main() { s = 0;
        for (i = 0; i < 8; i = i + 1) {
            if (i % 2 == 0) { s = s + 2; } else { s = s + 1; }
        }
        return s; }"""

EDITED_SOURCE = """
    func main() { s = 0;
        for (i = 0; i < 8; i = i + 1) {
            if (i % 2 == 0) { s = s + 2; } else { s = s + 1; }
        }
        if (s > 10) { s = s - 1; }
        return s; }"""


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_plan()
    faults.drain_degradations()
    faults._write_counts.clear()
    yield
    faults.clear_plan()
    faults.drain_degradations()
    faults._write_counts.clear()


@pytest.fixture(scope="module")
def corpus():
    module = compile_source(SOURCE, name="svc-test")
    actual, profile, rv = ground_truth(module)
    return module, actual, profile, rv


class StubExecutor:
    """Deterministic pool stand-in: fails per-request as scripted."""

    def __init__(self, corpus, fail_first_for=(), always_fail=False,
                 delay_s=0.0):
        self.corpus = corpus
        self.fail_first_for = set(fail_first_for)
        self.always_fail = always_fail
        self.delay_s = delay_s
        self.calls = []

    def __call__(self, job) -> JobOutcome:
        self.calls.append(job.request.request_id)
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.always_fail:
            raise RuntimeError("pool is on fire")
        if (job.request.request_id in self.fail_first_for
                and self.calls.count(job.request.request_id) == 1):
            raise RuntimeError("transient pool failure")
        module, actual, profile, rv = self.corpus
        return JobOutcome(
            request_id=job.request.request_id, tenant=job.request.tenant,
            kind=job.request.kind,
            payload=edge_profile_to_dict(profile),
            overhead=0.04, accuracy=0.99, return_value=rv,
            module=module, profile=profile, paths=actual,
            execution=ExecutionRecord(attempts=1, where="pool"))


def make_service(corpus, **kwargs):
    kwargs.setdefault("executor", StubExecutor(corpus))
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("backoff_s", 0.01)
    return ProfilingService(**kwargs)


def svc_request(module, **kwargs):
    kwargs.setdefault("tenant", "acme")
    kwargs.setdefault("label", "lib")
    return ProfileRequest(module=module, **kwargs)


class TestRequestValidation:
    def test_needs_tenant_and_exactly_one_target(self):
        with pytest.raises(ServiceError, match="tenant"):
            ProfileRequest(tenant="", workload="mcf").validate()
        with pytest.raises(ServiceError, match="exactly one"):
            ProfileRequest(tenant="t").validate()
        with pytest.raises(ServiceError, match="exactly one"):
            ProfileRequest(tenant="t", workload="mcf",
                           source="func main() { return 0; }").validate()

    def test_rejects_bad_technique_kind_and_deadline(self):
        with pytest.raises(ServiceError, match="technique"):
            ProfileRequest(tenant="t", workload="mcf",
                           technique="magic").validate()
        with pytest.raises(ServiceError, match="kind"):
            ProfileRequest(tenant="t", workload="mcf",
                           kind="delete").validate()
        with pytest.raises(ServiceError, match="stale_profile"):
            ProfileRequest(tenant="t", workload="mcf",
                           kind="remap").validate()
        with pytest.raises(ServiceError, match="deadline"):
            ProfileRequest(tenant="t", workload="mcf",
                           deadline_s=0.0).validate()

    def test_key_and_id_assignment(self):
        assert ProfileRequest(tenant="t", workload="mcf").key == "mcf"
        assert ProfileRequest(tenant="t", workload="mcf",
                              label="pinned").key == "pinned"
        assert ProfileRequest(tenant="t", source="x").key == "source"
        assigned = ProfileRequest(tenant="t", workload="mcf").with_id()
        assert assigned.request_id
        pinned = ProfileRequest(tenant="t", workload="mcf",
                                request_id="r1").with_id()
        assert pinned.request_id == "r1"


class TestAdmissionQueue:
    def test_capacity_and_quota_backpressure(self):
        queue = AdmissionQueue(AdmissionLimits(capacity=3, tenant_quota=2))
        queue.admit("a")
        queue.admit("a")
        with pytest.raises(AdmissionError) as info:
            queue.admit("a")  # tenant quota, capacity still free
        assert info.value.reason == "tenant-quota"
        assert info.value.retry_after_s > 0
        queue.admit("b")
        with pytest.raises(AdmissionError) as info:
            queue.admit("c")  # total capacity
        assert info.value.reason == "capacity"
        assert queue.rejected == 2 and queue.admitted == 3

    def test_release_frees_both_limits(self):
        queue = AdmissionQueue(AdmissionLimits(capacity=1, tenant_quota=1))
        queue.admit("a")
        queue.release("a")
        queue.admit("a")  # does not raise
        assert queue.outstanding() == 1

    def test_pop_orders_by_ready_time(self):
        async def scenario():
            queue = AdmissionQueue()
            now = time.monotonic()
            await queue.push("later", ready_at=now + 0.1)
            await queue.push("now", ready_at=0.0)
            assert await queue.pop() == "now"
            assert await queue.pop() == "later"  # waits ~0.1s
        asyncio.run(scenario())


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        clock = [0.0]
        breaker = CircuitBreaker(fail_threshold=2, reset_after_s=5.0,
                                 clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1
        assert breaker.retry_after() == pytest.approx(5.0)
        clock[0] = 5.0
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # second caller waits on the probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(fail_threshold=1, reset_after_s=2.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 2.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 2
        clock[0] = 3.9
        assert not breaker.allow()
        clock[0] = 4.0
        assert breaker.allow()


class TestJournal:
    def test_round_trip_and_pending(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = WriteAheadJournal(path)
        journal.accept("r1", {"tenant": "a"})
        journal.accept("r2", {"tenant": "b"})
        journal.done("r1", "fresh")
        journal.close()
        scan = WriteAheadJournal.scan(path)
        assert [r.kind for r in scan.records] == ["accept", "accept",
                                                  "done"]
        assert scan.corrupt == 0 and scan.torn == 0
        assert [doc["id"] for doc in scan.pending()] == ["r2"]

    def test_corrupt_record_is_counted_and_skipped(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = WriteAheadJournal(path)
        journal.accept("r1", {"n": 1})
        first_len = path.stat().st_size
        journal.accept("r2", {"n": 2})
        journal.close()
        data = bytearray(path.read_bytes())
        data[first_len - 3] ^= 0xFF  # flip a byte inside r1's payload
        path.write_bytes(bytes(data))
        scan = WriteAheadJournal.scan(path)
        assert scan.corrupt == 1
        assert [r.doc()["id"] for r in scan.records] == ["r2"]

    def test_torn_tail_stops_cleanly(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = WriteAheadJournal(path)
        journal.accept("r1", {"n": 1})
        journal.accept("r2", {"n": 2})
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # crash mid-append
        scan = WriteAheadJournal.scan(path)
        assert scan.torn == 1 and scan.corrupt == 0
        assert [r.doc()["id"] for r in scan.records] == ["r1"]

    def test_chaos_fault_corrupts_latently(self, tmp_path):
        faults.install_plan(FaultPlan.from_spec("seed=7,journal-corrupt=0"))
        path = tmp_path / "j.bin"
        journal = WriteAheadJournal(path)
        journal.accept("r1", {"n": 1})  # scrambled after checksum
        journal.accept("r2", {"n": 2})
        journal.close()
        scan = WriteAheadJournal.scan(path)
        assert scan.corrupt == 1
        assert [r.doc()["id"] for r in scan.records] == ["r2"]

    def test_missing_file_scans_empty(self, tmp_path):
        scan = WriteAheadJournal.scan(tmp_path / "absent.bin")
        assert scan.records == [] and not scan.corrupt and not scan.torn


class TestServiceFreshPath:
    def test_fresh_response_carries_profile_and_telemetry(self, corpus):
        module, _actual, profile, rv = corpus

        async def scenario():
            async with make_service(corpus) as service:
                response = await service.request(svc_request(module))
                assert response.status == "fresh" and response.ok
                assert response.kind == "profile"
                assert response.payload == edge_profile_to_dict(profile)
                assert response.return_value == rv
                assert response.attempts == 1
                assert response.profile is profile
                assert response.execution.where == "pool"
                snap = service.metrics_snapshot()
                assert snap["tenants"]["acme"]["fresh"] == 1
                assert snap["completed"] == 1
                doc = response.to_dict()
                json.dumps(doc)  # wire form must be JSON-able
                assert doc["status"] == "fresh"
        asyncio.run(scenario())

    def test_stream_serves_multiple_tenants(self, corpus):
        module = corpus[0]

        async def scenario():
            async with make_service(corpus) as service:
                requests = [svc_request(module, tenant=t,
                                        request_id=f"{t}{i}")
                            for t in ("acme", "beta") for i in range(3)]
                responses = [r async for r in service.stream(requests)]
                assert len(responses) == 6
                assert {r.status for r in responses} == {"fresh"}
                snap = service.metrics_snapshot()
                assert snap["tenants"]["acme"]["completed"] == 3
                assert snap["tenants"]["beta"]["completed"] == 3
        asyncio.run(scenario())

    def test_submit_rejected_when_stopped(self, corpus):
        async def scenario():
            service = make_service(corpus)
            with pytest.raises(ServiceError):
                await service.submit(svc_request(corpus[0]))
        asyncio.run(scenario())

    def test_tenant_quota_backpressure_end_to_end(self, corpus):
        module = corpus[0]

        async def scenario():
            executor = StubExecutor(corpus, delay_s=0.2)
            async with make_service(corpus, executor=executor,
                                    tenant_quota=1) as service:
                first = await service.submit(svc_request(module,
                                                         request_id="a"))
                with pytest.raises(AdmissionError) as info:
                    await service.submit(svc_request(module,
                                                     request_id="b"))
                assert info.value.retry_after_s > 0
                response = await first
                assert response.status == "fresh"
                assert service.metrics_snapshot()["rejected"] == 1
                # The slot freed: the retry now admits.
                retry = await service.request(svc_request(module,
                                                          request_id="b"))
                assert retry.status == "fresh"
        asyncio.run(scenario())


class TestRetriesAndDegradation:
    def test_transient_failure_retries_to_fresh(self, corpus):
        module = corpus[0]

        async def scenario():
            executor = StubExecutor(corpus, fail_first_for={"r1"})
            async with make_service(corpus, executor=executor,
                                    retries=2) as service:
                response = await service.request(
                    svc_request(module, request_id="r1"))
                assert response.status == "fresh"
                assert response.attempts == 2
                assert [f.kind for f in response.execution.failures] \
                    == ["exception"]
                assert service.metrics_snapshot()["retries"] == 1
        asyncio.run(scenario())

    def test_breaker_open_serves_stale_remap(self, corpus):
        module = corpus[0]

        async def scenario():
            executor = StubExecutor(corpus)
            async with make_service(corpus, executor=executor, retries=0,
                                    breaker_reset_s=60.0) as service:
                fresh = await service.request(
                    svc_request(module, request_id="seed"))
                assert fresh.status == "fresh"
                executor.always_fail = True
                for attempt in range(BREAKER_THRESHOLD):
                    broken = await service.request(
                        svc_request(module, request_id=f"broken{attempt}"))
                    assert broken.status == "degraded"
                    assert broken.degradation.kind == "stale-remap"
                assert service.breaker.state == "open"
                calls_so_far = len(executor.calls)
                # Breaker open: served from stale without touching the pool.
                shed = await service.request(
                    svc_request(module, request_id="shed"))
                assert shed.status == "degraded"
                assert len(executor.calls) == calls_so_far
                # The degraded payload is a real, conservation-repaired
                # profile for the requested module.
                assert shed.payload["functions"]["main"]["edges"]
                snap = service.metrics_snapshot()
                assert snap["tenants"]["acme"]["degraded"] == \
                    BREAKER_THRESHOLD + 1
                assert snap["breaker_trips"] == 1
        asyncio.run(scenario())

    def test_breaker_probe_recovers_service(self, corpus):
        module = corpus[0]

        async def scenario():
            executor = StubExecutor(corpus)
            async with make_service(corpus, executor=executor, retries=0,
                                    breaker_reset_s=0.05) as service:
                executor.always_fail = True
                # No stale profile yet, so each failed request fails
                # outright (never silently buffered).
                for attempt in range(BREAKER_THRESHOLD):
                    broken = await service.request(
                        svc_request(module, request_id=f"broken{attempt}"))
                    assert broken.status == "failed"
                assert service.breaker.state == "open"
                executor.always_fail = False
                await asyncio.sleep(0.06)  # past reset: half-open probe
                probe = await service.request(
                    svc_request(module, request_id="probe"))
                assert probe.status == "fresh"
                assert service.breaker.state == "closed"
        asyncio.run(scenario())

    def test_tight_deadline_degrades_to_stale(self, corpus):
        module = corpus[0]

        async def scenario():
            async with make_service(corpus,
                                    min_fresh_s=3600.0) as service:
                fresh = await service.request(
                    svc_request(module, request_id="seed"))
                assert fresh.status == "fresh"
                rushed = await service.request(
                    svc_request(module, request_id="rushed",
                                deadline_s=5.0))
                assert rushed.status == "degraded"
                assert rushed.degradation.kind == "stale-remap"
                assert "deadline-tight" in rushed.degradation.detail
        asyncio.run(scenario())

    def test_expired_deadline_without_stale_fails_explicitly(self, corpus):
        module = corpus[0]

        async def scenario():
            executor = StubExecutor(corpus, delay_s=0.1)
            async with make_service(corpus, executor=executor) as service:
                response = await service.request(
                    svc_request(module, request_id="late",
                                deadline_s=0.02))
                assert response.status == "failed"
                assert "deadline" in response.error
                snap = service.metrics_snapshot()
                assert snap["tenants"]["acme"]["deadline_misses"] == 1
        asyncio.run(scenario())

    def test_stale_remap_onto_edited_module(self, corpus):
        # The degraded answer is remapped onto the *requested* module,
        # which may differ from the one the stale profile was taken on.
        module = corpus[0]
        edited = compile_source(EDITED_SOURCE, name="svc-test-v2")

        async def scenario():
            executor = StubExecutor(corpus)
            async with make_service(corpus, executor=executor, retries=0,
                                    breaker_reset_s=60.0) as service:
                fresh = await service.request(
                    svc_request(module, request_id="seed"))
                assert fresh.status == "fresh"
                executor.always_fail = True
                moved = await service.request(
                    svc_request(edited, request_id="moved"))
                assert moved.status == "degraded"
                assert moved.profile.module is edited
                total = sum(
                    count for _src, _dst, _ordinal, count in
                    moved.payload["functions"]["main"]["edges"])
                assert total > 0
        asyncio.run(scenario())


class TestJournalReplay:
    def test_restart_replays_unanswered_accepts(self, corpus, tmp_path):
        module = corpus[0]
        path = tmp_path / "journal.bin"
        writer = WriteAheadJournal(path)
        for rid in ("lost1", "lost2"):
            writer.accept(rid, {"request": svc_request(module,
                                                       request_id=rid)})
        writer.done("lost1", "fresh")
        writer.close()

        recovered = []

        async def scenario():
            service = make_service(corpus, journal_path=path,
                                   on_response=recovered.append)
            await service.start()
            assert service.metrics.journal_replayed == 1
            await service.stop()  # drains the replayed request
        asyncio.run(scenario())
        assert [r.request_id for r in recovered] == ["lost2"]
        assert recovered[0].status == "fresh"
        assert [d.kind for d in recovered[0].execution.degradations] \
            == ["journal-recovered"]
        # The replayed run journals its own accept+done: nothing pending.
        assert not WriteAheadJournal.scan(path).pending()

    def test_corrupt_accept_is_counted_not_replayed(self, corpus,
                                                    tmp_path):
        module = corpus[0]
        path = tmp_path / "journal.bin"
        writer = WriteAheadJournal(path)
        writer.accept("gone", {"request": svc_request(module,
                                                      request_id="gone")})
        first_len = path.stat().st_size
        writer.accept("kept", {"request": svc_request(module,
                                                      request_id="kept")})
        writer.close()
        data = bytearray(path.read_bytes())
        data[first_len - 3] ^= 0xFF
        path.write_bytes(bytes(data))

        recovered = []

        async def scenario():
            service = make_service(corpus, journal_path=path,
                                   on_response=recovered.append)
            await service.start()
            await service.stop()
        asyncio.run(scenario())
        assert [r.request_id for r in recovered] == ["kept"]
        assert recovered[0].status == "fresh"

    def test_journal_records_full_lifecycle(self, corpus, tmp_path):
        module = corpus[0]
        path = tmp_path / "journal.bin"

        async def scenario():
            async with make_service(corpus,
                                    journal_path=path) as service:
                await service.request(svc_request(module,
                                                  request_id="r1"))
        asyncio.run(scenario())
        scan = WriteAheadJournal.scan(path)
        assert [r.kind for r in scan.records] == ["accept", "done"]
        assert scan.records[1].doc() == {"id": "r1", "status": "fresh"}
        assert not scan.pending()

    def test_failed_journal_append_releases_the_slot(self, corpus,
                                                     tmp_path):
        def broken_accept(request_id, doc):
            raise OSError("disk full")

        async def scenario():
            async with make_service(corpus, journal_path=tmp_path / "j",
                                    queue_capacity=1) as service:
                service._journal.accept = broken_accept
                for rid in ("a", "b"):
                    with pytest.raises(ServiceError,
                                       match="journal append failed"):
                        await service.submit(svc_request(
                            corpus[0], request_id=rid))
                assert service.readyz()["outstanding"] == 0
                assert service.metrics_snapshot()["accepted"] == 0
        asyncio.run(scenario())


class TestServicePool:
    """The service's one long-lived worker pool, for real."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every worker process started while the test runs."""
        started = []
        start = multiprocessing.Process.start

        def counting_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
        return started

    def test_one_pool_replaced_once_per_fault(self, built):
        async def run(ids):
            async with ProfilingService(jobs=2, shards=2, executor=None,
                                        task_timeout=1.5, backoff_s=0.01,
                                        seed=3) as service:
                return [await service.request(ProfileRequest(
                    tenant="acme", workload="mcf", request_id=rid))
                    for rid in ids]

        clean = asyncio.run(run(["c0", "c1", "c2"]))
        assert len(built) == 1  # one request at a time reuses one worker
        assert {r.status for r in clean} == {"fresh"}
        assert {r.execution.where for r in clean} == {"pool"}

        built.clear()
        faults.install_plan(FaultPlan.from_spec(
            "kill-job=0,stall-job=1:3.0"))
        crashed, stalled = asyncio.run(run(["k0", "s1"]))
        for response in (crashed, stalled):
            assert response.status == "fresh" and response.attempts == 2
            assert response.payload == clean[0].payload
        assert [f.kind for f in crashed.execution.failures] \
            == ["worker-crash"]
        assert [f.kind for f in stalled.execution.failures] == ["timeout"]
        assert len(built) == 3  # the first worker plus one per fault

    def test_a_timeout_replaces_one_worker_and_spares_its_peer(self):
        # r0 stalls past the task timeout while r1 runs on the other
        # worker: only r0's worker is killed and replaced, and r1 is
        # answered on its first attempt, before r0's retry.
        faults.install_plan(FaultPlan.from_spec("stall-job=0:3.0"))

        async def scenario():
            async with ProfilingService(jobs=2, shards=2, executor=None,
                                        task_timeout=1.0, backoff_s=0.01,
                                        seed=3) as service:
                stalled = await service.submit(ProfileRequest(
                    tenant="acme", workload="mcf", request_id="r0"))
                peer = await service.submit(ProfileRequest(
                    tenant="acme", workload="mcf", request_id="r1"))
                done, _ = await asyncio.wait(
                    [stalled, peer], return_when=asyncio.FIRST_COMPLETED)
                await stalled
                return done, stalled.result(), peer.result(), \
                    service._pool.replaced

        done, stalled, peer, replaced = asyncio.run(scenario())
        assert {f.result().request_id for f in done} == {"r1"}
        assert peer.status == "fresh" and peer.attempts == 1
        assert peer.execution.failures == []
        assert stalled.status == "fresh" and stalled.attempts == 2
        assert [f.kind for f in stalled.execution.failures] == ["timeout"]
        assert stalled.payload == peer.payload
        assert replaced == 1

    def test_deadline_bounded_stall_frees_the_pool(self, built):
        # No task_timeout: only the first request's deadline bounds its
        # stalled job, which must not keep the only worker from the next.
        faults.install_plan(FaultPlan.from_spec("stall-job=0:3.0"))

        async def scenario():
            async with ProfilingService(jobs=1, shards=1, executor=None,
                                        seed=3) as service:
                stalled = await service.request(ProfileRequest(
                    tenant="acme", workload="mcf", request_id="s0",
                    deadline_s=0.5))
                started = time.monotonic()
                after = await asyncio.wait_for(service.request(
                    ProfileRequest(tenant="acme", workload="mcf",
                                   request_id="n1")), 60)
                return stalled, after, time.monotonic() - started

        stalled, after, elapsed = asyncio.run(scenario())
        assert stalled.status == "failed"
        assert [f.kind for f in stalled.execution.failures] == ["timeout"]
        assert after.status == "fresh" and after.execution.where == "pool"
        assert elapsed < 2.5  # did not wait out the 3 s stall
        assert len(built) == 2

    def test_unavailable_pool_is_retried(self, monkeypatch):
        probes = []
        start = multiprocessing.Process.start

        def flaky_start(process):
            probes.append(process)
            if len(probes) == 1:
                raise OSError("no processes here")
            start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", flaky_start)

        async def scenario():
            async with ProfilingService(jobs=1, shards=1, executor=None,
                                        breaker_reset_s=0.5,
                                        seed=3) as service:
                threaded = await service.request(ProfileRequest(
                    tenant="acme", workload="mcf", request_id="t0"))
                await asyncio.sleep(0.6)
                pooled = await service.request(ProfileRequest(
                    tenant="acme", workload="mcf", request_id="p1"))
                return threaded, pooled

        threaded, pooled = asyncio.run(scenario())
        assert threaded.status == pooled.status == "fresh"
        assert threaded.execution.where == "inline"
        assert [d.kind for d in threaded.execution.degradations][0] \
            == "pool-degraded"
        assert pooled.execution.where == "pool"
        assert threaded.payload == pooled.payload
        assert len(probes) == 2


class TestFaultSpecs:
    def test_service_fault_spec_round_trip(self):
        spec = ("seed=5,drop-request=2,stall-job=3:1.5,"
                "kill-job=1x2,journal-corrupt=0")
        plan = FaultPlan.from_spec(spec)
        assert plan.drop_request == 2
        assert plan.stall_job == 3 and plan.stall_seconds == 1.5
        assert plan.kill_job == 1 and plan.kill_job_count == 2
        assert plan.journal_corrupt == 0
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_stall_worker_defaults_one_second(self):
        plan = FaultPlan.from_spec("stall-job=4")
        assert plan.stall_job == 4 and plan.stall_seconds == 1.0

    def test_drop_request_triggers_once(self):
        faults.install_plan(FaultPlan.from_spec("drop-request=3"))
        assert faults.should_drop_request(3, 0)
        assert not faults.should_drop_request(3, 1)
        assert not faults.should_drop_request(2, 0)


class TestServer:
    def test_socket_round_trip_and_backpressure(self, corpus):
        async def scenario():
            executor = StubExecutor(corpus, delay_s=0.2)
            service = ProfilingService(executor=executor, shards=2,
                                       tenant_quota=1)
            await service.start()
            server = ProfilingServer(service)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)

            def send(doc):
                writer.write(json.dumps(doc).encode() + b"\n")

            async def recv():
                return json.loads(await reader.readline())

            send({"op": "healthz"})
            send({"op": "readyz"})
            await writer.drain()
            assert (await recv())["status"] == "ok"
            assert (await recv())["ready"] is True

            # Source-based profiling over the wire, plus quota pushback.
            send({"op": "profile", "tenant": "acme", "id": "w1",
                  "source": SOURCE})
            send({"op": "profile", "tenant": "acme", "id": "w2",
                  "source": SOURCE})
            await writer.drain()
            rejected = await recv()
            assert rejected["status"] == "rejected"
            assert rejected["id"] == "w2"
            assert rejected["reason"] == "tenant-quota"
            assert rejected["retry_after_s"] > 0
            fresh = await recv()
            assert fresh["id"] == "w1" and fresh["status"] == "fresh"
            assert fresh["payload"]["kind"] == "edge-profile"

            send({"op": "metrics"})
            await writer.drain()
            metrics = await recv()
            assert metrics["accepted"] == 1 and metrics["rejected"] == 1

            send({"op": "launch-missiles"})
            await writer.drain()
            assert "unknown op" in (await recv())["error"]

            writer.close()
            await writer.wait_closed()
            await server.stop()
            await service.stop()
        asyncio.run(scenario())


class TestRemapRequests:
    def test_remap_request_transfers_saved_profile(self, corpus):
        module, _actual, profile, _rv = corpus
        edited = compile_source(EDITED_SOURCE, name="svc-test-v2")
        saved = edge_profile_to_dict(profile, embed_sketch=True)

        async def scenario():
            # Real executor: remap jobs are cheap (no profiling run).
            async with ProfilingService(jobs=1, shards=1,
                                        executor=None) as service:
                exact = await service.request(ProfileRequest(
                    tenant="acme", module=module, kind="remap",
                    stale_profile=saved, request_id="exact"))
                assert exact.status == "fresh" and exact.kind == "remap"
                assert exact.payload == edge_profile_to_dict(profile)
                stale = await service.request(ProfileRequest(
                    tenant="acme", module=edited, kind="remap",
                    stale_profile=saved, request_id="stale"))
                assert stale.status == "fresh"
                # The pool hands back a copy of the edited module.
                assert fingerprint_module(stale.profile.module) \
                    == fingerprint_module(edited)
                assert [d.kind for d in stale.execution.degradations] \
                    == ["stale-remap"]
        asyncio.run(scenario())
