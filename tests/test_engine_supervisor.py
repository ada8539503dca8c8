"""Tests for the fault-tolerant suite runner in ``engine.parallel``.

The real ``run_task`` runs a full per-benchmark methodology (seconds per
task), so these tests monkeypatch it with cheap stand-ins; worker
processes inherit the patch through ``fork``.  The runner's control
flow -- ordering, retries, timeouts, crash recovery, inline fallback --
is exactly what is under test and is exercised for real.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine import faults
from repro.engine import parallel as parallel_mod
from repro.engine.faults import DegradationEvent, FaultPlan
from repro.engine.parallel import (ParallelRunner, SuiteExecutionError,
                                   WorkloadTask)
from repro.engine.results import (ExecutionRecord, SuiteExecutionReport,
                                  TaskFailure)
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_plan()
    faults.drain_degradations()
    yield
    faults.clear_plan()
    faults.drain_degradations()


class FakeResult:
    """A picklable WorkloadResult stand-in (only what _finish touches)."""

    def __init__(self, name: str, pid: int):
        self.name = name
        self.pid = pid
        self.execution = ExecutionRecord()


def fake_run_task(task: WorkloadTask, disk_dir=None) -> FakeResult:
    return FakeResult(task.workload.name, os.getpid())


def slow_then_fast_run_task(task, disk_dir=None):
    # Earlier task indexes sleep longer, so completion order is the
    # reverse of submission order.
    delays = {"mcf": 0.3, "bzip2": 0.15, "crafty": 0.0}
    time.sleep(delays.get(task.workload.name, 0.0))
    return FakeResult(task.workload.name, os.getpid())


class RaisesFor:
    """Raise for one named workload (in workers and inline alike)."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, task, disk_dir=None):
        if task.workload.name == self.name:
            raise ValueError(f"synthetic failure for {self.name}")
        return FakeResult(task.workload.name, os.getpid())


class RaisesInWorkers:
    """Raise everywhere except the parent process (transient failure)."""

    def __init__(self, name: str):
        self.name = name
        self.parent_pid = os.getpid()

    def __call__(self, task, disk_dir=None):
        if task.workload.name == self.name \
                and os.getpid() != self.parent_pid:
            raise ValueError("worker-only failure")
        return FakeResult(task.workload.name, os.getpid())


def _tasks(*names):
    return [WorkloadTask(workload=get_workload(n)) for n in names]


def _patch(monkeypatch, fn):
    monkeypatch.setattr(parallel_mod, "run_task", fn)


def test_serial_run_is_ordered_and_clean(monkeypatch):
    _patch(monkeypatch, fake_run_task)
    runner = ParallelRunner(jobs=1)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    assert all(r.pid == os.getpid() for r in out)
    assert runner.report.clean
    assert {r.where for r in runner.report.records.values()} == {"serial"}


def test_pool_results_reassemble_in_task_order(monkeypatch):
    _patch(monkeypatch, slow_then_fast_run_task)
    runner = ParallelRunner(jobs=3, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    assert all(r.pid != os.getpid() for r in out)  # really pooled
    assert runner.report.clean
    assert {r.where for r in runner.report.records.values()} == {"pool"}


def test_worker_crash_recovery_keeps_completed_results(monkeypatch):
    _patch(monkeypatch, fake_run_task)
    faults.install_plan(FaultPlan(seed=7, kill_job=1))
    runner = ParallelRunner(jobs=2, retries=2, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    assert runner.report.pool_rebuilds >= 1
    assert any(f.kind == "worker-crash" for f in runner.report.failures())
    assert runner.report.records["bzip2"].attempts >= 2
    assert not runner.report.clean


def test_timeout_abandons_and_retries(monkeypatch):
    _patch(monkeypatch, fake_run_task)
    faults.install_plan(FaultPlan(seed=3, stall_job=0, stall_seconds=2.0))
    runner = ParallelRunner(jobs=2, timeout=0.4, retries=2, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    record = runner.report.records["mcf"]
    assert [f.kind for f in record.failures] == ["timeout"]
    assert record.attempts == 2 and record.where == "pool"
    assert runner.report.records["bzip2"].attempts == 1


def test_transient_worker_failure_falls_back_inline(monkeypatch):
    _patch(monkeypatch, RaisesInWorkers("bzip2"))
    runner = ParallelRunner(jobs=2, retries=1, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    record = runner.report.records["bzip2"]
    assert record.where == "inline"
    assert [f.kind for f in record.failures] == ["exception", "exception"]
    assert [d.kind for d in record.degradations] == ["inline-fallback"]
    # The healthy tasks never left the pool.
    assert runner.report.records["mcf"].where == "pool"
    assert out[1].pid == os.getpid()


def test_deterministic_failure_raises_suite_error(monkeypatch):
    _patch(monkeypatch, RaisesFor("crafty"))
    runner = ParallelRunner(jobs=2, retries=1, backoff=0.01)
    with pytest.raises(SuiteExecutionError) as info:
        runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert info.value.task_name == "crafty"
    # Pool attempts + the failed inline fallback all carried through.
    assert len(info.value.failures) == 3
    assert "synthetic failure" in str(info.value)


def test_one_unpicklable_task_keeps_the_rest_pooled(monkeypatch):
    _patch(monkeypatch, fake_run_task)
    tasks = _tasks("mcf", "bzip2", "crafty")
    # A lambda inside the task makes it unshippable across processes.
    tasks[1] = WorkloadTask(workload=get_workload("bzip2"),
                            techniques=(lambda: None,))
    runner = ParallelRunner(jobs=2, backoff=0.01)
    out = runner.run(tasks)
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    record = runner.report.records["bzip2"]
    assert record.where == "inline"
    assert [f.kind for f in record.failures] == ["unpicklable"]
    assert [d.kind for d in record.degradations] == ["inline-fallback"]
    assert runner.report.records["mcf"].where == "pool"
    assert runner.report.records["crafty"].where == "pool"
    assert out[1].pid == os.getpid()
    assert out[0].pid != os.getpid()


def test_empty_task_list():
    runner = ParallelRunner(jobs=4)
    assert runner.run([]) == []
    assert runner.report.clean


def test_zero_retries_with_timeout_falls_back_inline(monkeypatch):
    # --retries 0 must not strand a timing-out task: the single pool
    # attempt times out and the runner goes straight to the inline
    # fallback (where the stall fault never fires: it is no pool job).
    _patch(monkeypatch, fake_run_task)
    faults.install_plan(FaultPlan(seed=3, stall_job=0, stall_seconds=2.0))
    runner = ParallelRunner(jobs=2, timeout=0.4, retries=0, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    record = runner.report.records["mcf"]
    assert [f.kind for f in record.failures] == ["timeout"]
    assert record.where == "inline"
    assert [d.kind for d in record.degradations] == ["inline-fallback"]
    assert out[0].pid == os.getpid()
    # The healthy tasks ran once, in the pool, with no retries.
    assert runner.report.records["bzip2"].attempts == 1
    assert runner.report.records["bzip2"].where == "pool"


class CountsRunsThenKillsLast:
    """Tally every execution; the victim dies once, after the others
    have finished, so the crash arrives with their results already
    collected."""

    def __init__(self, tally_dir: str, victim: str):
        self.tally_dir = tally_dir
        self.victim = victim
        self.parent_pid = os.getpid()

    def __call__(self, task, disk_dir=None):
        import uuid
        name = task.workload.name
        tally = os.path.join(self.tally_dir, f"{name}.{uuid.uuid4().hex}")
        if name == self.victim and os.getpid() != self.parent_pid:
            killed = os.path.join(self.tally_dir, "killed")
            deadline = time.time() + 10.0
            while len([f for f in os.listdir(self.tally_dir)
                       if not f.startswith((self.victim, "killed"))]) < 2:
                if time.time() > deadline:
                    raise RuntimeError("peers never finished")
                time.sleep(0.01)
            if not os.path.exists(killed):
                open(killed, "w").close()
                time.sleep(0.15)  # let the peers' results flush home
                os._exit(86)
        open(tally, "w").close()
        return FakeResult(name, os.getpid())


def test_late_pool_crash_preserves_completed_results(tmp_path, monkeypatch):
    # A worker crash arriving after the other tasks completed must not
    # throw their results away: only the victim is re-run.
    _patch(monkeypatch,
           CountsRunsThenKillsLast(str(tmp_path), victim="crafty"))
    runner = ParallelRunner(jobs=3, retries=2, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    runs = {name: len(list(tmp_path.glob(f"{name}.*")))
            for name in ("mcf", "bzip2", "crafty")}
    # Completed results were preserved across the crash, not re-run.
    assert runs == {"mcf": 1, "bzip2": 1, "crafty": 1}
    assert runner.report.pool_rebuilds >= 1
    assert any(f.kind == "worker-crash" for f in runner.report.failures())
    assert runner.report.records["crafty"].attempts >= 2
    assert runner.report.records["mcf"].attempts == 1
    assert runner.report.records["bzip2"].attempts == 1


def test_singleton_batch_runs_serially(monkeypatch):
    # No pool is worth spawning for a suite of one.
    _patch(monkeypatch, fake_run_task)
    runner = ParallelRunner(jobs=2, backoff=0.01)
    assert runner.run(_tasks("mcf"))[0].pid == os.getpid()
    assert runner.report.records["mcf"].where == "serial"


class TalliesSlowPeers:
    """Tally every task body run.  bzip2 holds its worker long enough
    that crafty, started after it, is still running when mcf's hung
    first attempt times out, yet finishes inside its own timeout."""

    DELAYS = {"bzip2": 0.4, "crafty": 0.6}

    def __init__(self, tally_dir: str):
        self.tally_dir = tally_dir

    def __call__(self, task, disk_dir=None):
        import uuid
        name = task.workload.name
        time.sleep(self.DELAYS.get(name, 0.0))
        open(os.path.join(self.tally_dir, f"{name}.{uuid.uuid4().hex}"),
             "w").close()
        return FakeResult(name, os.getpid())


def test_timeout_retires_pool_and_collects_running_peers(tmp_path,
                                                         monkeypatch):
    # mcf's first attempt hangs past the timeout: that kills its one
    # worker.  crafty is mid-run on a peer; it finishes there, not
    # re-run, and only mcf is retried, on a replacement worker.
    _patch(monkeypatch, TalliesSlowPeers(str(tmp_path)))
    faults.install_plan(FaultPlan(seed=3, stall_job=0, stall_seconds=3.0))
    runner = ParallelRunner(jobs=2, timeout=0.8, retries=2, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    # The hung attempt is still asleep, so every tally is a real run.
    runs = {name: len(list(tmp_path.glob(f"{name}.*")))
            for name in ("mcf", "bzip2", "crafty")}
    assert runs == {"mcf": 1, "bzip2": 1, "crafty": 1}
    assert runner.report.pool_rebuilds == 1
    records = runner.report.records
    assert [f.kind for f in records["mcf"].failures] == ["timeout"]
    assert records["mcf"].attempts == 2 and records["mcf"].where == "pool"
    assert records["crafty"].attempts == 1
    assert records["crafty"].where == "pool"
    assert records["bzip2"].attempts == 1


def test_no_pool_runs_everything_inline(monkeypatch):
    def no_fork(process):
        raise OSError("no processes here")

    _patch(monkeypatch, fake_run_task)
    monkeypatch.setattr(multiprocessing.Process, "start", no_fork)
    runner = ParallelRunner(jobs=2, backoff=0.01)
    out = runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert [r.name for r in out] == ["mcf", "bzip2", "crafty"]
    assert all(r.pid == os.getpid() for r in out)
    for record in runner.report.records.values():
        assert record.where == "inline" and record.attempts == 1
        assert [d.kind for d in record.degradations] == ["pool-degraded"]


def test_failed_fallback_after_timeout_does_not_wait_on_hung_worker(
        monkeypatch):
    # The timed-out worker is killed before the inline fallback runs, so
    # when the fallback raises, teardown does not wait out the hang.
    _patch(monkeypatch, RaisesFor("mcf"))
    faults.install_plan(FaultPlan(seed=3, stall_job=0, stall_seconds=4.0))
    runner = ParallelRunner(jobs=2, timeout=0.4, retries=0, backoff=0.01)
    start = time.monotonic()
    with pytest.raises(SuiteExecutionError) as info:
        runner.run(_tasks("mcf", "bzip2", "crafty"))
    assert time.monotonic() - start < 3.0
    assert [f.kind for f in info.value.failures] == ["timeout", "exception"]
    assert runner.report.pool_rebuilds == 1


def test_report_json_form():
    """What the service and ``--json`` write: elapsed times rounded to
    the millisecond, retries and degradations derived from the records."""
    record = ExecutionRecord(
        attempts=3, where="pool",
        failures=[TaskFailure(kind="timeout", task="mcf", index=0,
                              attempt=0, elapsed_s=0.123456789)],
        degradations=[DegradationEvent("inline-fallback", "mcf", "why")])
    report = SuiteExecutionReport(
        records={"mcf": record, "bzip2": ExecutionRecord()},
        pool_rebuilds=2, cache_quarantined=1)
    doc = json.loads(json.dumps(report.to_dict()))
    assert (doc["pool_rebuilds"], doc["cache_quarantined"]) == (2, 1)
    assert (doc["retries"], doc["degradations"]) == (2, 1)
    assert doc["tasks"]["mcf"]["failures"][0]["elapsed_s"] == 0.123
    assert doc["tasks"]["bzip2"] == {"attempts": 1, "where": "serial",
                                     "failures": [], "degradations": []}
