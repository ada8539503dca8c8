"""Tests for the worker pool in ``engine.workers``.

Every pool here has at most two workers.  Worker processes inherit this
module (and any installed fault plan) through ``fork``, so the helpers
below are importable in them.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import faults
from repro.engine.faults import FaultPlan
from repro.engine.workers import WorkerFault, WorkerPool, backoff_delay

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_plan()
    yield
    faults.clear_plan()


def _nap(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_timed_out_worker_is_gone_within_a_second():
    pool = WorkerPool(1)
    try:
        pid = pool.call(os.getpid)
        timed_out = time.monotonic() + 0.3
        with pytest.raises(WorkerFault) as info:
            pool.call(_nap, (30.0,), timeout=0.3)
        assert info.value.kind == "timeout"
        while _alive(pid):
            assert time.monotonic() - timed_out < 1.0, "worker outlived 1s"
            time.sleep(0.01)
        assert pool.replaced == 1
        assert pool.call(os.getpid) != pid  # the slot respawned
    finally:
        pool.close()


SUITE_SCRIPT = textwrap.dedent("""
    import types
    from repro.engine import parallel
    from repro.engine.results import ExecutionRecord
    from repro.workloads import get_workload

    def run_task(task, disk_dir=None):
        return types.SimpleNamespace(name=task.workload.name,
                                     execution=ExecutionRecord())

    parallel.run_task = run_task
    runner = parallel.ParallelRunner(jobs=2, timeout=0.5, retries=1,
                                     backoff=0.01)
    out = runner.run([parallel.WorkloadTask(workload=get_workload(name))
                      for name in ("mcf", "bzip2")])
    record = runner.report.records["mcf"]
    print([r.name for r in out], [f.kind for f in record.failures],
          record.where, runner.report.pool_rebuilds)
""")


def test_a_stalled_suite_run_exits_without_waiting_on_its_worker():
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{faults.ENV_VAR: "stall-job=0:30"})
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SUITE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] \
        == "['mcf', 'bzip2'] ['timeout'] pool 1"
    assert elapsed < 10.0


@pytest.mark.parametrize("kind", ["worker-crash", "timeout"])
def test_a_fault_on_one_worker_spares_a_peer_in_flight(kind):
    faults.install_plan(FaultPlan(kill_job=1) if kind == "worker-crash"
                        else FaultPlan(stall_job=1, stall_seconds=30.0))
    pool = WorkerPool(2)
    try:
        with ThreadPoolExecutor(1) as thread:
            peer = thread.submit(pool.call, _nap, (1.5,), ordinal=0)
            time.sleep(0.3)  # the peer's job is running
            with pytest.raises(WorkerFault) as info:
                pool.call(_nap, (0.0,), ordinal=1, timeout=0.5)
            assert info.value.kind == kind
            assert not peer.done()
            peer_pid = peer.result(timeout=10)
        assert pool.replaced == 1
        assert _alive(peer_pid)
        assert pool.call(os.getpid) == peer_pid  # still the idle worker
    finally:
        pool.close()


def test_many_callers_share_at_most_jobs_workers(monkeypatch):
    # More calling threads than cores and a short switch interval: every
    # call is answered, and no lost update lets a third worker start.
    started = []
    start = multiprocessing.Process.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = WorkerPool(2)
    try:
        with ThreadPoolExecutor(8) as threads:
            pids = list(threads.map(
                lambda i: pool.call(_nap, (0.0,), ordinal=i, timeout=30),
                range(64)))
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert len(pids) == 64 and 1 <= len(started) <= 2
    assert set(pids) <= {process.pid for process in started}
    assert pool.replaced == 0


def test_backoff_ladder_is_a_pure_function_of_seed_ordinal_attempt():
    ladder = [backoff_delay(0.1, attempt, seed=7, ordinal=3)
              for attempt in (1, 2, 3)]
    assert ladder == [backoff_delay(0.1, attempt, seed=7, ordinal=3)
                      for attempt in (1, 2, 3)]
    for attempt, delay in enumerate(ladder, 1):
        base = 0.1 * 2 ** (attempt - 1)
        assert base <= delay < 1.5 * base
    assert backoff_delay(0.1, 1, seed=7, ordinal=4) != ladder[0]
    assert backoff_delay(0.1, 1, seed=8, ordinal=3) != ladder[0]
    # Another process with another hash seed draws the same ladder.
    code = ("from repro.engine.workers import backoff_delay; "
            "print([backoff_delay(0.1, a, seed=7, ordinal=3) "
            "for a in (1, 2, 3)])")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == repr(ladder)
