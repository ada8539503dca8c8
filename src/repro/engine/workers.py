"""Worker processes owned by one pool, for suite runs and the service.

:class:`WorkerPool` starts at most ``jobs`` daemonic workers on demand,
each with its own pipe.  :meth:`WorkerPool.call` waits on that pipe and
the worker's exit sentinel together: a **timeout** kills that one
worker, a **crash** (exit without a reply) loses only its own, and
either slot respawns on next use while peers keep running.  Both raise
:class:`WorkerFault`, whose ``kind`` is the
:class:`~repro.engine.results.TaskFailure` kind; :class:`PoolUnavailable`
means no worker can start here at all.  :func:`backoff_delay` is the
retry ladder both callers share.  ``multiprocessing`` loads on first
use, so importing the engine starts no process machinery.
"""

from __future__ import annotations

import pickle
import threading
import time
import zlib
from typing import Any, Callable, Optional

from . import faults

__all__ = ["PoolUnavailable", "WorkerFault", "WorkerPool", "backoff_delay"]


class PoolUnavailable(RuntimeError):
    """No worker process can start here (no fork, fd exhaustion, ...)."""


class WorkerFault(RuntimeError):
    """A call lost its worker; ``kind`` is ``timeout`` or ``worker-crash``."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


def backoff_delay(base: float, attempt: int, seed: int = 0,
                  ordinal: int = 0) -> float:
    """The wait before retry ``attempt`` (1 is the first retry):
    ``base * 2**(attempt-1)``, stretched by a jitter in ``[0, 0.5)``
    that is a pure function of ``(seed, ordinal, attempt)``."""
    jitter = zlib.crc32(f"{seed}:{ordinal}:{attempt}".encode()) / 2 ** 33
    return base * 2 ** (attempt - 1) * (1.0 + jitter)


def _serve(conn: Any, parent_end: Any) -> None:
    """A worker's loop: run each pickled ``(fn, args, ordinal, attempt)``
    and reply ``(ok, result or exception)``."""
    parent_end.close()  # so the parent's exit reads as EOF here
    while True:
        try:
            fn, args, ordinal, attempt = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        faults.on_job_start(ordinal, attempt)
        try:
            conn.send((True, fn(*args)))
        except Exception as exc:
            conn.send((False, exc))


class WorkerPool:
    """At most ``jobs`` worker processes; ``replaced`` counts the ones
    lost to a timeout or a crash (see the module docstring)."""

    def __init__(self, jobs: int):
        self.jobs = max(1, int(jobs))
        self.replaced = 0
        self._slots = threading.BoundedSemaphore(self.jobs)
        self._lock = threading.Lock()
        self._workers: set[tuple[Any, Any]] = set()  # (process, pipe end)
        self._idle: list[tuple[Any, Any]] = []
        self._closed = False

    def call(self, fn: Callable[..., Any], args: tuple = (), *,
             ordinal: int = 0, attempt: int = 0,
             timeout: Optional[float] = None) -> Any:
        """``fn(*args)`` in a worker: its result, or its exception.

        ``ordinal`` and ``attempt`` key the ``kill-job``/``stall-job``
        faults.  ``timeout`` counts from this call, so time spent
        waiting for a free worker counts too.
        """
        from multiprocessing.connection import wait

        message = pickle.dumps((fn, args, ordinal, attempt))
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._slots.acquire(timeout=timeout):
            raise WorkerFault("timeout", f"no free worker within {timeout}s")
        try:
            proc, conn = worker = self._checkout()
            try:
                conn.send_bytes(message)
                ready = wait([conn, proc.sentinel], None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                reply = conn.recv_bytes() if conn in ready else None
            except (EOFError, OSError):  # the worker died
                ready, reply = [proc.sentinel], None
            if reply is None:
                pid, status = proc.pid, self._discard(worker)
                if not ready:
                    raise WorkerFault("timeout",
                                      f"exceeded {timeout:.1f}s wall clock")
                raise WorkerFault("worker-crash", f"worker {pid} exited "
                                  f"with status {status}")
            self._idle.append(worker)
        finally:
            self._slots.release()
        ok, value = pickle.loads(reply)  # a bad reply spares the worker
        if ok:
            return value
        raise value

    def close(self) -> None:
        """Kill every worker; a call still waiting on one sees a crash."""
        with self._lock:
            self._closed = True
            workers, self._idle = list(self._workers), []
        for proc, _conn in workers:
            proc.kill()

    def _checkout(self) -> tuple[Any, Any]:
        """An idle worker, else a new one (the caller holds a slot)."""
        import multiprocessing

        # Under the lock, so no other worker is forked while this one's
        # child end is still open in the parent.
        with self._lock:
            if self._closed:
                raise PoolUnavailable("the pool is closed")
            if self._idle:
                return self._idle.pop()
            try:
                parent_end, child_end = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_serve, args=(child_end, parent_end),
                    name="repro-worker", daemon=True)
                proc.start()
            except Exception as exc:
                raise PoolUnavailable(f"cannot start a worker: {exc!r}") \
                    from exc
            child_end.close()
            self._workers.add((proc, parent_end))
            return proc, parent_end

    def _discard(self, worker: tuple[Any, Any]) -> Optional[int]:
        """Kill and join a lost worker; its exit status."""
        proc, _conn = worker
        proc.kill()
        proc.join()
        with self._lock:
            self._workers.discard(worker)
            self.replaced += 1
        return proc.exitcode
