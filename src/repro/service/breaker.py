"""Circuit breaker guarding the service's worker pool.

Repeated dispatch failures (worker crashes, timeouts) trip the breaker
``closed -> open``; while open the service stops burning pool capacity
on doomed dispatches and serves conservation-repaired stale remaps
instead.  After ``reset_after_s`` the breaker half-opens and lets
exactly one probe dispatch through: a probe success closes the breaker,
a probe failure re-opens it and restarts the clock.

The clock is injectable so tests drive state transitions without
sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """A classic three-state breaker with single-probe half-open.

    ``clock`` is a test seam: tests step a fake clock past the reset.
    """

    def __init__(self, fail_threshold: int, reset_after_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.fail_threshold = max(1, fail_threshold)
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state, advancing ``open -> half-open`` on timeout."""
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_after_s):
            self._state = HALF_OPEN
            self._probe_in_flight = False
        return self._state

    def allow(self) -> bool:
        """May the caller dispatch now?  Half-open grants one probe."""
        state = self.state
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self._state = CLOSED

    def record_failure(self) -> None:
        self._probe_in_flight = False
        if self.state == HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if (self._state == CLOSED
                and self._consecutive_failures >= self.fail_threshold):
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self.trips += 1

    def retry_after(self) -> float:
        """Seconds until an open breaker will half-open (0 when usable)."""
        if self.state != OPEN:
            return 0.0
        return max(0.0,
                   self.reset_after_s - (self._clock() - self._opened_at))
