"""Host-speed probe: times reported in reference seconds.

The benchmark runs on small shared virtual machines whose speed drifts
by 15-45% over minutes: a cold ``harness all`` pass of fixed work took
24-45 s of wall time on one day, and its CPU time rose with it (steal
time stayed near 1%), so neither wall nor CPU time of one run compares
with another run made a few minutes later.

:class:`SpeedProbe` runs this file as a child process for the length of
a run.  Every ``INTERVAL_S`` the child times a fixed pure-Python loop in
CPU time.  The loop touches none of the program's code, so a change to
the program cannot move it.  A measured interval is reported as

    wall seconds x REFERENCE_S / median loop time around it

that is, in seconds of a host on which the loop takes ``REFERENCE_S``.
A program that gets faster reads faster by the same share; a host that
gets slower mostly no longer does.

The probe must run on the CPU the program runs on: each virtual CPU
slows on its own, and with two of them an unpinned probe sits on the one
the program leaves free.  So a workload whose program is one process
first calls :func:`pin_to_one_cpu`, and its children and the probe
inherit the pin.  Over 21 back-to-back runs of one fixed program pass
sharing a CPU with the probe, scaling cut the runs' coefficient of
variation from 12.2% to 5.3% (a second, memory-bound loop made it
worse); unpinned it barely moved.  The probe takes about 4% of that
CPU.  Intervals shorter than ``MIN_SCALED_S`` are reported as measured:
the probe's samples, 0.5 s apart and smoothed over seconds, do not
follow them (over ten runs a 0.3 s fresh-process proof pass spread 6%
unscaled, 18% scaled).  Short intervals that repeat are instead scaled
one by one with :func:`bracketed`: the loop is timed on the same CPU
just before and just after each, and the interval is reported as

    wall seconds x REFERENCE_S / mean of those two loop times

Over six runs, the median of 60 warm proof passes so scaled spread 3.4%
(interquartile range over median), and 15% when scaled by the probe
over the whole batch.  Each run prints its raw wall times and
scale beside the reported figures.

Run directly, the probe samples until it is terminated::

    python3 perfbench/speed.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

LOOP = 200_000         # iterations of the probe loop (~20 ms)
INTERVAL_S = 0.5       # pause between samples
REFERENCE_S = 0.020    # a typical loop time on a 2-vCPU Xeon VM
MIN_WINDOW_S = 6.0     # the shortest stretch of samples a scale uses
MIN_SCALED_S = 1.0     # shorter intervals are reported unscaled


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts later, to the
    lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop() -> int:
    total = 0
    for k in range(LOOP):
        total += k * k % 7
    return total


def loop_seconds() -> float:
    """CPU seconds this thread takes for one probe loop."""
    cpu = time.thread_time()
    _loop()
    return time.thread_time() - cpu


def bracketed(spans: Sequence[tuple[float, float]],
              loops: Sequence[float]) -> list[float]:
    """Each ``(start, end)`` in reference seconds, scaled by the loop
    times taken just before and after it: ``loops[i]`` and
    ``loops[i + 1]`` bracket ``spans[i]``."""
    if len(loops) != len(spans) + 1:
        raise ValueError("need one more loop time than spans")
    return [(end - start) * 2 * REFERENCE_S / (before + after)
            for (start, end), before, after in zip(spans, loops, loops[1:])]


def sample_forever() -> None:
    """Print "start loop_cpu_s" per sample until terminated."""
    while True:
        start = time.perf_counter()
        print(f"{start} {loop_seconds()}", flush=True)
        time.sleep(INTERVAL_S)


class SpeedProbe:
    """The probe child of one run (``with SpeedProbe() as probe``)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        # Start measuring once the child samples, so its start-up does
        # not compete with the first measured interval.
        deadline = time.perf_counter() + 30
        while not self.samples:
            if time.perf_counter() > deadline or self._proc.poll() is not None:
                self.__exit__()
                raise RuntimeError("the speed probe took no sample")
            time.sleep(0.01)
        return self

    def _read(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            start, cpu = map(float, line.split())
            self.samples.append((start, cpu))

    def __exit__(self, *exc: object) -> None:
        assert self._proc is not None and self._reader is not None
        self._proc.terminate()
        self._proc.wait()
        self._reader.join(timeout=5)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop time in ``[start, end]``,
        widened about its middle to at least ``MIN_WINDOW_S``."""
        middle = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        chosen = [s for s in self.samples
                  if middle - half <= s[0] <= middle + half]
        if len(chosen) < 3:  # too few yet: the nearest samples in time
            chosen = sorted(self.samples,
                            key=lambda s: abs(s[0] - middle))[:5]
        if not chosen:
            raise RuntimeError("the speed probe took no sample")
        return REFERENCE_S / statistics.median(s[1] for s in chosen)

    def seconds(self, start: float, end: float) -> float:
        """Wall time ``end - start`` in reference seconds (as measured
        when shorter than ``MIN_SCALED_S``)."""
        if end - start < MIN_SCALED_S:
            return end - start
        return (end - start) * self.scale(start, end)


if __name__ == "__main__":
    try:
        sample_forever()
    except (KeyboardInterrupt, BrokenPipeError):
        pass
