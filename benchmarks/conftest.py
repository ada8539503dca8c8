"""Shared state for the benchmark harness.

``suite_results`` runs the paper's full methodology over all 18 workloads
once per session; each table/figure benchmark renders its experiment from
it, asserts the paper's qualitative shape, and saves the rendered output
under ``results/``.

The run goes through a session-scoped :class:`ProfilingSession`, so the
follow-on studies (ablation, staleness, sampling, ...) share compiled
modules and ground-truth traces with the main suite run.  Two environment
knobs tune it:

* ``REPRO_JOBS`` -- worker processes for the suite run (default 1);
* ``REPRO_CACHE_DIR`` -- optional on-disk artifact cache directory, which
  makes repeated benchmark sessions start warm;
* ``REPRO_BACKEND`` -- interpreter backend (``compiled`` by default;
  ``tuple`` re-runs every figure on the reference interpreter).  The
  backend is part of the cache fingerprint, so the two never share
  execution artifacts.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.engine import ArtifactCache, ProfilingSession

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def profiling_session():
    """One cached engine session shared by every benchmark (pass it to
    each study so they all hit the same cache)."""
    return ProfilingSession(
        cache=ArtifactCache(disk_dir=os.environ.get("REPRO_CACHE_DIR")
                            or None),
        jobs=int(os.environ.get("REPRO_JOBS", "1") or "1"),
        backend=os.environ.get("REPRO_BACKEND") or None,
    )


@pytest.fixture(scope="session")
def suite_results(profiling_session):
    """All 18 workloads, expanded, traced, and profiled with PP/TPP/PPP."""
    return profiling_session.run_suite(verbose=False)


def save_rendering(name: str, text: str) -> None:
    """Persist a rendered table/figure under results/ (and echo it)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0
