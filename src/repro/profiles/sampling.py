"""Sampled edge profiles: simulating how edge profiles are really built.

The paper assumes an edge profile is available nearly for free because
dynamic optimizers collect it by *sampling* (0.5-3% overhead, Section 2).
A sampled profile is a noisy, thinned version of the true one.  This
module simulates that: each edge traversal survives with probability
``rate`` (binomial thinning, deterministic per seed) and counts are
rescaled back, so low-frequency edges get noisy or vanish entirely --
exactly the signal degradation PPP's thresholds must tolerate.

The robustness study in :mod:`repro.harness.sampling_study` plans PPP
from sampled profiles at decreasing rates and measures what survives.

Not to be confused with :mod:`repro.analysis.sampling`, which is
*deterministic* stride sampling of large enumeration spaces (path ids,
walk flows) inside the static analyses.  This module is the
*stochastic* one: it thins dynamic counts pseudo-randomly (seeded, so
still reproducible) to model real sampling noise.
"""

from __future__ import annotations

import random

from .edge_profile import EdgeProfile, FunctionEdgeProfile


def _thin(count: int, rate: float, rng: random.Random) -> int:
    """Binomial(count, rate) without numpy, exact for small counts and
    a normal approximation for large ones (counts can reach millions)."""
    if count <= 0 or rate >= 1.0:
        return count
    if rate <= 0.0:
        return 0
    if count <= 1024:
        return sum(1 for _ in range(count) if rng.random() < rate)
    mean = count * rate
    stddev = (count * rate * (1.0 - rate)) ** 0.5
    value = int(round(rng.gauss(mean, stddev)))
    return max(0, min(count, value))


def sample_edge_profile(profile: EdgeProfile, rate: float,
                        seed: int = 0) -> EdgeProfile:
    """A sampled-and-rescaled version of an edge profile.

    Each edge count is binomially thinned at ``rate`` and divided back by
    ``rate`` (so magnitudes stay comparable); invocation counts are
    treated the same way but kept at least 1 for functions that ran, so
    "executed" status is preserved.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    rng = random.Random(seed)
    functions: dict[str, FunctionEdgeProfile] = {}
    for name, fp in profile.functions.items():
        thinned = {}
        # Draw in uid order: ``edge_freq``'s insertion order is the order
        # a backend first folded each edge, which differs between the
        # tuple and compiled backends.
        for uid, count in sorted(fp.edge_freq.items()):
            kept = _thin(count, rate, rng)
            if kept:
                thinned[uid] = max(1, int(round(kept / rate)))
        entry = fp.entry_count
        if entry > 0:
            entry = max(1, int(round(_thin(entry, rate, rng) / rate)))
        functions[name] = FunctionEdgeProfile(fp.func, thinned, entry)
    return EdgeProfile(profile.module, functions)
