"""Deterministic sampling of large enumeration spaces.

Several analyses enumerate a space that is usually small but occasionally
explodes (Ball-Larus path ids, conservation walk flows).  Above a cap they
fall back to a deterministic stride sample so that (a) runs are
reproducible bit-for-bit and (b) the sample spreads across the whole id
range rather than clustering at the low end.  This helper is the single
home for that logic; the plan verifier and the conservation proof pass
both use it.

Not to be confused with :mod:`repro.profiles.sampling`, which models
*stochastic* profile collection (binomial thinning of edge counts).
This module never involves randomness: same inputs, same sample, on
every machine.
"""

from __future__ import annotations

# A prime target keeps the stride from resonating with the powers of two
# that path-id spaces are built from.
SAMPLE_TARGET = 997


def sample_ids(total: int) -> range:
    """Deterministic spread of about :data:`SAMPLE_TARGET` ids from
    ``range(total)``.

    When ``total <= SAMPLE_TARGET`` every id is produced, so callers need no
    separate exhaustive/sampled code paths.
    """
    return range(0, total, max(1, total // SAMPLE_TARGET))
