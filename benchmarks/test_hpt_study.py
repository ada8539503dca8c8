"""Extension study: hardware hot-path table accuracy vs capacity.

Reproduces the related-work claim (Vaswani et al. [29]) that a hardware
path profiler's accuracy is "above 90% on average when the HPT is large
enough" -- and shows the capacity cliff PPP does not have: small tables
thrash (evict) on warm-path programs and lose most of the hot flow.
"""

from repro.harness import hpt_study, hpt_table

from conftest import mean, save_rendering

GEOMETRIES = ((16, 2), (64, 4), (256, 4))


def test_hpt_capacity_cliff(suite_results, profiling_session, benchmark):
    session = profiling_session
    sample = suite_results["vpr"]
    benchmark(lambda: hpt_study(sample, geometries=((64, 4),),
                                session=session))

    subset = {name: suite_results[name]
              for name in ("vpr", "mcf", "crafty", "twolf", "gap",
                           "swim")}
    save_rendering("hpt", hpt_table(subset, GEOMETRIES, session=session))

    by_geometry = {g: [] for g in GEOMETRIES}
    for result in subset.values():
        for row in hpt_study(result, GEOMETRIES, session=session):
            by_geometry[(row.sets, row.ways)].append(row)

    small = by_geometry[(16, 2)]
    large = by_geometry[(256, 4)]
    # Large tables reach the paper's "above 90% on average".
    assert mean(r.accuracy for r in large) >= 0.9
    # Accuracy grows with capacity, and the small table visibly thrashes
    # on some warm-path benchmark.
    assert mean(r.accuracy for r in large) > \
        mean(r.accuracy for r in small)
    assert max(r.pressure for r in small) > 0.1
    assert max(r.pressure for r in large) < 0.05
