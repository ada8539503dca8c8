"""Extension study: if-conversion x path profiling.

Predicating mispredictable small diamonds (hyperblock-style) removes
branch decisions, shrinking the Ball-Larus path population and making
PPP's job easier -- at the price of executing both arms.  The study
checks the trade on the branchy INT workloads.
"""

from repro.harness import compare_ifconvert, ifconvert_table
from repro.workloads import INT

from conftest import mean, save_rendering


def test_ifconvert_reshapes_profiles(suite_results, profiling_session,
                                    benchmark):
    session = profiling_session
    sample = suite_results["vpr"]
    benchmark(lambda: compare_ifconvert(sample, session))

    subset = {name: r for name, r in suite_results.items()
              if name in ("vpr", "crafty", "twolf", "perlbmk", "gap",
                          "mesa")}
    rows = {name: compare_ifconvert(r, session)
            for name, r in subset.items()}
    save_rendering("ifconvert", ifconvert_table(subset, session))

    converted = [c for c in rows.values() if c.diamonds_converted > 0]
    assert converted, "some branchy workload must have candidates"
    for cmp in converted:
        # Fewer distinct paths and cheaper (or equal) PPP after
        # conversion; accuracy stays high on the simplified profile.
        assert cmp.distinct_after <= cmp.distinct_before
        assert cmp.ppp_overhead_after <= cmp.ppp_overhead_before + 0.01
        assert cmp.accuracy_after >= 0.9
        # The cost: both arms execute.
        assert cmp.baseline_growth >= -0.01
    # Averaged over the converted set the overhead drop is real.
    assert mean(c.ppp_overhead_after for c in converted) < \
        mean(c.ppp_overhead_before for c in converted)
