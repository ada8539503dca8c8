"""Extension study: the payoff of path profiles for superblock formation.

Forms superblocks (tail duplication) on every workload twice -- once from
PPP's measured hot paths, once from the edge profile's potential-flow
estimate -- under the same growth budget, and measures remaining dynamic
*merge crossings* (traversals into join blocks, the boundaries that cut
straight-line optimization).  This is the consumer-side justification for
the paper: the same trace former does measurably better with real path
information.
"""

from repro.harness import compare_superblocks, superblock_table

from conftest import mean, save_rendering


def test_superblock_payoff(suite_results, profiling_session, benchmark):
    session = profiling_session
    sample = suite_results["twolf"]
    benchmark(lambda: compare_superblocks(sample, session=session))

    rows = {name: compare_superblocks(r, session=session)
            for name, r in suite_results.items()}
    save_rendering("superblocks",
                   superblock_table(suite_results, session=session))

    # PPP-guided formation is at least as good as edge-guided on nearly
    # every benchmark (ties happen when the edge estimate is accurate,
    # e.g. dominant-path codes like mcf).
    at_least_as_good = sum(
        1 for c in rows.values()
        if c.ppp_reduction >= c.edge_reduction - 1e-9)
    assert at_least_as_good >= len(rows) - 2
    # And clearly better on average.
    assert mean(c.ppp_reduction for c in rows.values()) > \
        mean(c.edge_reduction for c in rows.values())
    # Somewhere, PPP removes a substantial share of merge crossings.
    assert max(c.ppp_reduction for c in rows.values()) > 0.3
