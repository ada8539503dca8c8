"""Extension studies beyond the paper's figures.

1. NET vs PPP (quantifying the Section 2 Dynamo critique): the fraction
   of actual hot-path flow NET's one-trace-per-head selections capture,
   against PPP's estimated profile under the same selection budget.
2. Profile staleness: PPP planned from a smaller run's edge profile vs
   self advice.
"""

from repro.harness import (compare_net, net_table, staleness_study,
                           staleness_table)
from repro.workloads import get_workload

from conftest import mean, save_rendering


def test_net_vs_ppp(suite_results, profiling_session, benchmark):
    session = profiling_session
    sample = suite_results["mcf"]
    benchmark(lambda: compare_net(sample, session=session))

    rows = {name: compare_net(r, session=session)
            for name, r in suite_results.items()}
    save_rendering("net_vs_ppp", net_table(suite_results, session=session))

    # PPP captures at least as much hot flow as NET on every benchmark.
    for name, cmp in rows.items():
        assert cmp.ppp_hot_flow_captured >= \
            cmp.net_hot_flow_captured - 1e-9, name
    # The gap is dramatic on the warm-path INT codes the paper calls out.
    warm = [rows[n] for n in ("vpr", "crafty")]
    assert all(c.net_hot_flow_captured < 0.5 for c in warm)
    assert all(c.ppp_hot_flow_captured > 0.8 for c in warm)
    # NET is respectable where a few paths dominate.
    assert rows["mcf"].net_hot_flow_captured > \
        mean(c.net_hot_flow_captured for c in warm)


def test_staleness(profiling_session, benchmark):
    session = profiling_session
    workloads = [get_workload(n) for n in ("twolf", "mcf", "bzip2")]
    row = benchmark(lambda: staleness_study(workloads[0], session=session))
    save_rendering("staleness", staleness_table(workloads, session))

    # Scale-invariant deterministic workloads: stale advice stays close
    # to fresh advice (documented as an honest robustness result).
    assert row.stale_accuracy >= row.fresh_accuracy - 0.10
    assert row.stale_overhead <= row.fresh_overhead + 0.05
