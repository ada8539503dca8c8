"""Benchmark + regeneration of Figure 13 (leave-one-out over PPP's
techniques) and the Section 8.3 one-at-a-time study.

Shape checks (paper): on the benchmarks where PPP clearly beats TPP, the
full PPP configuration is at least as cheap on average as any
leave-one-out configuration (each technique earns its place on some
benchmark), and removing a technique never makes PPP *much* better.
"""

from repro.harness import (figure13, leave_one_out, one_at_a_time,
                           select_benchmarks)
from repro.harness.ablation import TECHNIQUE_LABELS

from conftest import mean, save_rendering


def test_figure13_regeneration(suite_results, profiling_session,
                               benchmark):
    session = profiling_session
    chosen = select_benchmarks(suite_results)
    assert chosen, "some benchmark must show PPP > 5% better than TPP"
    rows = benchmark(lambda: leave_one_out(suite_results,
                                           benchmarks=chosen[:3],
                                           session=session))
    save_rendering("figure13", figure13(suite_results, session=session))

    full_rows = leave_one_out(suite_results, session=session)
    # Full PPP beats TPP on every selected benchmark by construction.
    for row in full_rows:
        assert row.ppp_overhead < row.tpp_overhead
    # Averaged over the selected benchmarks, no single-technique removal
    # improves on full PPP by more than a small performance-anomaly
    # margin (the paper sees such anomalies for SPN).
    full_avg = mean(r.ppp_overhead for r in full_rows)
    for technique in TECHNIQUE_LABELS:
        ablated_avg = mean(r.without[technique] for r in full_rows)
        assert ablated_avg >= full_avg - 0.01, technique


def test_one_at_a_time_regeneration(suite_results, profiling_session,
                                    benchmark):
    session = profiling_session
    chosen = select_benchmarks(suite_results)
    text = benchmark(lambda: one_at_a_time(suite_results,
                                           benchmarks=chosen[:1],
                                           session=session))
    full = one_at_a_time(suite_results, session=session)
    save_rendering("one_at_a_time", full)
    assert "LC" in full and "SPN" in full
