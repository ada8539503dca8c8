"""Tests for accuracy/coverage metrics (Section 6) and path profiles."""

import pytest

from repro.lang import compile_source
from repro.profiles import (FunctionCoverage, PathProfile, accuracy,
                            actual_hot_paths, coverage, select_top)

from conftest import trace_module


@pytest.fixture(scope="module")
def traced():
    m = compile_source("""
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                if (i % 10 == 0) { s = s + 2; } else { s = s - 1; }
            }
            return s;
        }""")
    actual, profile, result = trace_module(m)
    return m, actual, profile, result


class TestPathProfile:
    def test_distinct_and_dynamic_counts(self, traced):
        _m, actual, _p, _r = traced
        assert actual.distinct_paths() >= 3
        assert actual.dynamic_paths() >= 100

    def test_hot_paths_sorted_descending(self, traced):
        _m, actual, _p, _r = traced
        hot = actual.hot_paths(0.00125)
        flows = [f for _, _, f in hot]
        assert flows == sorted(flows, reverse=True)

    def test_total_flow_positive(self, traced):
        _m, actual, _p, _r = traced
        assert actual.total_flow("branch") > 0
        assert actual.total_flow("unit") == actual.dynamic_paths()

    def test_average_stats(self, traced):
        _m, actual, _p, _r = traced
        branches, blocks = actual.average_path_stats()
        assert branches > 0
        assert blocks > 1
        assert actual.average_instructions_per_path() > blocks


class TestAccuracy:
    def test_perfect_estimate_scores_one(self, traced):
        _m, actual, _p, _r = traced
        est = {(n, p): actual.flow_of(n, p) for n, p, _c in actual.items()}
        assert accuracy(actual, est) == 1.0

    def test_empty_estimate_scores_zero(self, traced):
        _m, actual, _p, _r = traced
        assert accuracy(actual, {}) == 0.0

    def test_wrong_ranking_partial_credit(self, traced):
        _m, actual, _p, _r = traced
        hot = actual_hot_paths(actual)
        # Estimate that inverts the ranking: coldest first.
        est = {key: 1.0 / (flow + 1) for key, flow in hot.items()}
        score = accuracy(actual, est)
        # All hot paths are still *in* the estimate, and |H_est| =
        # |H_actual|, so the intersection is complete: score 1.
        assert score == 1.0
        # Dropping the hottest path must cost exactly its share.
        hottest = max(hot, key=hot.get)
        est2 = dict(est)
        del est2[hottest]
        expected = 1.0 - hot[hottest] / sum(hot.values())
        assert accuracy(actual, est2) == pytest.approx(expected)

    def test_select_top_deterministic_ties(self):
        est = {("f", ("a",)): 5.0, ("f", ("b",)): 5.0, ("f", ("c",)): 1.0}
        top = select_top(est, 2)
        assert top == {("f", ("a",)), ("f", ("b",))}

    def test_no_hot_paths_scores_one(self):
        m = compile_source("func main() { return 0; }")
        actual = PathProfile.empty(m)
        assert accuracy(actual, {}) == 1.0


class TestCoverage:
    def test_full_instrumentation_full_coverage(self):
        parts = [FunctionCoverage(actual_instr_flow=100, measured_flow=100,
                                  definite_uninstr_flow=0)]
        assert coverage(100, parts) == 1.0

    def test_overcount_penalised(self):
        parts = [FunctionCoverage(actual_instr_flow=100, measured_flow=120,
                                  definite_uninstr_flow=0)]
        assert coverage(100, parts) == pytest.approx(0.8)

    def test_undercount_not_credited(self):
        # Hash losses make measured < actual; overcount clamps at 0.
        parts = [FunctionCoverage(actual_instr_flow=100, measured_flow=90,
                                  definite_uninstr_flow=0)]
        assert coverage(100, parts) == 1.0

    def test_definite_flow_contributes(self):
        parts = [FunctionCoverage(actual_instr_flow=50, measured_flow=50,
                                  definite_uninstr_flow=30)]
        assert coverage(100, parts) == pytest.approx(0.8)

    def test_clamped_to_unit_interval(self):
        parts = [FunctionCoverage(actual_instr_flow=200, measured_flow=200)]
        assert coverage(100, parts) == 1.0
        assert coverage(0, parts) == 1.0
