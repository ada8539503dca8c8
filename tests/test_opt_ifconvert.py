"""Tests for if-conversion (predication of small diamonds)."""

import pytest

from repro.interp import Machine, run_module
from repro.ir import Select, validate_module
from repro.lang import compile_source
from repro.opt import collect_edge_profile, if_convert_module
from repro.profiles import PathProfile

UNBIASED = """
func main() {
    s = 0;
    for (i = 0; i < 200; i = i + 1) {
        if (i % 2 == 0) { x = i * 3; } else { x = i + 7; }
        s = s + x;
    }
    return s;
}
"""

BIASED = """
func main() {
    s = 0;
    for (i = 0; i < 200; i = i + 1) {
        if (i % 100 == 0) { x = i * 3; } else { x = i + 7; }
        s = s + x;
    }
    return s;
}
"""


def _convert(src):
    m = compile_source(src)
    before = run_module(m)
    profile = collect_edge_profile(m)
    converted, stats = if_convert_module(m, profile)
    assert validate_module(converted) == []
    after = run_module(converted)
    assert after.return_value == before.return_value
    return m, converted, stats


class TestConversion:
    def test_unbiased_diamond_converted(self):
        _m, converted, stats = _convert(UNBIASED)
        assert stats.diamonds_converted == 1
        assert stats.selects_inserted >= 1
        selects = [i for b in converted.functions["main"].cfg.blocks.values()
                   for i in b.instructions if isinstance(i, Select)]
        assert selects

    def test_biased_diamond_left_alone(self):
        _m, _converted, stats = _convert(BIASED)
        assert stats.diamonds_converted == 0
        assert stats.candidates_rejected_bias >= 1

    def test_path_population_shrinks(self):
        m, converted, _s = _convert(UNBIASED)
        r1 = Machine(m, trace_paths=True).run()
        r2 = Machine(converted, trace_paths=True).run()
        p1 = PathProfile.from_trace(m, r1.path_counts)
        p2 = PathProfile.from_trace(converted, r2.path_counts)
        assert p2.distinct_paths() < p1.distinct_paths()

    def test_side_effect_arm_rejected(self):
        src = """
        global g;
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { g = g + 1; x = 1; } else { x = 2; }
                s = s + x + g;
            }
            return s;
        }
        """
        _m, _c, stats = _convert(src)
        assert stats.diamonds_converted == 0

    def test_call_in_arm_rejected(self):
        src = """
        func f(x) { return x + 1; }
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { x = f(i); } else { x = 2; }
                s = s + x;
            }
            return s;
        }
        """
        _m, _c, stats = _convert(src)
        assert stats.diamonds_converted == 0

    def test_large_arm_rejected(self):
        body = " ".join(f"x = x + {k};" for k in range(10))
        src = f"""
        func main() {{
            s = 0;
            for (i = 0; i < 100; i = i + 1) {{
                x = i;
                if (i % 2 == 0) {{ {body} }} else {{ x = 2; }}
                s = s + x;
            }}
            return s;
        }}
        """
        _m, _c, stats = _convert(src)
        assert stats.diamonds_converted == 0

    def test_one_arm_variable_uses_prebranch_value(self):
        # y is written only in the then-arm; the else path must keep the
        # pre-branch value.
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                y = i * 10;
                if (i % 2 == 0) { y = 1; x = 5; } else { x = 6; }
                s = s + x + y;
            }
            return s;
        }
        """
        _m, converted, stats = _convert(src)
        assert stats.diamonds_converted == 1

    def test_sequential_dependencies_within_arm(self):
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 60; i = i + 1) {
                if (i % 2 == 0) { t = i + 1; t = t * t; x = t; }
                else { x = 9; }
                s = s + x;
            }
            return s;
        }
        """
        _m, converted, stats = _convert(src)
        assert stats.diamonds_converted == 1

    def test_nested_diamonds_convert_iteratively(self):
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 128; i = i + 1) {
                if (i % 2 == 0) { a = 1; } else { a = 2; }
                if (i % 4 < 2) { b = 3; } else { b = 4; }
                s = s + a * b;
            }
            return s;
        }
        """
        _m, _c, stats = _convert(src)
        assert stats.diamonds_converted == 2

    def test_composes_with_cleanup_and_profiling(self):
        from repro.opt import cleanup_module
        from repro.core import plan_pp, run_with_plan, measured_paths
        m, converted, _s = _convert(UNBIASED)
        cleaned, _cs = cleanup_module(converted)
        truth = Machine(cleaned, trace_paths=True).run()
        plan = plan_pp(cleaned)
        run = run_with_plan(plan)
        assert run.run.return_value == truth.return_value
        actual = PathProfile.from_trace(cleaned, truth.path_counts)
        for fn, fplan in plan.functions.items():
            if not fplan.use_hash:
                assert measured_paths(run, fn) == actual[fn].counts
