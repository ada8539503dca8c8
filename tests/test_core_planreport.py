"""Tests for the plan report renderer and the CLI --show-plan flag."""

import pytest

from repro.core import format_function_plan, format_plan, plan_ppp, plan_tpp
from repro.lang import compile_source

from conftest import SMALL_PROGRAM, trace_module


@pytest.fixture(scope="module")
def env():
    m = compile_source(SMALL_PROGRAM, name="small")
    _a, profile, _r = trace_module(m)
    return m, profile


class TestPlanReport:
    def test_header_counts(self, env):
        m, profile = env
        plan = plan_tpp(m, profile)
        text = format_plan(plan)
        assert text.startswith("TPP plan for module 'small'")
        assert "routines instrumented" in text

    def test_instrumented_routine_details(self, env):
        m, profile = env
        plan = plan_tpp(m, profile)
        text = format_plan(plan)
        assert "possible paths -> array" in text
        assert "count[" in text or "r =" in text

    def test_skipped_routine_reason_shown(self, env):
        m, profile = env
        plan = plan_ppp(m, profile)
        skipped = [p for p in plan.functions.values() if not p.instrumented]
        if not skipped:
            pytest.skip("nothing skipped here")
        text = format_function_plan(skipped[0])
        assert "not instrumented" in text
        assert skipped[0].reason in text

    def test_cli_show_plan(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "p.minic"
        path.write_text("""
            func f(x) {
                if (x % 2 == 0) { return x; }
                if (x % 3 == 0) { return x + 1; }
                return x - 1;
            }
            func main() {
                s = 0;
                for (i = 0; i < 100; i = i + 1) { s = s + f(i); }
                return s;
            }
        """)
        assert main(["profile", str(path), "--technique", "pp",
                     "--show-plan"]) == 0
        out = capsys.readouterr().out
        assert "PP plan for module" in out
        assert "possible paths" in out
