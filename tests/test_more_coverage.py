"""Additional coverage: profile scaling, ablation helpers, branch-block
predicate, plan-report hash labelling, and harness selection edges."""

import pytest

from repro.harness.ablation import _normalise, select_benchmarks
from repro.lang import compile_source

from conftest import SMALL_PROGRAM, trace_module


class TestEdgeProfileScale:
    def test_scale_halves_counts(self):
        m = compile_source(SMALL_PROGRAM)
        _a, profile, _r = trace_module(m)
        scaled = profile.scale(0.5)
        for name, fp in profile.functions.items():
            sp = scaled[name]
            assert sp.entry_count == int(fp.entry_count * 0.5)
            for uid, count in fp.edge_freq.items():
                assert sp.edge_freq[uid] == int(count * 0.5)

    def test_scaled_profile_still_usable_for_planning(self):
        from repro.core import plan_ppp
        m = compile_source(SMALL_PROGRAM)
        _a, profile, _r = trace_module(m)
        plan = plan_ppp(m, profile.scale(0.5))
        # Relative criteria: the halved profile plans identically.
        base = plan_ppp(m, profile)
        for name in m.functions:
            assert plan.functions[name].instrumented == \
                base.functions[name].instrumented


class TestAblationHelpers:
    def test_normalise_guards_zero_tpp(self):
        assert _normalise(0.05, 0.0) == 1.0
        assert _normalise(0.05, 0.10) == pytest.approx(0.5)

    def test_select_benchmarks_gate(self):
        class FakeTech:
            def __init__(self, ov):
                self.overhead = ov

        class FakeResult:
            def __init__(self, tpp, ppp):
                self.techniques = {"tpp": FakeTech(tpp),
                                   "ppp": FakeTech(ppp)}

        results = {
            "big_win": FakeResult(0.10, 0.05),    # 50% better
            "small_win": FakeResult(0.10, 0.097),  # 3% better
            "zero_tpp": FakeResult(0.0, 0.0),
            "worse": FakeResult(0.05, 0.06),
        }
        assert select_benchmarks(results) == ["big_win"]


class TestPlanReportHash:
    def test_hash_label_shown(self):
        # A routine with > 4000 paths planned by PP reports 'hash table'.
        from repro.core import format_function_plan, plan_pp
        tests = "\n".join(
            f"    if ((x >> {i}) & 1) {{ s = s + 1; }} "
            f"else {{ s = s - 1; }}" for i in range(13))
        m = compile_source(f"""
            func wide(x) {{
                s = 0;
            {tests}
                return s;
            }}
            func main() {{ return wide(5); }}
        """)
        plan = plan_pp(m)
        text = format_function_plan(plan.functions["wide"])
        assert "hash table" in text
        assert "8192 possible paths" in text


class TestHarnessVerbose:
    def test_run_suite_verbose_prints_progress(self, capsys,
                                               profiling_session):
        from repro.workloads import get_workload
        profiling_session.run_suite([get_workload("sixtrack")],
                                    verbose=True)
        out = capsys.readouterr().out
        assert "running sixtrack" in out


class TestJsonExport:
    def test_suite_export_round_trips_through_json(self, profiling_session):
        import json
        from repro.harness import suite_to_dict
        from repro.workloads import get_workload
        results = {"sixtrack": profiling_session.run_workload(
            get_workload("sixtrack"))}
        data = json.loads(json.dumps(suite_to_dict(results)))
        assert data["kind"] == "ppp-repro-suite-results"
        bench = data["benchmarks"][0]
        assert bench["benchmark"] == "sixtrack"
        assert set(bench["techniques"]) == {"pp", "tpp", "ppp"}
        assert 0.0 <= bench["techniques"]["ppp"]["accuracy"] <= 1.0
        assert bench["table2"]["hot_paths_strict"] <= \
            bench["table2"]["hot_paths_loose"]

    def test_cli_json_flag(self, tmp_path, capsys):
        import json
        from repro.harness.__main__ import main
        out = tmp_path / "metrics.json"
        assert main(["fig12", "--benchmarks", "sixtrack", "--quiet",
                     "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["benchmarks"][0]["benchmark"] == "sixtrack"
