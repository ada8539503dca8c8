"""Tests for the NET-vs-PPP, staleness, and matching studies, and
the CLI."""

import pytest

from repro.engine import ArtifactCache, ProfilingSession
from repro.harness import (compare_net, hpt_table, matching_rows_to_dict,
                           matching_study, matching_table, net_table,
                           staleness_study, staleness_table)
from repro.harness.matching_study import (derive_layout,
                                          derive_module_layouts)
from repro.interp import Machine
from repro.lang import compile_source
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def contrasting(profiling_session):
    run = profiling_session.run_workload
    return {
        "mcf": run(get_workload("mcf")),        # dominant paths
        "crafty": run(get_workload("crafty")),  # many warm paths
    }


class TestNetStudy:
    def test_paper_claim_dominant_vs_warm(self, contrasting,
                                          profiling_session):
        skewed = compare_net(contrasting["mcf"], session=profiling_session)
        warm = compare_net(contrasting["crafty"],
                           session=profiling_session)
        # NET does far better where a few paths dominate ...
        assert skewed.net_hot_flow_captured > warm.net_hot_flow_captured
        # ... and PPP beats NET in both regimes.
        assert skewed.ppp_hot_flow_captured > \
            skewed.net_hot_flow_captured
        assert warm.ppp_hot_flow_captured > \
            warm.net_hot_flow_captured + 0.3

    def test_net_table_renders(self, contrasting, profiling_session):
        text = net_table(contrasting, session=profiling_session)
        assert "NET capture" in text and "mcf" in text


class TestWarmPathStreams:
    def test_warm_hpt_and_net_run_no_interpreter(self, tmp_path,
                                                 monkeypatch):
        workloads = [get_workload(n) for n in ("twolf", "applu")]

        def render(session):
            results = session.run_suite(workloads)
            return (hpt_table(results, session=session),
                    net_table(results, session=session))

        cold = render(ProfilingSession(ArtifactCache(disk_dir=tmp_path)))

        def refuse(*_args, **_kwargs):
            raise AssertionError("a warm pass ran the interpreter")

        monkeypatch.setattr(Machine, "run", refuse)
        warm_session = ProfilingSession(ArtifactCache(disk_dir=tmp_path))
        assert render(warm_session) == cold
        stream = warm_session.stats.of("stream")
        assert stream.misses == 0
        assert stream.disk_hits == len(workloads)


class TestStaleness:
    def test_stale_advice_still_safe(self, profiling_session):
        row = staleness_study(get_workload("twolf"),
                              session=profiling_session)
        # Deterministic workloads with scale-invariant distributions:
        # stale advice plans nearly as well as self advice (an honest
        # robustness result, recorded in EXPERIMENTS.md).
        assert row.stale_accuracy >= row.fresh_accuracy - 0.10
        assert row.stale_coverage >= row.fresh_coverage - 0.10
        assert row.stale_overhead <= row.fresh_overhead + 0.05

    def test_staleness_table_renders(self, profiling_session):
        text = staleness_table([get_workload("mcf")], profiling_session)
        assert "Acc stale" in text and "mcf" in text


class TestMatchingStudy:
    @pytest.fixture(scope="class")
    def row(self, profiling_session):
        return matching_study(get_workload("mcf"),
                              session=profiling_session)

    def test_remap_recovers_most_of_the_profile(self, row):
        # The PR acceptance bar: the matcher carries >= 80% of the old
        # edge counts across a structural edit, the repaired profile's
        # flow distribution tracks fresh ground truth, and layout
        # planning derives the same layouts it would from fresh counts.
        assert row.retained >= 0.8
        assert row.edge_accuracy >= 0.95
        assert row.layout_agreement >= 0.99
        assert row.block_coverage >= 0.8

    def test_table_and_json_render(self, row, profiling_session):
        text = matching_table([get_workload("mcf")], profiling_session)
        assert "Retained" in text and "mcf" in text
        data = matching_rows_to_dict([row])
        assert data["schema"] == 1
        assert data["workloads"]["mcf"]["retained"] == row.retained
        assert data["mean_retained"] == pytest.approx(row.retained)


class TestLayoutPlanning:
    @pytest.fixture(scope="class")
    def mcf(self, profiling_session):
        module = profiling_session.compile(get_workload("mcf"))
        _paths, profile, _rv = profiling_session.trace(module)
        return module, profile

    def test_hot_functions_are_planned(self, mcf):
        module, profile = mcf
        layouts = derive_module_layouts(module, profile)
        assert layouts  # something in mcf is hot
        for name, plan in layouts.items():
            blocks = set(module.functions[name].cfg.blocks)
            assert plan.hot_blocks <= blocks
            assert plan.cold_blocks <= blocks
            assert not (plan.hot_blocks & plan.cold_blocks)

    def test_function_that_never_ran_is_not_planned(self,
                                                    profiling_session):
        module = compile_source("""
            func dead(x) { return x + 1; }
            func main() { s = 0;
                for (i = 0; i < 2000; i = i + 1) { s = s + i; }
                return s; }""")
        _paths, profile, _rv = profiling_session.trace(module)
        assert derive_layout(module.functions["dead"],
                             profile.functions.get("dead")) is None
        assert set(derive_module_layouts(module, profile)) == {"main"}

    def test_plans_are_deterministic(self, mcf):
        module, profile = mcf
        _paths, again, _rv = ProfilingSession().trace(module)
        assert again is not profile
        assert derive_module_layouts(module, again) == \
            derive_module_layouts(module, profile)


class TestCli:
    @pytest.fixture()
    def program(self, tmp_path):
        path = tmp_path / "prog.minic"
        path.write_text("""
            func f(x) {
                if (x % 7 == 0) { return x * 2; }
                return x + 1;
            }
            func main() {
                s = 0;
                for (i = 0; i < 200; i = i + 1) { s = s + f(i); }
                return s;
            }
        """)
        return str(path)

    def test_run(self, program, capsys):
        from repro.__main__ import main
        assert main(["run", program]) == 0
        out = capsys.readouterr().out
        assert "return value:" in out

    def test_profile_and_saved_profile(self, program, tmp_path, capsys):
        from repro.__main__ import main
        prof = str(tmp_path / "edge.json")
        assert main(["profile", program, "--technique", "pp",
                     "--save-edge-profile", prof]) == 0
        out = capsys.readouterr().out
        assert "technique: PP" in out and "accuracy" in out
        assert main(["profile", program, "--edge-profile", prof]) == 0
        out = capsys.readouterr().out
        assert "using saved edge profile" in out

    def test_disasm(self, program, capsys):
        from repro.__main__ import main
        assert main(["disasm", program, "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "func main()" in out and "scalar cleanup" in out

    def test_dot(self, program, capsys):
        from repro.__main__ import main
        assert main(["dot", program, "f", "--dag"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_dot_unknown_function(self, program, capsys):
        from repro.__main__ import main
        assert main(["dot", program, "ghost"]) == 1

    def test_unknown_benchmark_message_is_not_nested(self, capsys):
        from repro.__main__ import main
        assert main(["verify", "--benchmarks", "nosuch",
                     "--cache-dir", ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload 'nosuch'; known: ")
        assert err.count("unknown") == 1
