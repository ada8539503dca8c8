"""Tests for the experiment harness (runner, tables, figures, ablation)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import (figure9, figure10, figure11, figure12, figure13,
                           one_at_a_time, select_benchmarks, table1,
                           table1_row, table2, table2_row)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def two_results(profiling_session):
    """Two cheap, contrasting workloads: branchy INT + loopy FP."""
    return {
        "twolf": profiling_session.run_workload(get_workload("twolf")),
        "swim": profiling_session.run_workload(get_workload("swim")),
    }


class TestRunner:
    def test_all_techniques_scored(self, two_results):
        for r in two_results.values():
            assert set(r.techniques) == {"pp", "tpp", "ppp"}
            for tech in r.techniques.values():
                assert 0.0 <= tech.accuracy <= 1.0
                assert 0.0 <= tech.coverage <= 1.0
                assert tech.overhead >= 0.0

    def test_paper_shape_overhead_ordering(self, two_results):
        for name, r in two_results.items():
            pp = r.techniques["pp"].overhead
            tpp = r.techniques["tpp"].overhead
            ppp = r.techniques["ppp"].overhead
            assert ppp <= tpp + 1e-9 <= pp + 2e-9, name

    def test_swim_uninstrumented_by_tpp_and_ppp(self, two_results):
        r = two_results["swim"]
        assert r.techniques["tpp"].functions_instrumented == 0
        assert r.techniques["ppp"].functions_instrumented == 0
        assert r.techniques["tpp"].overhead == 0.0

    def test_edge_metrics_bounded(self, two_results):
        for r in two_results.values():
            assert 0.0 <= r.edge_accuracy <= 1.0
            assert 0.0 <= r.edge_coverage <= 1.0

    def test_expansion_preserved_behaviour(self, two_results):
        # run_workload asserts this internally; double-check the record.
        for r in two_results.values():
            assert r.opt.speedup > 0


class TestRendering:
    def test_table1_mentions_benchmarks_and_averages(self, two_results):
        text = table1(two_results)
        assert "twolf" in text and "swim" in text
        assert "INT Avg" in text and "FP Avg" in text
        assert "Overall Avg" in text

    def test_table1_row_values(self, two_results):
        row = table1_row(two_results["swim"])
        assert row.avg_unroll_factor >= 1.0
        assert row.exp_avg_instrs >= row.orig_avg_instrs  # unrolling

    def test_table2_row_thresholds(self, two_results):
        row = table2_row(two_results["twolf"])
        assert row.hot_strict <= row.hot_loose <= row.distinct_paths
        assert row.hot_strict_flow <= row.hot_loose_flow <= 1.0
        assert "Distinct" in table2(two_results)

    def test_figures_render(self, two_results):
        for renderer in (figure9, figure10, figure11, figure12):
            text = renderer(two_results)
            assert "twolf" in text and "Average" in text

    def test_figure11_has_hash_columns(self, two_results):
        assert "PP hash" in figure11(two_results)


class TestAblation:
    def test_selection_gate(self, two_results):
        chosen = select_benchmarks(two_results)
        # swim has zero TPP overhead; it can never be selected.
        assert "swim" not in chosen

    def test_figure13_renders(self, two_results, profiling_session):
        text = figure13(two_results, session=profiling_session)
        assert "no SAC" in text and "no FP" in text

    def test_one_at_a_time_renders(self, two_results, profiling_session):
        text = one_at_a_time(two_results, session=profiling_session)
        assert "LC" in text and "SPN" in text


class TestCli:
    def test_main_runs_one_table(self, capsys):
        from repro.harness.__main__ import main
        rc = main(["table2", "--benchmarks", "swim", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "swim" in out and "Table 2" in out

    def test_unknown_benchmark_is_a_clean_error(self, capsys):
        from repro.harness.__main__ import main
        assert main(["table2", "--benchmarks", "nosuch", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload 'nosuch'")
        assert "Traceback" not in err

    def test_bad_chaos_spec_is_a_clean_error(self, capsys):
        from repro.harness.__main__ import main
        assert main(["table2", "--chaos", "bogus=1", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --chaos:") and "bogus" in err

    def test_unknown_profiler_is_a_clean_error(self, capsys):
        from repro.harness.__main__ import main
        assert main(["table2", "--profilers", "bogus", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown profiler 'bogus'")
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ("verify", "lint", "equiv",
                                         "conserve", "match"))
    def test_proof_commands_reject_fan_out_options(self, command, capsys):
        from repro.__main__ import main as repro_main
        with pytest.raises(SystemExit) as excinfo:
            repro_main([command, "--suite", "--timeout", "1"])
        assert excinfo.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_harness_keeps_fan_out_options(self, capsys):
        from repro.harness.__main__ import main
        # Parses (a parse error would exit 2), then fails cleanly on the
        # unknown workload.
        assert main(["table2", "--timeout", "1", "--retries", "0",
                     "--benchmarks", "nosuch", "--quiet"]) == 1
        capsys.readouterr()

    def test_equiv_flag_leaves_environment_as_found(self, capsys,
                                                    monkeypatch):
        from repro.harness.__main__ import main
        monkeypatch.delenv("REPRO_EQUIV", raising=False)
        argv = ["table2", "--no-cache", "--quiet", "--benchmarks", "applu"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--equiv"]) == 0
        assert capsys.readouterr().out == plain
        assert "REPRO_EQUIV" not in os.environ


# Every table/figure renderer ``harness all`` calls, by its name in
# ``repro.harness.__main__``.
RENDERERS = ("table1", "table2", "figure9", "figure10", "figure11",
             "figure12", "figure13", "one_at_a_time", "net_table",
             "superblock_table", "ifconvert_table", "metrics_table",
             "sampling_table", "hpt_table", "profiler_table",
             "matching_table")
WARM_ARGS = ["--quiet", "--benchmarks", "applu,swim"]


def _run_harness(argv, monkeypatch, capsys):
    """``harness.main(argv)``'s stdout and the session it drove."""
    import repro.harness.__main__ as cli
    build, sessions = cli.build_session, []

    def capture(*args, **kwargs):
        sessions.append(build(*args, **kwargs))
        return sessions[-1]

    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_session", capture)
        assert cli.main(argv) == 0
    return capsys.readouterr().out, sessions[0]


@pytest.fixture(scope="module")
def cold_all(tmp_path_factory):
    """A cold ``harness all`` over two small workloads: its stdout and
    the cache directory it filled."""
    import contextlib
    import io
    from repro.harness.__main__ import main
    cache_dir = str(tmp_path_factory.mktemp("table-cache"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["all", *WARM_ARGS, "--cache-dir", cache_dir]) == 0
    return out.getvalue(), cache_dir


class TestWarmTables:
    def test_warm_pass_renders_nothing(self, cold_all, monkeypatch,
                                       capsys):
        import repro.harness.__main__ as cli
        cold, cache_dir = cold_all

        def refuse(*_args, **_kwargs):
            raise AssertionError("a warm pass rendered a table")

        for name in RENDERERS:
            monkeypatch.setattr(cli, name, refuse)
        warm, session = _run_harness(
            ["all", *WARM_ARGS, "--cache-dir", cache_dir], monkeypatch,
            capsys)
        assert warm == cold
        assert session.stats.of("table").disk_hits == len(RENDERERS)
        assert session.stats.misses == 0

    @pytest.mark.parametrize("change", [
        ["--benchmarks", "swim,applu"],
        ["--benchmarks", "applu"],
        ["--benchmarks", "applu,swim", "--scale", "2"],
        ["--benchmarks", "applu,swim", "--backend", "tuple"],
        ["--benchmarks", "applu,swim", "--profilers", "calls"],
    ], ids=["order", "subset", "scale", "backend", "profilers"])
    def test_changed_suite_misses_the_table(self, cold_all, change,
                                            monkeypatch, capsys):
        _cold, cache_dir = cold_all
        _out, session = _run_harness(
            ["table2", "--quiet", *change, "--cache-dir", cache_dir],
            monkeypatch, capsys)
        table = session.stats.of("table")
        assert (table.hits, table.misses) == (0, 1)


class TestDeterminism:
    def test_fig12_identical_across_hash_seeds(self, tmp_path):
        """Edge uids are assigned in creation order, so iterating a set
        while building blocks/edges would leak hash order into plan
        tie-breaks and overhead numbers."""
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-m", "repro.harness", "fig12", "--quiet",
                 "--no-cache", "--benchmarks", "mcf"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                check=True)
            outputs.append(proc.stdout)
        assert "mcf" in outputs[0]
        assert outputs[0] == outputs[1]


class TestCrossBackend:
    def test_all_identical_on_both_backends(self, tmp_path):
        """Every study prints the same numbers on the tuple and compiled
        backends: no study may depend on the order in which a backend
        folds its edge counts."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        outputs = []
        for backend in ("tuple", "compiled"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.harness", "all", "--quiet",
                 "--no-cache", "--benchmarks", "twolf",
                 "--backend", backend],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                check=True)
            outputs.append(proc.stdout)
        assert "twolf" in outputs[0]
        assert outputs[0] == outputs[1]


class TestScaleRobustness:
    """The headline shapes must not depend on the default workload size."""

    def test_shapes_hold_at_scale_two(self, profiling_session):
        for name in ("twolf", "sixtrack"):
            r = profiling_session.run_workload(get_workload(name), scale=2)
            pp = r.techniques["pp"]
            tpp = r.techniques["tpp"]
            ppp = r.techniques["ppp"]
            assert ppp.overhead <= tpp.overhead + 1e-9 \
                <= pp.overhead + 2e-9, name
            assert ppp.accuracy >= 0.9, name
            assert 0.0 <= r.edge_coverage <= 1.0
            assert pp.instrumented_fraction == 1.0
