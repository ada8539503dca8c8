"""Flow-conservation counter inference: placement structure on hand
CFGs, the V6xx proof pass (zero false positives on the suite), seeded
placement corruptions all detected, probe counting equal to a hook on
every edge on both backends and through the session, and the CLI entry
points."""

import dataclasses
import json
import re

import pytest

from conftest import SMALL_PROGRAM, diamond_cfg, fig8_function, \
    fig8_profile, hook_edge_counts, loop_cfg, trace_module

from repro.analysis import Severity
from repro.analysis.conservation import (ConservationError, VIRTUAL_UID,
                                         basis_flows, block_counts,
                                         enumerate_walk_flows,
                                         measured_edge_weights,
                                         plan_function_probes, plan_probes,
                                         reconstruct, static_placement)
from repro.analysis.equiv import _CodegenChecker, standard_modes
from repro.analysis.diagnostics import Report
from repro.analysis.mutate import CONSERVATION_MUTATIONS, mutate_placement
from repro.analysis.sampling import SAMPLE_TARGET, sample_ids, sample_stride
from repro.analysis.verify import (verify_conservation,
                                   verify_conservation_function,
                                   verify_placement)
from repro.cfg import ControlFlowGraph, build_cfg
from repro.interp.codegen import ModeSpec, generate_source
from repro.lang import compile_source
from repro.profilers import create_profilers
from repro.profilers.drive import execute_profilers
from repro.workloads import get_workload


def _errors(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


def _components(cfg):
    """Undirected connected components spanned by non-self-loop edges."""
    parent = {b: b for b in cfg.blocks}

    def find(b):
        while parent[b] != b:
            b = parent[b]
        return b

    for e in cfg.edges():
        if e.src != e.dst:
            parent[find(e.src)] = find(e.dst)
    return len({find(b) for b in cfg.blocks})


# ----------------------------------------------------------------------
# Placement structure on hand-built CFGs
# ----------------------------------------------------------------------

def test_diamond_needs_one_probe():
    cfg = diamond_cfg()
    placement = plan_probes(cfg)
    assert placement.num_edges == 4
    assert placement.num_probes == 1
    assert placement.probe_uids.isdisjoint(placement.tree_uids)
    assert placement.probe_uids | placement.tree_uids == \
        {e.uid for e in cfg.edges()}


def test_diamond_round_trip():
    cfg = diamond_cfg()
    placement = plan_probes(cfg)
    # Two activations: one down each diamond arm.
    dense = {cfg.edge("A", "B").uid: 1, cfg.edge("A", "C").uid: 1,
             cfg.edge("B", "D").uid: 1, cfg.edge("C", "D").uid: 1}
    probes = {uid: dense[uid] for uid in placement.probe_uids}
    assert reconstruct(placement, probes, entry_count=2) == dense
    blocks = block_counts(cfg, dense, entry_count=2)
    assert blocks == {"A": 2, "B": 1, "C": 1, "D": 2}


def test_loop_round_trip_with_iterations():
    cfg = loop_cfg()
    placement = plan_probes(cfg)
    assert placement.num_probes == 1
    # One activation spinning the loop 5 times.
    dense = {cfg.edge("E", "H").uid: 1, cfg.edge("H", "B").uid: 5,
             cfg.edge("B", "H").uid: 5, cfg.edge("H", "X").uid: 1}
    probes = {uid: dense[uid] for uid in placement.probe_uids}
    assert reconstruct(placement, probes, entry_count=1) == dense


def test_self_loop_is_always_probed():
    cfg = build_cfg("selfloop",
                    [("A", "B"), ("B", "B"), ("B", "C")], "A", "C")
    self_uid = next(e.uid for e in cfg.edges() if e.src == e.dst)
    placement = plan_probes(cfg)
    assert self_uid in placement.probe_uids
    assert self_uid not in placement.tree_uids
    dense = {cfg.edge("A", "B").uid: 3, self_uid: 12,
             cfg.edge("B", "C").uid: 3}
    probes = {uid: dense[uid] for uid in placement.probe_uids}
    assert reconstruct(placement, probes, entry_count=3) == dense


def test_parallel_edges_admit_one_tree_member():
    cfg = ControlFlowGraph("parallel")
    for name in ("A", "B", "C"):
        cfg.add_block(name)
    first = cfg.add_edge("A", "B")
    second = cfg.add_edge("A", "B")
    cfg.add_edge("B", "C")
    cfg.set_entry("A")
    cfg.set_exit("C")
    placement = plan_probes(cfg)
    assert placement.num_probes == 1
    bundle = {first.uid, second.uid}
    assert len(bundle & placement.tree_uids) == 1
    probe = next(iter(placement.probe_uids))
    assert probe in bundle
    dense = {first.uid: 2, second.uid: 3, cfg.edge("B", "C").uid: 5}
    probes = {probe: dense[probe]}
    assert reconstruct(placement, probes, entry_count=5) == dense


def test_probe_count_is_cotree_size():
    for cfg in (diamond_cfg(), loop_cfg(),
                build_cfg("chain", [("A", "B"), ("B", "C")], "A", "C")):
        placement = plan_probes(cfg)
        expected = cfg.num_edges - (len(cfg.blocks) - _components(cfg))
        assert placement.num_probes == expected, cfg.name
        assert placement.dropped_fraction == \
            1.0 - expected / cfg.num_edges


def test_missing_entry_exit_rejected():
    cfg = ControlFlowGraph("headless")
    cfg.add_block("A")
    with pytest.raises(ConservationError):
        plan_probes(cfg)


def test_measured_weights_keep_hot_edges_probe_free():
    func = fig8_function()
    profile = fig8_profile(func)
    placement = plan_function_probes(func, profile)
    cfg = func.cfg
    assert placement.num_probes == 2
    # The max-weight tree keeps the hot diamond arms; the probes land
    # on cold-side edges (deterministic given weights and uid ties).
    assert placement.probe_uids == {cfg.edge("C", "D").uid,
                                    cfg.edge("F", "G").uid}
    weights = measured_edge_weights(profile)
    hottest = max(weights, key=weights.get)
    assert hottest in placement.tree_uids
    # The proof holds under measured weights too.
    assert _errors(verify_placement(func, placement)) == []


def test_reconstruct_zero_handling():
    cfg = diamond_cfg()
    placement = plan_probes(cfg)
    # Never invoked: everything reconstructs to zero and drops out,
    # exactly like a dense collection of an un-executed function.
    assert reconstruct(placement, {}, entry_count=0) == {}
    full = reconstruct(placement, {}, entry_count=0, keep_zeros=True)
    assert full == {e.uid: 0 for e in cfg.edges()}


def test_basis_flows_satisfy_conservation():
    for cfg in (diamond_cfg(), loop_cfg()):
        placement = plan_probes(cfg)
        for n, flow in basis_flows(cfg, placement):
            for name in cfg.blocks:
                inflow = sum(flow.get(e.uid, 0) for e in cfg.in_edges(name)
                             if e.src != e.dst)
                outflow = sum(flow.get(e.uid, 0)
                              for e in cfg.out_edges(name)
                              if e.src != e.dst)
                inflow += n if name == cfg.entry else 0
                outflow += n if name == cfg.exit else 0
                assert inflow == outflow, (cfg.name, name)


def test_walk_enumeration_bounds():
    walks, exhausted = enumerate_walk_flows(diamond_cfg())
    assert exhausted and len(walks) == 2
    walks, exhausted = enumerate_walk_flows(diamond_cfg(), max_walks=1)
    assert not exhausted and len(walks) == 1
    # The loop CFG terminates despite its cycle (back-edge budget).
    walks, exhausted = enumerate_walk_flows(loop_cfg())
    assert exhausted
    assert all(w for w in walks)


# ----------------------------------------------------------------------
# The proof pass: zero false positives
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["vpr", "mcf", "parser"])
def test_suite_placements_prove_clean(name):
    module = get_workload(name).compile(1)
    report = verify_conservation(module)
    assert report.ok, report.format()
    assert not report.errors() and not report.warnings()
    # One V600 statistics note per function.
    v600 = [d for d in report if d.code == "V600"]
    assert len(v600) == len(module.functions)


def test_measured_profiles_prove_clean(small_module, small_truth):
    _actual, edge_profile, _result = small_truth
    report = verify_conservation(small_module,
                                 profiles=edge_profile.functions)
    assert report.ok, report.format()
    assert any("measured weights" in d.message for d in report
               if d.code == "V600")


def test_static_placement_memoised(small_module):
    func = next(iter(small_module.functions.values()))
    assert static_placement(func) is static_placement(func)


# ----------------------------------------------------------------------
# Seeded placement corruptions: all detected
# ----------------------------------------------------------------------

def _placement_with_probes(module):
    for func in module.functions.values():
        placement = plan_function_probes(func)
        if placement.num_probes:
            return func, placement
    raise AssertionError("no function with probes")


@pytest.mark.parametrize("kind", CONSERVATION_MUTATIONS)
def test_mutation_detected(small_module, kind):
    func, placement = _placement_with_probes(small_module)
    assert _errors(verify_placement(func, placement)) == []
    mutated = mutate_placement(placement, kind)
    assert mutated is not None, f"{kind}: no site"
    diags = _errors(verify_placement(func, mutated))
    assert diags, f"{kind}: corruption not detected"


def test_mutation_specific_codes(small_module):
    func, placement = _placement_with_probes(small_module)

    def codes(kind):
        return {d.code for d in _errors(
            verify_placement(func, mutate_placement(placement, kind)))}

    assert "V602" in codes("probe-on-tree-edge")
    assert "V602" in codes("drop-cotree-probe")
    assert "V603" in codes("wrong-recon-coefficient")


def test_unknown_mutation_kind_rejected(small_module):
    _func, placement = _placement_with_probes(small_module)
    with pytest.raises(ValueError, match="unknown conservation mutation"):
        mutate_placement(placement, "bogus")


def test_drop_probe_inapplicable_on_tree_only_function():
    func = compile_source("func main() { return 7; }",
                          name="straight").functions["main"]
    placement = plan_function_probes(func)
    assert placement.num_probes == 0
    assert mutate_placement(placement, "drop-cotree-probe") is None


# ----------------------------------------------------------------------
# Probe codegen: the translation validator catches probe bugs
# ----------------------------------------------------------------------

def _sparse_spec_and_result(module):
    for func in module.functions.values():
        if not static_placement(func).num_probes:
            continue
        spec = ModeSpec(profile=True)
        return func, spec, generate_source(func, module, spec)
    raise AssertionError("no function with probes")


def _counted_keys(result):
    return {result.edge_keys[int(i)]
            for i in re.findall(r"_ec\[(\d+)\] \+= 1", result.source)}


def test_sparse_mode_in_standard_lattice(small_module):
    # Every counting mode of the lattice counts exactly the probes.
    func, _spec, _result = _sparse_spec_and_result(small_module)
    counting = [m for m in standard_modes(func) if m.profile]
    assert len(counting) == 5  # x trace x hooks, plus the recording's
    for spec in counting:
        result = generate_source(func, small_module, spec)
        assert _counted_keys(result) == static_placement(func).probe_keys


def test_sparse_codegen_validates_clean(small_module):
    func, spec, result = _sparse_spec_and_result(small_module)
    report = Report(title="sparse clean")
    _CodegenChecker(func, small_module, spec, result, report).run()
    assert report.ok, report.format()


def test_dropped_probe_counter_is_caught(small_module):
    from repro.analysis.mutate import mutate_source
    func, spec, result = _sparse_spec_and_result(small_module)
    mutated = mutate_source(result.source, "cg-drop-count")
    assert mutated is not None  # the code carries probe counters
    report = Report(title="sparse dropped probe")
    _CodegenChecker(func, small_module, spec,
                    dataclasses.replace(result, source=mutated),
                    report).run()
    assert "E105" in {d.code for d in report.errors()}


def test_misplaced_probe_set_is_caught(small_module):
    # Moving one probe's increment onto a spanning-tree edge's counter
    # is a finding: the validator derives the probe set itself.
    func, spec, result = _sparse_spec_and_result(small_module)
    probes = static_placement(func).probe_keys
    tree_slot = next(i for i, key in enumerate(result.edge_keys)
                     if key not in probes)
    source = re.sub(r"_ec\[\d+\] \+= 1", f"_ec[{tree_slot}] += 1",
                    result.source, count=1)
    report = Report(title="probe moved to a tree edge")
    _CodegenChecker(func, small_module, spec,
                    dataclasses.replace(result, source=source), report).run()
    assert "E105" in {d.code for d in report.errors()}


# ----------------------------------------------------------------------
# Probe counting: edge profiles equal a hook on every edge
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["tuple", "compiled"])
def test_sparse_profiler_matches_dense(backend):
    module = get_workload("vpr").compile(1)
    counted = execute_profilers(module, create_profilers(["edges"]),
                                backend=backend).profiles["edges"]
    _result, dense = hook_edge_counts(module, backend=backend)
    assert counted == dense
    assert json.dumps({f: sorted(c.items()) for f, c in sorted(
        counted.items())}) == json.dumps(
        {f: sorted(c.items()) for f, c in sorted(dense.items())})


def test_sparse_matches_dense_through_session(tmp_path):
    from repro.engine import ArtifactCache, ProfilingSession
    workloads = [get_workload("vpr"), get_workload("mcf")]

    def check(session):
        results = session.run_suite(workloads, scale=1)
        for result in results.values():
            _result, dense = hook_edge_counts(result.expanded)
            assert result.profiles["edges"] == dense

    serial = ProfilingSession(
        cache=ArtifactCache(disk_dir=str(tmp_path / "c")),
        profilers=("edges",))
    check(serial)
    # Warm re-run: served from the artifact cache.
    check(serial)
    parallel = ProfilingSession(
        cache=ArtifactCache(), jobs=2, profilers=("edges",))
    check(parallel)


# ----------------------------------------------------------------------
# Shared sampling helper
# ----------------------------------------------------------------------

def test_sample_stride_and_ids():
    assert sample_stride(10) == 1
    assert sample_stride(SAMPLE_TARGET * 5) == 5
    assert list(sample_ids(3)) == [0, 1, 2]
    ids = sample_ids(SAMPLE_TARGET * 4)
    assert len(ids) <= SAMPLE_TARGET + 1
    assert ids[0] == 0
    with pytest.raises(ValueError):
        sample_stride(100, target=0)


# ----------------------------------------------------------------------
# CLI entry points
# ----------------------------------------------------------------------

def _write_program(tmp_path):
    path = tmp_path / "prog.minic"
    path.write_text(SMALL_PROGRAM)
    return str(path)


def test_cli_conserve_file(tmp_path, capsys):
    from repro.__main__ import main
    assert main(["conserve", _write_program(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "conserve: 1 module: 1 ok, 0 failed" in out


def test_cli_conserve_suite_json(capsys):
    from repro.__main__ import main
    assert main(["conserve", "--suite", "--benchmarks", "vpr",
                 "--cache-dir", ""]) == 0
    capsys.readouterr()
    assert main(["conserve", "--suite", "--benchmarks", "vpr",
                 "--cache-dir", "", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "conserve" and payload["ok"]
