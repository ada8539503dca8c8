"""Stale-profile matching and transfer: unit tests plus the V7xx
mutation gate.

The contract under test: a self-match is the identity and transfers
losslessly (byte-identical serialization); a rename-only edit matches
every block and keeps every count; a structural edit still yields an
injective match whose transferred profile satisfies Kirchhoff
conservation exactly; and every seeded corruption of a match or a
transferred profile is flagged by V701/V702 with zero false positives
on pristine transfers.
"""

import json

import pytest

from repro.analysis import (MATCH_MUTATIONS, clear_match_memo,
                            conservation_violations, match_modules,
                            match_sketches, mutate_transfer,
                            remap_edge_profile, sketch_from_dict,
                            sketch_module, sketch_to_dict, verify_match,
                            verify_transfer)
from repro.engine import ArtifactCache, ProfilingSession
from repro.harness import seeded_edit
from repro.interp import Machine, MachineError
from repro.lang import compile_source
from repro.profiles import (EdgeProfile, PathProfile,
                            edge_profile_from_dict_or_remap,
                            edge_profile_to_dict, save_edge_profile,
                            load_edge_profile)
from repro.workloads import random_module

from conftest import SMALL_PROGRAM, trace_module


@pytest.fixture(scope="module")
def env():
    module = compile_source(SMALL_PROGRAM, name="small")
    paths, profile, _result = trace_module(module)
    return module, paths, profile


def _serialized(profile):
    return json.dumps(edge_profile_to_dict(profile), sort_keys=True)


class TestSketch:
    def test_round_trip(self, env):
        module, _paths, _profile = env
        sketch = sketch_module(module)
        data = sketch_to_dict(sketch)
        assert sketch_to_dict(sketch_from_dict(data)) == data

    def test_round_trip_matches_like_the_original(self, env):
        module, _paths, _profile = env
        sketch = sketch_module(module)
        revived = sketch_from_dict(sketch_to_dict(sketch))
        match = match_sketches(revived, sketch_module(module))
        for fm in match.functions:
            assert fm.block_coverage == 1.0
            assert all(old == new
                       for old, new in fm.block_map().items())


class TestSelfMatch:
    def test_identity_block_maps(self, env):
        module, _paths, _profile = env
        match = match_modules(module, module)
        assert match.identical
        for fm in match.functions:
            assert fm.old == fm.new
            block_map = fm.block_map()
            assert block_map == {b: b for b in block_map}
            assert fm.block_coverage == 1.0
            assert fm.edge_coverage == 1.0
            assert fm.min_confidence > 0.0

    def test_transfer_is_byte_identical(self, env):
        module, paths, profile = env
        result = remap_edge_profile(profile, module, paths=paths)
        assert _serialized(result.profile) == _serialized(profile)
        assert result.stats.retained == 1.0
        report = verify_transfer(result, profile)
        assert report.ok, report.format()


class TestRenameOnly:
    def test_everything_survives_a_rename(self, env):
        module, paths, profile = env
        renamed = seeded_edit(module, seed=3, kinds=("rename",))
        result = remap_edge_profile(profile, renamed, paths=paths)
        assert result.stats.retained == 1.0
        for fm in result.match.functions:
            assert fm.block_coverage == 1.0
        for fprofile in result.profile.functions.values():
            assert conservation_violations(fprofile) == []
        # The renamed module computes the same result with the same
        # per-function flow totals, so the path profile survives too.
        assert result.paths is not None
        assert result.stats.dropped_paths == 0


class TestStructuralEdit:
    @pytest.fixture(scope="class")
    def transfer(self, env):
        module, paths, profile = env
        edited = seeded_edit(module, seed=5)  # rename + delete + insert
        return module, edited, profile, remap_edge_profile(
            profile, edited, paths=paths)

    def test_match_is_sound(self, transfer):
        module, edited, _profile, result = transfer
        report = verify_match(module, edited, result.match)
        assert report.ok, report.format()

    def test_transfer_is_conserved(self, transfer):
        _module, _edited, profile, result = transfer
        report = verify_transfer(result, profile)
        assert report.ok, report.format()
        for fprofile in result.profile.functions.values():
            assert conservation_violations(fprofile) == []

    def test_semantics_preserved_by_the_edit(self, transfer):
        _module, edited, _profile, _result = transfer
        _paths, _fresh, result = trace_module(edited)
        _paths0, _fresh0, result0 = trace_module(_module)
        assert result.return_value == result0.return_value


class TestSerializeRemap:
    def test_stale_load_remaps_via_embedded_sketch(self, env, tmp_path):
        module, _paths, profile = env
        path = tmp_path / "small.json"
        with open(path, "w") as handle:
            save_edge_profile(profile, handle, embed_sketch=True)
        edited = seeded_edit(module, seed=2)
        data = json.loads(path.read_text())
        loaded, match = edge_profile_from_dict_or_remap(data, edited)
        assert match is not None
        assert loaded.module is edited
        assert any(fp.entry_count for fp in loaded.functions.values())

    def test_exact_load_skips_matching(self, env, tmp_path):
        module, _paths, profile = env
        path = tmp_path / "small.json"
        with open(path, "w") as handle:
            save_edge_profile(profile, handle, embed_sketch=True)
        data = json.loads(path.read_text())
        loaded, match = edge_profile_from_dict_or_remap(data, module)
        assert match is None
        assert _serialized(loaded) == _serialized(profile)

    def test_stale_load_without_sketch_still_raises(self, env, tmp_path):
        module, _paths, profile = env
        path = tmp_path / "small.json"
        with open(path, "w") as handle:
            save_edge_profile(profile, handle)  # no embedded sketch
        edited = seeded_edit(module, seed=2)
        data = json.loads(path.read_text())
        with pytest.raises(ValueError):
            edge_profile_from_dict_or_remap(data, edited)
        with pytest.raises(ValueError), open(path) as handle:
            load_edge_profile(handle, edited)


class TestSessionWiring:
    def test_remap_profile_counts_and_caches(self, env):
        module, paths, profile = env
        session = ProfilingSession(cache=ArtifactCache())
        edited = seeded_edit(module, seed=4)
        first = session.remap_profile(profile, edited, paths=paths)
        again = session.remap_profile(profile, edited, paths=paths)
        assert _serialized(first.profile) == _serialized(again.profile)
        stats = session.cache.stats.of("remap")
        assert stats.remapped == 2  # one per serve, hit or miss
        assert stats.hits == 1 and stats.misses == 1


def _random_transfer(seed):
    """A pristine transfer across a seeded edit of a random module."""
    module = random_module(seed)
    machine = Machine(module, collect_edge_profile=True, trace_paths=True,
                      max_instructions=400_000)
    try:
        result = machine.run()
    except MachineError:
        return None
    paths = PathProfile.from_trace(module, result.path_counts)
    profile = EdgeProfile.from_run(module, result.edge_counts,
                                   result.invocations)
    edited = seeded_edit(module, seed=seed + 1)
    return module, edited, profile, remap_edge_profile(
        profile, edited, paths=paths)


class TestMutationGate:
    SEEDS = range(12)

    @pytest.fixture(scope="class")
    def transfers(self):
        clear_match_memo()
        out = [t for t in map(_random_transfer, self.SEEDS)
               if t is not None]
        assert len(out) >= 6, "too few runnable random modules"
        return out

    def test_pristine_transfers_have_zero_false_positives(self, transfers):
        for module, edited, profile, result in transfers:
            mreport = verify_match(module, edited, result.match)
            assert mreport.ok, mreport.format()
            treport = verify_transfer(result, profile)
            assert treport.ok, treport.format()

    def test_every_applicable_mutation_is_detected(self, transfers):
        applicable = {kind: 0 for kind in MATCH_MUTATIONS}
        missed = []
        for module, edited, profile, result in transfers:
            for kind in MATCH_MUTATIONS:
                mutated = mutate_transfer(result, kind)
                if mutated is None:
                    continue
                applicable[kind] += 1
                caught = (not verify_match(module, edited,
                                           mutated.match).ok
                          or not verify_transfer(mutated, profile).ok)
                if not caught:
                    missed.append((kind, module.name))
        assert missed == [], f"undetected corruptions: {missed}"
        never = [k for k, n in applicable.items() if n == 0]
        assert never == [], f"mutations never applicable: {never}"

    def test_mutating_leaves_the_original_untouched(self, transfers):
        module, edited, profile, result = transfers[0]
        mutated = mutate_transfer(result, "drop-repair")
        if mutated is not None:
            assert mutated is not result
        report = verify_transfer(result, profile)
        assert report.ok, report.format()

    def test_unknown_mutation_kind_raises(self, transfers):
        with pytest.raises(ValueError):
            mutate_transfer(transfers[0][3], "no-such-mutation")
