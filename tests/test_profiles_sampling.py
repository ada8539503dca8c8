"""Tests for edge-profile sampling."""

import pytest

from repro.lang import compile_source
from repro.profiles import sample_edge_profile

from conftest import SMALL_PROGRAM, trace_module


@pytest.fixture(scope="module")
def env():
    m = compile_source(SMALL_PROGRAM, name="small")
    _actual, profile, _r = trace_module(m)
    return m, profile


class TestSampling:
    def test_full_rate_is_identityish(self, env):
        _m, profile = env
        sampled = sample_edge_profile(profile, 1.0)
        for name, fp in profile.functions.items():
            assert sampled[name].edge_freq == fp.edge_freq
            assert sampled[name].entry_count == fp.entry_count

    def test_deterministic_per_seed(self, env):
        _m, profile = env
        a = sample_edge_profile(profile, 0.1, seed=7)
        b = sample_edge_profile(profile, 0.1, seed=7)
        for name in profile.functions:
            assert a[name].edge_freq == b[name].edge_freq
        c = sample_edge_profile(profile, 0.1, seed=8)
        assert any(a[name].edge_freq != c[name].edge_freq
                   for name in profile.functions)

    def test_rescaling_keeps_magnitudes(self, env):
        _m, profile = env
        sampled = sample_edge_profile(profile, 0.1, seed=3)
        # Total unit flow should stay in the right ballpark after
        # thinning + rescaling (within 3x either way).
        original = profile.total_unit_flow()
        scaled = sampled.total_unit_flow()
        assert original / 3 <= scaled <= original * 3

    def test_executed_functions_stay_executed(self, env):
        _m, profile = env
        sampled = sample_edge_profile(profile, 0.01, seed=5)
        for name, fp in profile.functions.items():
            if fp.executed():
                assert sampled[name].executed(), name

    def test_rare_edges_can_vanish(self, env):
        _m, profile = env
        sampled = sample_edge_profile(profile, 0.01, seed=2)
        kept = sum(len(fp.edge_freq)
                   for fp in sampled.functions.values())
        total = sum(len(fp.edge_freq)
                    for fp in profile.functions.values())
        assert kept <= total

    def test_independent_of_edge_order(self, env):
        """The two backends fold edge counts in different orders; the
        sampled profile must not depend on it."""
        from repro.profiles import EdgeProfile, FunctionEdgeProfile
        _m, profile = env
        reversed_profile = EdgeProfile(profile.module, {
            name: FunctionEdgeProfile(
                fp.func, dict(reversed(list(fp.edge_freq.items()))),
                fp.entry_count)
            for name, fp in profile.functions.items()})
        a = sample_edge_profile(profile, 0.1, seed=4)
        b = sample_edge_profile(reversed_profile, 0.1, seed=4)
        for name in profile.functions:
            assert a[name].edge_freq == b[name].edge_freq
            assert a[name].entry_count == b[name].entry_count

    def test_invalid_rate_rejected(self, env):
        _m, profile = env
        with pytest.raises(ValueError):
            sample_edge_profile(profile, 0.0)
        with pytest.raises(ValueError):
            sample_edge_profile(profile, 1.5)

    def test_large_counts_use_gaussian_path(self, env):
        # Exercise the normal-approximation branch deterministically.
        from repro.profiles.sampling import _thin
        import random
        rng = random.Random(11)
        kept = _thin(1_000_000, 0.1, rng)
        assert 80_000 <= kept <= 120_000
        assert _thin(0, 0.5, rng) == 0
        assert _thin(10, 1.0, rng) == 10


class TestSamplingUnit:
    """Direct unit tests of the module internals (the stochastic
    thinning helper, structure preservation, input isolation) — the
    deterministic stride sampler lives in repro.analysis.sampling and
    is tested with the conservation suite."""

    def test_thin_is_bounded_and_deterministic(self):
        import random
        from repro.profiles.sampling import _thin
        for count in (1, 7, 100, 1024):  # the exact binomial branch
            kept = _thin(count, 0.5, random.Random(3))
            assert 0 <= kept <= count
        a = _thin(500, 0.3, random.Random(9))
        b = _thin(500, 0.3, random.Random(9))
        assert a == b

    def test_structure_preserved(self, env):
        _m, profile = env
        sampled = sample_edge_profile(profile, 0.5, seed=1)
        assert sampled.module is profile.module
        assert set(sampled.functions) == set(profile.functions)
        for name, fp in sampled.functions.items():
            original = profile.functions[name]
            assert fp.func is original.func
            assert set(fp.edge_freq) <= set(original.edge_freq)
            assert all(c >= 1 for c in fp.edge_freq.values())

    def test_original_profile_untouched(self, env):
        _m, profile = env
        before = {name: dict(fp.edge_freq)
                  for name, fp in profile.functions.items()}
        entries = {name: fp.entry_count
                   for name, fp in profile.functions.items()}
        sample_edge_profile(profile, 0.2, seed=4)
        assert before == {name: dict(fp.edge_freq)
                          for name, fp in profile.functions.items()}
        assert entries == {name: fp.entry_count
                           for name, fp in profile.functions.items()}
