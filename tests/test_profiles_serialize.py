"""Tests for profile serialization (JSON round trips, cross-compile
transfer, error handling)."""

import io
import json

import pytest

from repro.lang import compile_source
from repro.profiles import (load_edge_profile, save_edge_profile,
                            edge_profile_from_dict, edge_profile_to_dict)

from conftest import SMALL_PROGRAM, trace_module


@pytest.fixture(scope="module")
def env():
    m = compile_source(SMALL_PROGRAM, name="small")
    actual, profile, result = trace_module(m)
    return m, actual, profile


class TestEdgeProfileRoundTrip:
    def test_round_trip_preserves_frequencies(self, env):
        m, _a, profile = env
        buf = io.StringIO()
        save_edge_profile(profile, buf)
        buf.seek(0)
        loaded = load_edge_profile(buf, m)
        for name, fp in profile.functions.items():
            lp = loaded[name]
            assert lp.entry_count == fp.entry_count
            for edge in m.functions[name].cfg.edges():
                assert lp.freq(edge) == fp.freq(edge), (name, edge)

    def test_transfer_to_fresh_compile(self, env):
        m, _a, profile = env
        m2 = compile_source(SMALL_PROGRAM, name="small2")
        data = edge_profile_to_dict(profile)
        moved = edge_profile_from_dict(data, m2)
        assert moved.total_unit_flow() == profile.total_unit_flow()
        # The moved profile plans identically against the new module.
        from repro.core import plan_ppp
        plan1 = plan_ppp(m, profile)
        plan2 = plan_ppp(m2, moved)
        for name in m.functions:
            assert plan1.functions[name].instrumented == \
                plan2.functions[name].instrumented
            assert plan1.functions[name].num_paths == \
                plan2.functions[name].num_paths

    def test_mismatched_module_rejected(self, env):
        _m, _a, profile = env
        other = compile_source(
            "func main() { return 1; }", name="other")
        data = edge_profile_to_dict(profile)
        # "main" exists in both but has different blocks.
        with pytest.raises(ValueError):
            edge_profile_from_dict(data, other)

    def test_wrong_kind_rejected(self, env):
        m, _a, profile = env
        data = edge_profile_to_dict(profile)
        data["kind"] = "something-else"
        with pytest.raises(ValueError):
            edge_profile_from_dict(data, m)

    def test_wrong_version_rejected(self, env):
        m, _a, profile = env
        data = edge_profile_to_dict(profile)
        data["version"] = 999
        with pytest.raises(ValueError):
            edge_profile_from_dict(data, m)

    def test_json_is_plain_data(self, env):
        _m, _a, profile = env
        text = json.dumps(edge_profile_to_dict(profile))
        assert json.loads(text)["kind"] == "edge-profile"
