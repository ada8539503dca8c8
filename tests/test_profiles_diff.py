"""Tests for edge-profile diffing."""

import pytest

from repro.lang import compile_source

from conftest import trace_module

PHASED = """
func main() {
    s = 0;
    for (i = 0; i < @N@; i = i + 1) {
        if (i < 200) {
            if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }
        } else {
            if (i % 3 == 0) { s = s - 1; } else { s = s - 2; }
        }
    }
    return s;
}
"""


class TestEdgeDiff:
    """The edge-profile diff that backs `repro profiles diff`."""

    def _profiles(self):
        from repro.profiles import EdgeProfile
        m = compile_source(PHASED.replace("@N@", "400"))
        _a, before, _r = trace_module(m)
        m2 = compile_source(PHASED.replace("@N@", "100"))
        _a2, moved, _r2 = trace_module(m2)
        # Rebind the second run's counts onto the first module so the
        # diff sees two profiles of the same module object.
        after = EdgeProfile(m, {
            name: type(fp)(before.functions[name].func,
                           dict(fp.edge_freq), fp.entry_count)
            for name, fp in moved.functions.items()})
        return before, after

    def test_identical_profiles_have_zero_shift(self):
        from repro.profiles import diff_edge_profiles
        before, _after = self._profiles()
        diff = diff_edge_profiles(before, before)
        assert diff.total_shift == pytest.approx(0.0)
        assert diff.deltas == []

    def test_shift_detected_and_ordered(self):
        from repro.profiles import diff_edge_profiles
        before, after = self._profiles()
        diff = diff_edge_profiles(before, after)
        assert diff.total_shift > 0.0
        shifts = [abs(d.shift) for d in diff.deltas]
        assert shifts == sorted(shifts, reverse=True)
        assert "main" in diff.invocations

    def test_different_modules_rejected(self):
        from repro.profiles import diff_edge_profiles
        m1 = compile_source(PHASED.replace("@N@", "50"))
        m2 = compile_source(PHASED.replace("@N@", "50"))
        _a1, p1, _r1 = trace_module(m1)
        _a2, p2, _r2 = trace_module(m2)
        with pytest.raises(ValueError):
            diff_edge_profiles(p1, p2)

    def test_format_and_dict_round(self):
        from repro.profiles import diff_edge_profiles, format_edge_diff
        before, after = self._profiles()
        diff = diff_edge_profiles(before, after)
        text = format_edge_diff(diff)
        assert "shift" in text
        data = diff.to_dict()
        assert data["total_shift"] == pytest.approx(diff.total_shift)
        assert len(data["edges"]) == len(diff.deltas)
