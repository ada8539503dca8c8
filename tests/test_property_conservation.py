"""Property-based flow-conservation checks over random programs.

``test_analysis_conservation`` proves placements and probe counting
correct on the stock suite; this file extends the contract to arbitrary
generated programs: every static placement passes the V6xx proof pass,
and the machine's edge counts -- cotree probes plus reconstruction --
equal a hook on every edge counting each traversal, on both backends
and in every profile-bearing observation mode.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import hook_edge_counts

from repro.analysis.conservation import static_placement
from repro.analysis.verify import verify_placement
from repro.interp import Machine, MachineError
from repro.workloads import random_module

_LIMIT = 400_000

_PROP_SETTINGS = dict(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much])

# (trace_paths, listener): the profile channel is always on here, since
# conservation only concerns edge counts; tracing and listeners ride
# along to prove probing does not disturb the fused observation paths.
_MODES = ((False, False), (True, False), (True, True))


def _module_or_skip(seed):
    try:
        return random_module(seed)
    except Exception as exc:  # pragma: no cover - generator bug guard
        pytest.skip(f"generator failed for seed {seed}: {exc}")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_random_placements_prove_clean(seed):
    module = _module_or_skip(seed)
    for func in module.functions.values():
        placement = static_placement(func)
        diags = verify_placement(func, placement)
        errors = [d for d in diags if d.severity.name == "ERROR"]
        assert not errors, (seed, func.name,
                           [d.format() for d in errors])


def _listener(listener):
    return (lambda name, path: None) if listener else None


def _dense_counts(module, backend, trace, listener):
    try:
        result, counts = hook_edge_counts(
            module, backend=backend, trace_paths=trace,
            path_listener=_listener(listener), max_instructions=_LIMIT)
    except MachineError:
        return None
    return result.return_value, counts


def _sparse_counts(module, backend, trace, listener):
    machine = Machine(
        module, collect_edge_profile=True, trace_paths=trace,
        path_listener=_listener(listener), max_instructions=_LIMIT,
        backend=backend)
    try:
        result = machine.run()
    except MachineError:
        return None
    for name, counts in machine.probe_counts.items():
        # The machine must not have counted any tree edge.
        stray = set(counts) - static_placement(
            module.functions[name]).probe_uids
        assert not stray, (name, stray)
    return result.return_value, result.edge_counts


@pytest.mark.parametrize("backend", ["tuple", "compiled"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_sparse_reconstruction_matches_dense(backend, seed):
    module = _module_or_skip(seed)
    for trace, listener in _MODES:
        dense = _dense_counts(module, backend, trace, listener)
        sparse = _sparse_counts(module, backend, trace, listener)
        if dense is None or sparse is None:
            assert dense is None and sparse is None, (seed, trace,
                                                      listener)
            continue
        assert sparse[0] == dense[0], "return values diverged"
        assert sparse[1] == dense[1], (seed, backend, trace, listener)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_PROP_SETTINGS)
def test_sparse_agrees_across_backends(seed):
    module = _module_or_skip(seed)
    runs = [_sparse_counts(module, backend, False, False)
            for backend in ("tuple", "compiled")]
    assert runs[0] == runs[1], seed
