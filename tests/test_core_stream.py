"""Recorded path streams: replay must equal a live path listener."""

import dataclasses

import pytest

from repro.core import HotPathTable, NetSelector, record_module
from repro.interp import Machine
from repro.lang import compile_source
from repro.workloads import get_workload

GEOMETRIES = ((16, 2), (64, 4), (256, 4))


def _live(module, listener, backend):
    """The reference: the consumer attached as the machine's listener."""
    result = Machine(module, path_listener=listener, backend=backend).run()
    return listener.result(result.return_value)


@pytest.fixture(scope="module", params=["twolf", "applu"])
def module(request):
    return get_workload(request.param).compile()


@pytest.mark.parametrize("backend", ["tuple", "compiled"])
class TestReplayEqualsLive:
    def test_hot_path_table(self, module, backend):
        stream = record_module(module, backend).stream
        for sets, ways in GEOMETRIES:
            live = _live(module, HotPathTable(sets, ways), backend)
            replayed = HotPathTable(sets, ways).replay(stream)
            assert dataclasses.asdict(replayed) == dataclasses.asdict(live)
            assert replayed.hits + replayed.misses == len(stream.events)

    def test_net_selector(self, module, backend):
        stream = record_module(module, backend).stream
        live = _live(module, NetSelector(), backend)
        replayed = NetSelector().replay(stream)
        assert live.traces
        assert dataclasses.asdict(replayed) == dataclasses.asdict(live)


class TestStream:
    SRC = """
    func f(x) { if (x % 2 == 0) { return 1; } return 2; }
    func main() {
        s = 0;
        for (i = 0; i < 5; i = i + 1) { s = s + f(i); }
        return s;
    }
    """

    def test_distinct_paths_in_first_seen_order(self):
        events = []
        m = compile_source(self.SRC)
        Machine(m, path_listener=lambda f, b: events.append((f, b))).run()
        stream = record_module(m).stream
        assert stream.return_value == 7
        assert [stream.paths[i] for i in stream.events] == events
        assert stream.paths == list(dict.fromkeys(events))
