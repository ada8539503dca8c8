"""Recordings are identical across backends.

The compiled backend traces ground-truth paths as Ball-Larus ids (one
integer per completed path, decoded after the run); the tuple backend
keeps its block-list tracer as the independent oracle.  Every field of
:func:`~repro.core.record_module`'s :class:`~repro.core.Recording` must
agree between them -- the path and edge profiles with their dict order,
the ordered stream, the return value, instructions and base cost -- on
the CFG shapes the numbering has to get right.
"""

import pytest

from repro.core import plan_pp, record_module, run_with_plan
from repro.interp.codegen import path_ids
from repro.ir import IRBuilder, Module
from repro.lang import compile_source
from repro.workloads import get_workload

from test_irreducible import irreducible_module


def _fields(recording) -> dict:
    """Every field of a recording, profiles as ordered item lists."""
    return {
        "paths": [(name, list(fp.counts.items()))
                  for name, fp in recording.paths.functions.items()],
        "edges": [(name, list(fe.edge_freq.items()), fe.entry_count)
                  for name, fe in recording.edges.functions.items()],
        "distinct_paths": list(recording.distinct_paths),
        "packed_events": recording.packed_events,
        "return_value": recording.return_value,
        "instructions_executed": recording.instructions_executed,
        "base_cost": recording.base_cost,
    }


def _assert_backends_record_alike(module: Module) -> None:
    compiled = _fields(record_module(module, backend="compiled"))
    oracle = _fields(record_module(module, backend="tuple"))
    for field, want in oracle.items():
        assert compiled[field] == want, field
    assert oracle["distinct_paths"], "the module completed no path"


def _back_edge_into_entry() -> Module:
    """``count(n)`` loops back into its entry block, both from a body
    block and (``spin``) from the entry itself."""
    b = IRBuilder("count", ["n"])
    b.block("entry")
    b.const("one", 1)
    b.binop("-", "n", "n", "one")
    b.const("zero", 0)
    b.binop(">", "more", "n", "zero")
    b.branch("more", "body", "done")
    b.block("body")
    b.const("two", 2)
    b.binop("%", "odd", "n", "two")
    b.branch("odd", "entry", "skip")
    b.block("skip")
    b.jump("entry")
    b.block("done")
    b.ret("n")
    module = Module("entry_loop")
    module.add_function(b.finish("entry"))

    s = IRBuilder("spin", ["n"])
    s.block("entry")
    s.const("one", 1)
    s.binop("-", "n", "n", "one")
    s.const("zero", 0)
    s.binop(">", "more", "n", "zero")
    s.branch("more", "entry", "done")
    s.block("done")
    s.ret("n")
    module.add_function(s.finish("entry"))

    d = IRBuilder("main")
    d.block("entry")
    d.const("seven", 7)
    d.call("a", "count", ["seven"])
    d.call("b", "spin", ["seven"])
    d.binop("+", "r", "a", "b")
    d.ret("r")
    module.add_function(d.finish("entry"))
    module.main = "main"
    return module


def _tail_to_two_headers() -> Module:
    """One latch ``tail`` closes both an inner loop (``inner``) and the
    outer loop (``outer``): two back edges from one block, which share
    the ending path's id but restart at different headers."""
    b = IRBuilder("main")
    b.block("entry")
    b.const("i", 0)
    b.const("j", 0)
    b.jump("outer")
    b.block("outer")
    b.const("n", 30)
    b.binop("<", "go", "i", "n")
    b.branch("go", "inner", "done")
    b.block("inner")
    b.const("one", 1)
    b.binop("+", "i", "i", "one")
    b.binop("+", "j", "j", "i")
    b.jump("tail")
    b.block("tail")
    b.const("three", 3)
    b.binop("%", "stay", "i", "three")
    b.branch("stay", "inner", "outer")
    b.block("done")
    b.ret("j")
    module = Module("two_headers")
    module.add_function(b.finish("entry"))
    module.main = "main"
    return module


RECURSION = """
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() { return fib(9); }
"""

# The call splits the loop body into segments, so the path in progress
# must survive a trampoline bounce into ``f`` and back.
CALL_IN_LOOP = """
func f(x) {
    s = 0;
    for (k = 0; k < x % 4; k = k + 1) { s = s + k; }
    if (x % 3 == 0) { return s; }
    return s + 1;
}
func main() {
    t = 0;
    for (i = 0; i < 40; i = i + 1) {
        if (i % 2 == 0) { t = t + 1; } else { t = t - 1; }
        t = t + f(i);
        if (i % 5 == 0) { t = t * 2; }
    }
    return t;
}
"""


def _diamonds(n: int) -> str:
    """``f(x)`` with ``n`` sequential if/else diamonds: ``2**n`` paths."""
    body = "".join(f"if ((x / {2 ** k}) % 2 == 1) {{ s = s + {k}; }} "
                   f"else {{ s = s - 1; }} " for k in range(n))
    calls = " ".join(f"t = t + f({x});"
                     for x in (0, 1, 5, 2 ** 32 + 3, 2 ** 33 - 1))
    return (f"func f(x) {{ s = 0; {body}return s; }} "
            f"func main() {{ t = 0; {calls} return t; }}")


CASES = {
    "irreducible": irreducible_module,
    "back-edge-into-entry": _back_edge_into_entry,
    "tail-to-two-headers": _tail_to_two_headers,
    "recursion": lambda: compile_source(RECURSION),
    "call-in-loop": lambda: compile_source(CALL_IN_LOOP),
    "parser": lambda: get_workload("parser").compile(),
    "applu": lambda: get_workload("applu").compile(),
}


@pytest.mark.parametrize("case", CASES)
def test_backends_record_alike(case):
    _assert_backends_record_alike(CASES[case]())


def test_more_than_two_to_the_32_paths():
    module = compile_source(_diamonds(33))
    assert path_ids(module.functions["f"]).total == 2 ** 33
    _assert_backends_record_alike(module)
    paths = record_module(module, backend="compiled").paths["f"].counts
    assert len(paths) == 5


def test_shapes_exercise_the_id_encoding():
    # Guard the fixtures: each shape really has what it is named for.
    entry_loop = _back_edge_into_entry()
    for name in ("count", "spin"):
        ids = path_ids(entry_loop.functions[name])
        assert any(header == "entry" for _tail, header in ids.back)
    back = path_ids(_tail_to_two_headers().functions["main"]).back
    assert {("tail", "inner"), ("tail", "outer")} <= set(back)


@pytest.mark.parametrize("backend", ["compiled", "tuple"])
def test_trace_and_plan_hooks_share_a_machine(backend):
    # The tracer keeps its own per-activation id, so a plan's path
    # register (Frame.path_reg) counts exactly as without the tracer.
    module = compile_source(CALL_IN_LOOP)
    plan = plan_pp(module)
    both = run_with_plan(plan, backend=backend, profilers=("path-trace",))
    alone = run_with_plan(plan, backend=backend)
    assert ({name: vars(store) for name, store in both.stores.items()}
            == {name: vars(store) for name, store in alone.stores.items()})
    recording = record_module(module, backend="tuple")
    assert both.profiles["path-trace"] == {
        name: fp.counts for name, fp in recording.paths.functions.items()}
