"""Lazy segment compilation: a function's source is generated (and
validated) whole when it is first called, but each segment compiles
only when control first enters it, and identical segment text compiles
once per process."""

import ast

import pytest

from conftest import SMALL_PROGRAM

import repro.interp.compiled as compiled
from repro.analysis import equiv
from repro.interp.codegen import ModeSpec
from repro.interp.machine import Machine, MachineError
from repro.lang import compile_source
from repro.workloads import get_workload


@pytest.fixture
def compiles(monkeypatch):
    """The text of every segment unit ``compile()``d from now on."""
    seen = []

    def counting(source, *args, **kwargs):
        seen.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(compiled, "compile", counting, raising=False)
    return seen


def _entry(func, spec=ModeSpec()):
    """``(result, codes)`` of the codegen cache for ``func`` x ``spec``."""
    return compiled._CODE_CACHE[func][spec]


def _segment_defs(source):
    """``_seg_K`` name -> its def's AST dump, from a ``_make`` module."""
    (make,) = ast.parse(source).body
    return {node.name: ast.dump(node) for node in make.body
            if isinstance(node, ast.FunctionDef)}


def _program(tag: int) -> str:
    """SMALL_PROGRAM with both functions made unique to one test (the
    unit table is process-wide, so a text another test compiled would
    not compile again)."""
    return (SMALL_PROGRAM.replace("t = t + 3", f"t = t + {tag}")
            .replace("s * 2", f"s * {tag}"))


def test_only_entered_segments_compile_on_a_suite_workload():
    # Every segment starts in a block; one whose block never executed
    # was never entered, and must not compile.
    from repro.profiles import EdgeProfile

    module = get_workload("gap").compile(1)
    run = Machine(module, backend="compiled",
                  collect_edge_profile=True).run()
    profile = EdgeProfile.from_run(module, run.edge_counts, run.invocations)
    spec = ModeSpec(profile=True)
    total = entered = 0
    for name, func in module.functions.items():
        if not run.invocations.get(name):
            assert func not in compiled._CODE_CACHE, name
            continue
        _result, codes = _entry(func, spec)
        assert codes[0] is not None, name  # entered on every call
        segments = compiled.function_geometry(func).segments
        for (block, _start), code in zip(segments, codes):
            total += 1
            if code is not None:
                entered += 1
                assert profile[name].block_freq(block), (name, block)
    assert 0 < entered < total


def test_second_machine_compiles_nothing(compiles):
    module = compile_source(_program(101), name="lazy")
    first = Machine(module, backend="compiled").run()
    assert compiles
    compiles.clear()
    again = Machine(module, backend="compiled").run()
    assert compiles == []
    assert again.return_value == first.return_value
    assert again.instructions_executed == first.instructions_executed


def test_compiled_units_are_the_validated_segments(monkeypatch):
    # The validator parses the joined source; each unit the backend
    # compiled holds the same _seg_K def.
    module = compile_source(_program(102), name="units")
    monkeypatch.setenv("REPRO_EQUIV", "1")
    Machine(module, backend="compiled").run()
    for func in module.functions.values():
        result, codes = _entry(func)
        validated = _segment_defs(result.source)
        assert len(validated) == len(result.segments)
        for seg_id, code in enumerate(codes):
            if code is None:
                continue
            unit = result.unit(seg_id)
            assert compiled._UNIT_CODE[unit] is code
            name = f"_seg_{seg_id}"
            assert _segment_defs(unit) == {name: validated[name]}


def test_modules_sharing_a_function_share_its_segment_code():
    one = compile_source(_program(103), name="one")
    two = compile_source(_program(103).replace("s * 103", "s * 104"),
                         name="two")
    for module in (one, two):
        Machine(module, backend="compiled").run()
    helper_one = _entry(one.functions["helper"])[1]
    helper_two = _entry(two.functions["helper"])[1]
    assert one.functions["helper"] is not two.functions["helper"]
    assert any(code is not None for code in helper_one)
    assert all(a is b for a, b in zip(helper_one, helper_two))
    # main differs, and so does its code.
    main_one = _entry(one.functions["main"])[1]
    main_two = _entry(two.functions["main"])[1]
    assert any(a is not b for a, b in zip(main_one, main_two))


def test_segment_compile_failure_names_the_segment(monkeypatch):
    module = compile_source(_program(105), name="broken")

    def failing(source, filename, *args, **kwargs):
        if "helper" in filename:
            raise SyntaxError("injected")
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(compiled, "compile", failing, raising=False)
    machine = Machine(module, backend="compiled")
    with pytest.raises(MachineError,
                       match=r"_seg_\d+ of 'helper': SyntaxError: injected"):
        machine.run()
    # Not a degradation: the function was generated, its frame is live.
    assert machine.degradations == []


def test_equiv_validates_segments_never_entered(monkeypatch):
    module = compile_source(_program(106), name="checked")
    checked = []
    real = equiv._CodegenChecker._check_segment

    def recording(self, seg_id, body, local_map):
        checked.append((self.func.name, seg_id))
        return real(self, seg_id, body, local_map)

    monkeypatch.setattr(equiv._CodegenChecker, "_check_segment", recording)
    monkeypatch.setenv("REPRO_EQUIV", "1")
    Machine(module, backend="compiled").run()
    for name, func in module.functions.items():
        result, codes = _entry(func)
        assert sorted(seg for fn, seg in checked if fn == name) == \
            list(range(len(result.segments)))
    unentered = [seg for func in module.functions.values()
                 for seg, code in enumerate(_entry(func)[1]) if code is None]
    assert unentered, "the program must leave some segment unentered"
