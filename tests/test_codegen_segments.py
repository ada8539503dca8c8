"""Segment geometry of the compiled backend's code generator.

The emitter splits every block at call boundaries into *segments* (the
trampoline's goto targets); the segment table, dense edge index, and
back-edge keys depend only on the sealed IR, so they are computed once
per function (:func:`repro.interp.codegen.function_geometry`) and shared
by every mode specialization.  These tests pin the boundary
rules and the memoisation contract.
"""

from repro.interp.codegen import (_segment_ranges, function_geometry)
from repro.lang import compile_source


def _func(source: str, name: str = "main"):
    return compile_source(source).functions[name]


class TestSegmentRanges:
    def test_callless_function_one_segment_per_block(self):
        func = _func("func main() { return 7; }")
        segments, entry = _segment_ranges(func)
        assert segments == [(b, 0) for b, _ in segments]
        assert len(segments) == len(func.cfg.blocks)
        assert entry[func.cfg.entry] == 0

    def test_entry_block_is_segment_zero(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) { s = s + i; }
                return s; }""")
        segments, entry = _segment_ranges(func)
        assert entry[func.cfg.entry] == 0
        assert segments[0] == (func.cfg.entry, 0)

    def test_every_block_opens_a_segment(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) {
                    if (s < 10) { s = s + i; } else { s = s - 1; } }
                return s; }""")
        segments, entry = _segment_ranges(func)
        for bname in func.cfg.blocks:
            assert entry[bname] < len(segments)
            assert segments[entry[bname]] == (bname, 0)

    def test_call_splits_block_at_resume_point(self):
        module = compile_source("""
            func inc(x) { return x + 1; }
            func main() { a = inc(1); b = inc(a); return b; }""")
        func = module.functions["main"]
        segments, _entry = _segment_ranges(func)
        # One entry segment per block plus one resume segment per call.
        from repro.ir.instructions import Call
        calls = sum(isinstance(i, Call) for b in func.cfg.blocks.values()
                    for i in b.instructions)
        assert calls == 2
        starts = [start for _b, start in segments]
        assert starts.count(0) == len(func.cfg.blocks)
        assert len(segments) == len(func.cfg.blocks) + calls
        # Resume segments start right after their call instruction.
        for bname, start in segments:
            if start:
                instrs = func.cfg.blocks[bname].instructions
                assert isinstance(instrs[start - 1], Call)
                assert start < len(instrs)  # never empty: blocks don't
                #                              end with a bare call


class TestFunctionGeometry:
    def test_memoised_per_function(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 5; i = i + 1) { s = s + i; }
                return s; }""")
        geo = function_geometry(func)
        assert function_geometry(func) is geo

    def test_geometry_matches_segment_ranges(self):
        module = compile_source("""
            func inc(x) { return x + 1; }
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) { s = inc(s); }
                return s; }""")
        func = module.functions["main"]
        geo = function_geometry(func)
        segments, entry = _segment_ranges(func)
        assert geo.segments == segments
        assert geo.block_entry == entry
        assert geo.range_seg == {key: i for i, key in enumerate(segments)}

    def test_edge_index_is_dense_and_deterministic(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) {
                    if (s < 10) { s = s + i; } else { s = s - 1; } }
                return s; }""")
        geo = function_geometry(func)
        indexes = sorted(geo.edge_index.values())
        assert indexes == list(range(len(geo.edge_index)))
        # Back edges are a subset of the indexed edges, and the loop
        # latch edge is among them.
        assert geo.back_keys <= set(geo.edge_index)
        assert geo.back_keys

    def test_shared_across_mode_specializations(self):
        from repro.interp.codegen import ModeSpec, generate_source

        module = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 50; i = i + 1) { s = s + i; }
                return s; }""")
        func = module.functions["main"]
        geo = function_geometry(func)
        plain = ModeSpec(profile=False, trace=False, hooks=False)
        prof = ModeSpec(profile=True, trace=True, hooks=True)
        generate_source(func, module, plain)
        generate_source(func, module, prof)
        # Emission reused (not rebuilt) the memoised geometry.
        assert function_geometry(func) is geo


def _diamonds(n: int) -> str:
    """``f(x)`` with ``n`` sequential if/else diamonds and no loop."""
    body = "".join(f"if (x < {k}) {{ s = s + {k}; }} "
                   f"else {{ s = s - x; }} " for k in range(n))
    return (f"func f(x) {{ s = 0; {body}return s; }} "
            "func main() { return f(3); }")


def _segment_sources(source: str) -> dict[int, str]:
    """Generated source of each ``_seg_<id>`` function, by id."""
    out = {}
    for chunk in source.split("    def _seg_")[1:]:
        seg_id, _, text = chunk.partition("(")
        out[int(seg_id)] = text
    return out


class TestSourceSize:
    """Inlining copies a successor only when it has one predecessor or
    lies in the loop the segment heads, so source grows with the IR."""

    def _size(self, source: str) -> int:
        from repro.interp.codegen import ModeSpec, generate_source

        module = compile_source(source)
        func = module.functions["f"]
        return len(generate_source(func, module, ModeSpec()).source)

    def test_straight_line_diamonds_grow_linearly(self):
        n = 10
        assert self._size(_diamonds(2 * n)) < 2.2 * self._size(_diamonds(n))

    def test_loop_with_diamond_spins_natively(self):
        from repro.cfg.loops import find_loops
        from repro.interp.codegen import ModeSpec, generate_source

        module = compile_source("""
            func f(n) { s = 0;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 3 == 0) { s = s + i; } else { s = s - 1; } }
                return s; }
            func main() { return f(9); }""")
        func = module.functions["f"]
        (loop,) = find_loops(func.cfg)
        geo = function_geometry(func)
        text = _segment_sources(
            generate_source(func, module, ModeSpec()).source)[
                geo.block_entry[loop.header]]
        assert "continue" in text
        # No transfer inside the loop goes through the trampoline.
        for bname in loop.body:
            assert f"return {geo.block_entry[bname]}\n" not in text, bname
