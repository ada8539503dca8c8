"""Tests for the IR printer and the DOT exporters."""

import pytest

from repro.cfg import build_profiling_dag
from repro.cfg.dot import cfg_to_dot, dag_to_dot
from repro.core import number_paths
from repro.ir.printer import format_function, format_module
from repro.lang import compile_source

from conftest import fig8_function, loop_cfg

SRC = """
global g;
global buf[8];
func helper(x) {
    var tmp[2];
    if (x > 0) { return x; }
    return g;
}
func main() { g = 1; return helper(2); }
"""


class TestPrinter:
    def test_function_format_structure(self):
        m = compile_source(SRC)
        text = format_function(m.functions["helper"])
        assert text.startswith("func helper(x) {")
        assert "array tmp[2]" in text
        assert "entry:" in text and "; entry" in text
        assert "exit:" in text and "; exit" in text
        assert text.rstrip().endswith("}")

    def test_entry_printed_first(self):
        m = compile_source(SRC)
        text = format_function(m.functions["main"])
        lines = [ln for ln in text.splitlines() if ln.endswith(":")
                 or "; entry" in ln or "; exit" in ln]
        assert "entry" in lines[0]

    def test_module_format_includes_globals(self):
        m = compile_source(SRC)
        text = format_module(m)
        assert "module" in text
        assert "global g = " in text
        assert "global buf[8]" in text
        assert "func helper(x)" in text and "func main()" in text

    def test_unsealed_rejected(self):
        from repro.ir import Function
        with pytest.raises(ValueError):
            format_function(Function("f"))

    def test_output_is_deterministic(self):
        m1 = compile_source(SRC)
        m2 = compile_source(SRC)
        assert format_module(m1) == format_module(m2)


class TestDot:
    def test_cfg_dot_basic(self):
        cfg = loop_cfg()
        dot = cfg_to_dot(cfg)
        assert dot.startswith("digraph")
        assert '"E"' in dot and '"H" -> "B"' in dot
        assert "peripheries=2" in dot  # exit marking
        assert dot.rstrip().endswith("}")

    def test_edge_labels(self):
        cfg = loop_cfg()
        dot = cfg_to_dot(cfg, edge_label=lambda e: f"{e.src}->{e.dst}")
        assert 'label="H->B"' in dot

    def test_dag_dot_marks_dummies_and_values(self):
        func = fig8_function()
        dag = build_profiling_dag(func.cfg)
        numbering = number_paths(dag)
        dot = dag_to_dot(dag, values=numbering.val)
        assert "val=" in dot
        # Fig 8 has no loops, so no dummy labels; a loop example has them.
        m = compile_source(
            "func main() { s = 0; "
            "for (i = 0; i < 3; i = i + 1) { s = s + i; } return s; }")
        loop_dag = build_profiling_dag(m.functions["main"].cfg)
        dot2 = dag_to_dot(loop_dag)
        assert "entry-dummy" in dot2 and "exit-dummy" in dot2
        assert "dotted" in dot2

    def test_quoting(self):
        from repro.cfg import build_cfg
        cfg = build_cfg("g", [('a"b', "c")], 'a"b', "c")
        dot = cfg_to_dot(cfg)
        assert '\\"' in dot
