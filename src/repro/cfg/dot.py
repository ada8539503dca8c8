"""Graphviz (DOT) export for CFGs and profiling DAGs.

Useful for debugging instrumentation plans and for documentation: edges
can be annotated with frequencies, path-numbering values, and the placed
instrumentation ops; cold edges are drawn dashed, dummy edges dotted.
"""

from __future__ import annotations

from typing import Callable, Optional

from .dag import ProfilingDag
from .graph import ControlFlowGraph, Edge

EdgeLabel = Callable[[Edge], str]


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def cfg_to_dot(cfg: ControlFlowGraph,
               edge_label: Optional[EdgeLabel] = None,
               title: Optional[str] = None) -> str:
    """Render a CFG as a DOT digraph."""
    lines = [f"digraph {_quote(title or cfg.name)} {{",
             "  node [shape=box, fontname=monospace];"]
    for name in cfg.blocks:
        attrs = []
        if name == cfg.entry:
            attrs.append("style=bold")
        if name == cfg.exit:
            attrs.append("peripheries=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(name)}{suffix};")
    for edge in cfg.edges():
        attrs = []
        if edge_label is not None:
            label = edge_label(edge)
            if label:
                attrs.append(f"label={_quote(label)}")
        if edge.dummy:
            attrs.append("style=dotted")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)}{suffix};")
    lines.append("}")
    return "\n".join(lines)


def dag_to_dot(dag: ProfilingDag,
               values: Optional[dict[int, int]] = None) -> str:
    """Render a profiling DAG, labelling edges with numbering values."""

    def label(edge: Edge) -> str:
        parts = []
        if values is not None and edge.uid in values:
            parts.append(f"val={values[edge.uid]}")
        if dag.is_entry_dummy(edge):
            parts.append("entry-dummy")
        elif dag.is_exit_dummy(edge):
            parts.append("exit-dummy")
        return ", ".join(parts)

    return cfg_to_dot(dag.dag, edge_label=label,
                      title=dag.cfg.name + " (DAG)")
