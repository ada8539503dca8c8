"""Control-flow graph substrate: graphs, traversals, dominators, loops, DAGs."""

from .graph import BasicBlock, CFGError, ControlFlowGraph, Edge, build_cfg
from .traversal import (depth_first_order, is_acyclic, postorder, reachable,
                        reverse_postorder, reverse_topological_order,
                        topological_order)
from .dominators import DominatorTree, compute_dominators
from .loops import (Loop, find_back_edges, find_loops, innermost_loops,
                    loop_depths)
from .dag import ProfilingDag, build_profiling_dag
from .dot import cfg_to_dot, dag_to_dot

__all__ = [
    "BasicBlock", "CFGError", "ControlFlowGraph", "Edge", "build_cfg",
    "depth_first_order", "is_acyclic", "postorder", "reachable",
    "reverse_postorder", "reverse_topological_order", "topological_order",
    "DominatorTree", "compute_dominators",
    "Loop", "find_back_edges", "find_loops", "innermost_loops", "loop_depths",
    "ProfilingDag", "build_profiling_dag",
    "cfg_to_dot", "dag_to_dot",
]
