"""The benchmark suite registry.

Eighteen workloads named after the paper's SPEC2000 benchmarks, grouped
INT / FP as in Tables 1-2.  ``code_bloat`` is the inliner budget used for
each workload; real SPEC programs are five orders of magnitude larger than
these kernels, so the paper's 5% whole-program budget is rescaled per
workload to land each benchmark near its published "% calls inlined"
column (crafty/wupwise/swim/applu/mesa stay at 0% as in the paper --
cross-module inlining disabled or no calls to inline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import programs

if TYPE_CHECKING:
    from ..ir.function import Module

INT = "INT"
FP = "FP"


@dataclass(frozen=True)
class Workload:
    """One synthetic benchmark: a MiniC source factory plus its settings."""

    name: str
    category: str
    source: Callable[[int], str]
    code_bloat: float
    description: str

    def compile(self, scale: int = 1) -> Module:
        """Compile the workload at the given scale to a validated module."""
        from ..lang import compile_source

        return compile_source(self.source(scale), name=self.name)


SUITE: list[Workload] = [
    Workload("vpr", INT, programs.vpr_like, 0.30,
             "placement annealing with a branchy scoring routine"),
    Workload("mcf", INT, programs.mcf_like, 0.60,
             "network-simplex arc relaxation, extreme hot-path skew"),
    Workload("crafty", INT, programs.crafty_like, 0.0,
             "chess evaluation, > 4000 paths forces hashed counting"),
    Workload("parser", INT, programs.parser_like, 0.25,
             "recursive-descent parsing over random token streams"),
    Workload("perlbmk", INT, programs.perlbmk_like, 0.15,
             "bytecode-interpreter dispatch ladder"),
    Workload("gap", INT, programs.gap_like, 0.40,
             "bignum digit arithmetic with carry branches"),
    Workload("bzip2", INT, programs.bzip2_like, 0.35,
             "run-length scanning plus insertion-sort inner loop"),
    Workload("twolf", INT, programs.twolf_like, 0.20,
             "cell placement with accept/reject moves"),
    Workload("wupwise", FP, programs.wupwise_like, 0.0,
             "dense small-matrix sweeps, no inlinable calls"),
    Workload("swim", FP, programs.swim_like, 0.0,
             "shallow-water stencil, branch-free inner loops"),
    Workload("mgrid", FP, programs.mgrid_like, 0.10,
             "multigrid relaxation at three grid levels"),
    Workload("applu", FP, programs.applu_like, 0.0,
             "LU sweeps with a small pivot branch"),
    Workload("mesa", FP, programs.mesa_like, 0.0,
             "software rasteriser with many per-pixel state tests"),
    Workload("art", FP, programs.art_like, 1.0,
             "adaptive-resonance training, tiny helpers 100% inlined"),
    Workload("equake", FP, programs.equake_like, 1.0,
             "sparse matrix-vector product, index helper inlined"),
    Workload("ammp", FP, programs.ammp_like, 0.98,
             "pairwise forces with cutoff branches, helpers inlined"),
    Workload("sixtrack", FP, programs.sixtrack_like, 0.57,
             "particle tracking, long straight-line kernel"),
    Workload("apsi", FP, programs.apsi_like, 1.0,
             "many short loops over small arrays"),
]

BY_NAME: dict[str, Workload] = {w.name: w for w in SUITE}


def get_workload(name: str) -> Workload:
    try:
        return BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(BY_NAME))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def int_workloads() -> list[Workload]:
    return [w for w in SUITE if w.category == INT]


def fp_workloads() -> list[Workload]:
    return [w for w in SUITE if w.category == FP]
