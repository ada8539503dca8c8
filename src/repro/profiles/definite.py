"""Definite flow (Ball, Mataga & Sagiv) under the branch-flow metric.

Thin, intention-revealing wrappers over :mod:`repro.profiles.flowsets`
(Figure 14) and :mod:`repro.profiles.reconstruct` (Figure 16).
"""

from __future__ import annotations

from ..ir.function import Function
from .edge_profile import FunctionEdgeProfile
from .flowsets import FlowSets, profile_flow_sets
from .reconstruct import ReconstructedPath, reconstruct_hot_paths


def definite_flow_sets(func: Function,
                       profile: FunctionEdgeProfile) -> FlowSets:
    """Run the Figure 14 dynamic program for one function (once per
    profile)."""
    return profile_flow_sets(func, profile, "definite")


def definite_flow_total(func: Function, profile: FunctionEdgeProfile
                        ) -> float:
    """DF(P): the routine's total definite flow."""
    return definite_flow_sets(func, profile).total_flow()


def definite_flow_paths(func: Function, profile: FunctionEdgeProfile,
                        cutoff: float) -> list[ReconstructedPath]:
    """Paths with definite flow above ``cutoff`` with their flows."""
    return reconstruct_hot_paths(definite_flow_sets(func, profile), cutoff)
