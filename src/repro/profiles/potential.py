"""Potential flow (Ball, Mataga & Sagiv) under the branch-flow metric.

Potential flow is the largest per-path frequency consistent with the edge
profile (the minimum of the path's edge frequencies).  Ball et al. found
that selecting estimated hot paths from potential flow predicts actual hot
paths better than definite flow, so edge-profile *accuracy* is evaluated
from potential flow, while *coverage* uses definite flow (Section 6).
"""

from __future__ import annotations

from ..ir.function import Function
from .edge_profile import FunctionEdgeProfile
from .flowsets import FlowSets, profile_flow_sets


def potential_flow_sets(func: Function,
                        profile: FunctionEdgeProfile) -> FlowSets:
    """Run the Figure 15 dynamic program for one function (once per
    profile)."""
    return profile_flow_sets(func, profile, "potential")
