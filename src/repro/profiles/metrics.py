"""Accuracy and coverage of estimated path profiles (Section 6).

*Accuracy* uses Wall's weight-matching scheme: take the program's actual
hot paths ``H_actual`` (flow above a threshold fraction of total program
flow), select the ``|H_actual|`` hottest paths of the estimated profile as
``H_estimated``, and report the fraction of actual hot-path flow the
estimate got right::

    accuracy = F(H_estimated & H_actual) / F(H_actual)

*Coverage* is the fraction of actual program flow a profiling method
definitely measures.  For an edge profile that is DF(P)/F(P); for TPP/PPP
the instrumented paths contribute their actual flow, the uninstrumented
paths contribute computed definite flow, and flow that instrumentation
over-counted (PPP's aggressive pushing can bill a cold path to a hot
number) is subtracted back out as a penalty::

    coverage = (F(P_instr) + DF(P_uninstr) - F_overcount) / F(P)
"""

from __future__ import annotations

from dataclasses import dataclass

from .path_profile import PathKey, PathProfile

# Estimated profiles are exchanged as {(function name, path blocks): flow}.
EstimatedFlows = dict[tuple[str, PathKey], float]

HOT_THRESHOLD = 0.00125  # the paper's primary hot threshold, 0.125%
HOT_THRESHOLD_STRICT = 0.01


def actual_hot_paths(actual: PathProfile
                     ) -> dict[tuple[str, PathKey], float]:
        """H_actual: actual paths above the hot threshold, with actual flows."""
        hot = actual.hot_paths(HOT_THRESHOLD)
        return {(name, path): flow for name, path, flow in hot}


def select_top(estimated: EstimatedFlows, n: int) -> set[tuple[str, PathKey]]:
    """The n hottest estimated paths (ties broken deterministically)."""
    ranked = sorted(estimated.items(), key=lambda kv: (-kv[1], kv[0]))
    return {key for key, _flow in ranked[:n]}


def accuracy(actual: PathProfile, estimated: EstimatedFlows) -> float:
    """Wall's weight-matching accuracy of an estimated profile.

    Returns 1.0 for programs with no hot paths (nothing to mispredict).
    """
    hot = actual_hot_paths(actual)
    if not hot:
        return 1.0
    chosen = select_top(estimated, len(hot))
    matched = sum(flow for key, flow in hot.items() if key in chosen)
    return matched / sum(hot.values())


@dataclass
class FunctionCoverage:
    """Per-function coverage contributions (Section 6.2).

    actual_instr_flow:
        F(P_instr): actual flow of the paths the method can measure.
    measured_flow:
        MF(P_instr): flow the instrumentation actually recorded (may exceed
        the actual flow when cold executions get billed to hot numbers).
    definite_uninstr_flow:
        DF(P_uninstr): computed definite flow of unmeasured paths.
    """

    actual_instr_flow: float = 0.0
    measured_flow: float = 0.0
    definite_uninstr_flow: float = 0.0

    @property
    def overcount(self) -> float:
        """F_overcount, floored at zero (hash-table losses can push the
        measured flow slightly *below* actual; that deficit is not a
        coverage credit)."""
        return max(0.0, self.measured_flow - self.actual_instr_flow)

    @property
    def numerator(self) -> float:
        return (self.actual_instr_flow + self.definite_uninstr_flow
                - self.overcount)


def coverage(total_actual_flow: float,
             parts: list[FunctionCoverage]) -> float:
    """Program-wide coverage from per-function contributions."""
    if total_actual_flow <= 0:
        return 1.0
    numerator = sum(p.numerator for p in parts)
    return max(0.0, min(1.0, numerator / total_actual_flow))
