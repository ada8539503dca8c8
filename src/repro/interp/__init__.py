"""IR interpreter: execution, edge hooks, path tracing, cost accounting.

Two execution backends share identical semantics: the generated-Python
``"compiled"`` backend (default; see :mod:`repro.interp.codegen`) and
the reference ``"tuple"`` interpreter.  Select per machine with
``Machine(..., backend=...)`` or globally with ``REPRO_BACKEND``.  The
compiled backend falls back to the tuple loop, per function, when code
generation fails.
"""

from ..backends import (DEFAULT_BACKEND, VALID_BACKENDS, MachineError,
                        resolve_backend)
from .costs import DEFAULT_COSTS, CostCounter, CostModel
from .machine import EdgeHook, Frame, Machine, RunResult, run_module

__all__ = [
    "DEFAULT_BACKEND", "VALID_BACKENDS", "resolve_backend",
    "DEFAULT_COSTS", "CostCounter", "CostModel",
    "EdgeHook", "Frame", "Machine", "MachineError", "RunResult", "run_module",
]
