"""IR interpreter: execution, edge hooks, path tracing, cost accounting.

Two execution backends share identical semantics: the generated-Python
``"compiled"`` backend (default; see :mod:`repro.interp.codegen`) and
the reference ``"tuple"`` interpreter.  Select per machine with
``Machine(..., backend=...)`` or globally with ``REPRO_BACKEND``.  The
compiled backend falls back to the tuple loop, per function, when code
generation fails.
"""

from .costs import DEFAULT_COSTS, CostCounter, CostModel
from .machine import (DEFAULT_BACKEND, VALID_BACKENDS, EdgeHook, Frame,
                      Machine, MachineError, RunResult, resolve_backend,
                      run_module)

__all__ = [
    "DEFAULT_BACKEND", "VALID_BACKENDS", "resolve_backend",
    "DEFAULT_COSTS", "CostCounter", "CostModel",
    "EdgeHook", "Frame", "Machine", "MachineError", "RunResult", "run_module",
]
