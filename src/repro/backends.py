"""Execution backends: their names, the default, and how a run picks one.

Stdlib-only and outside :mod:`repro.interp`, so the CLIs and the
engine's cache keys can name a backend without loading the interpreter.
"compiled" translates each function to Python source, compiling each
segment on first entry (fast path); "tuple" is the original
tuple-dispatch interpreter, kept as the reference implementation.
:mod:`repro.interp` re-exports every name here.
"""

from __future__ import annotations

import os
from typing import Optional

VALID_BACKENDS = ("compiled", "tuple")
DEFAULT_BACKEND = "compiled"


class MachineError(Exception):
    """Raised for runtime failures (unknown function, step limit, ...);
    an unknown backend name is the first one a run can hit."""


def resolve_backend(backend: Optional[str] = None) -> str:
    """Pick the execution backend: explicit argument, else the
    ``REPRO_BACKEND`` environment variable, else the default."""
    chosen = backend or os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    if chosen not in VALID_BACKENDS:
        raise MachineError(
            f"unknown backend {chosen!r}; expected one of "
            f"{', '.join(VALID_BACKENDS)}")
    return chosen
