"""The synthetic SPEC2000-shaped workload suite and the random program
generator used by the property tests.

The suite registry loads with the workload sources alone; the generator
(and the compiler behind it) imports on first use.
"""

from ..lazy import lazy_exports
from .suite import (BY_NAME, FP, INT, SUITE, Workload, fp_workloads,
                    get_workload, int_workloads)

__all__ = [
    "BY_NAME", "FP", "INT", "SUITE", "Workload", "fp_workloads",
    "get_workload", "int_workloads",
    "ProgramGenerator", "random_module", "random_source",
]
lazy_exports(__name__, {
    ".generator": ("ProgramGenerator", "random_module", "random_source")})
