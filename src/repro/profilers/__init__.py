"""Pluggable profilers over the shared observation substrate.

Importing this package registers every bundled plugin; see
:mod:`repro.profilers.base` for the protocol and
``docs/architecture.md`` ("Profiler plugin framework") for the fusion
contract and a guide to adding a profiler.
"""

from .base import (FunctionObservations, MachineChannels, ModuleObservations,
                   Profiler, block_exit_uids)
from .builtin import (EdgeCountProfiler, InvocationProfiler, PathPlanProfiler,
                      PathTraceProfiler)
from .drive import ProfilersRun, build_machine, execute_profilers
from .registry import (ProfilerInfo, available, conformance_errors,
                       create_profilers, get_profiler, parse_profiler_names,
                       register, registered_profilers)
from .tripcount import TripCountProfiler, TripFlush, TripIncr, mean_trips
from .value_profile import RecordReg, ValueProfiler, top_values

__all__ = [
    "EdgeCountProfiler",
    "FunctionObservations",
    "InvocationProfiler",
    "MachineChannels",
    "ModuleObservations",
    "PathPlanProfiler",
    "PathTraceProfiler",
    "Profiler",
    "ProfilerInfo",
    "ProfilersRun",
    "RecordReg",
    "TripCountProfiler",
    "TripFlush",
    "TripIncr",
    "ValueProfiler",
    "available",
    "block_exit_uids",
    "build_machine",
    "conformance_errors",
    "create_profilers",
    "execute_profilers",
    "get_profiler",
    "mean_trips",
    "parse_profiler_names",
    "register",
    "registered_profilers",
    "top_values",
]
