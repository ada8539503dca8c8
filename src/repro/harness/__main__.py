"""Command-line driver: ``python -m repro.harness <experiment> [options]``.

Experiments: ``table1``, ``table2``, ``fig9``, ``fig10``, ``fig11``,
``fig12``, ``fig13``, ``oaat`` (the Section 8.3 one-at-a-time study),
the extension studies (``net``, ``superblocks``, ``ifconvert``,
``metrics``, ``sampling``, ``hpt``, ``profilers``, ``matching``), or
``all``.  ``--scale`` stretches every workload's driver loops;
``--benchmarks`` restricts the suite.  ``--jobs N`` fans cold workloads
over N worker processes.  Every artifact, down to each rendered table,
is cached content-addressed under ``results/.cache/`` (see
``--cache-dir``): a table's key is the session's
:meth:`~repro.engine.ProfilingSession.suite_key` for the chosen
workloads, and every key is salted with a hash of the package source,
so re-running an experiment renders nothing until the inputs or the
code change.  ``--no-cache`` drops the on-disk layer (each artifact is
still computed once per process); ``python -m repro cache`` manages
the on-disk layer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..engine import ArtifactCache, ProfilingSession, faults, fingerprint_text
from ..interp import VALID_BACKENDS
from ..workloads import SUITE, Workload, get_workload
from . import (figure9, figure10, figure11, figure12, figure13,
               hpt_table, ifconvert_table, matching_table, metrics_table,
               net_table, one_at_a_time, profiler_table, sampling_table,
               superblock_table, table1, table2)

EXPERIMENTS = ("table1", "table2", "fig9", "fig10", "fig11", "fig12",
               "fig13", "oaat", "net", "superblocks", "ifconvert",
               "metrics", "sampling", "hpt", "profilers", "matching",
               "all")

DEFAULT_CACHE_DIR = "results/.cache"


class CliError(Exception):
    """A user-facing error: printed as ``error: ...`` with exit status 1."""


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs of the commands that fan tasks out."""
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per workload task when the "
                             "session fans out; timed-out tasks retry")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget per task before inline "
                             "fallback (default 2)")
    _add_chaos_option(parser)


def _add_chaos_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos", metavar="SPEC", default="",
                        help="deterministic fault-injection plan (or set "
                             "REPRO_FAULTS), e.g. "
                             "'seed=7,corrupt-write=record:0'; see "
                             "repro.engine.faults")


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    """``--backend``, shared by every command that executes IR."""
    parser.add_argument("--backend", choices=VALID_BACKENDS, default=None,
                        help="interpreter backend (default: $REPRO_BACKEND "
                             "or compiled)")


def _add_profilers_option(parser: argparse.ArgumentParser) -> None:
    """``--profilers``, shared by every command that fuses extra
    registry profilers into its runs."""
    parser.add_argument("--profilers", metavar="NAMES", default="",
                        help="comma-separated extra registry profilers "
                             "fused into every instrumented run (see "
                             "'python -m repro profilers')")


def _selected_profilers(args: argparse.Namespace) -> tuple[str, ...]:
    """The ``--profilers`` names; an unknown name is a
    :class:`CliError`."""
    from ..profilers import parse_profiler_names
    try:
        return parse_profiler_names(args.profilers)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _install_chaos(spec: str) -> None:
    """Validate a ``--chaos`` plan up front (a typo fails before any
    work), then publish it through the environment so forked worker
    processes observe the same plan."""
    try:
        plan = faults.FaultPlan.from_spec(spec)
    except faults.FaultSpecError as exc:
        raise CliError(f"--chaos: {exc}") from exc
    os.environ[faults.ENV_VAR] = plan.to_spec()
    faults.install_plan(plan)


def _chosen_workloads(spec: str) -> list[Workload]:
    """The ``--benchmarks`` subset (comma-separated), or the whole suite."""
    if not spec:
        return list(SUITE)
    try:
        return [get_workload(n.strip()) for n in spec.split(",")
                if n.strip()]
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc


def build_session(jobs: int = 1, no_cache: bool = False,
                  cache_dir: str = DEFAULT_CACHE_DIR,
                  backend: str | None = None,
                  verify: bool | None = None,
                  timeout: float | None = None,
                  retries: int = 2,
                  profilers: tuple[str, ...] = (),
                  chaos: str = "") -> ProfilingSession:
    """The session a CLI invocation drives everything through; a
    ``chaos`` spec is validated and installed first."""
    if chaos:
        _install_chaos(chaos)
    cache = ArtifactCache(disk_dir=None if no_cache else cache_dir or None)
    return ProfilingSession(cache=cache, jobs=jobs, backend=backend,
                            verify_plans=verify, timeout=timeout,
                            retries=retries, profilers=profilers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--benchmarks", type=str, default="",
                        help="comma-separated benchmark subset")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for cold workloads "
                             "(default 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="keep no artifact on disk (each is still "
                             "computed once per process)")
    _add_backend_option(parser)
    _add_profilers_option(parser)
    parser.add_argument("--verify", action="store_true",
                        help="statically verify every instrumentation "
                             "plan before running it (or set "
                             "REPRO_VERIFY=1); fails fast on a bad plan")
    parser.add_argument("--equiv", action="store_true",
                        help="translation-validate every piece of "
                             "generated code before executing it (or set "
                             "REPRO_EQUIV=1); fails fast on a mismatch")
    _add_fault_options(parser)
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=DEFAULT_CACHE_DIR,
                        help="on-disk cache directory (default "
                             f"{DEFAULT_CACHE_DIR}; empty = memory only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--save-dir", metavar="DIR", default="",
                        help="also write each rendering to DIR/<name>.txt")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="dump all per-benchmark metrics as JSON")
    args = parser.parse_args(argv)
    # REPRO_EQUIV is resolved by every Machine (including the ones worker
    # processes build), exactly like REPRO_VERIFY; it is restored on
    # return so an in-process caller's later machines are not validated.
    previous = os.environ.get("REPRO_EQUIV")
    if args.equiv:
        os.environ["REPRO_EQUIV"] = "1"
    try:
        return _run(args)
    finally:
        if previous is None:
            os.environ.pop("REPRO_EQUIV", None)
        else:
            os.environ["REPRO_EQUIV"] = previous


def _run(args: argparse.Namespace) -> int:
    try:
        workloads = _chosen_workloads(args.benchmarks)
        session = build_session(jobs=args.jobs, no_cache=args.no_cache,
                                cache_dir=args.cache_dir,
                                backend=args.backend,
                                verify=True if args.verify else None,
                                timeout=args.timeout, retries=args.retries,
                                profilers=_selected_profilers(args),
                                chaos=args.chaos)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    start = time.time()
    if not args.quiet:
        print(f"running {len(workloads)} workloads at scale "
              f"{args.scale} ...", flush=True)
    wanted = ([args.experiment] if args.experiment != "all"
              else ["table1", "table2", "fig9", "fig10", "fig11", "fig12",
                    "fig13", "oaat", "net", "superblocks", "ifconvert",
                    "metrics", "sampling", "hpt", "profilers",
                    "matching"])
    results = session.run_suite(workloads, scale=args.scale,
                                verbose=not args.quiet)

    renderers = {
        "table1": table1,
        "table2": table2,
        "fig9": figure9,
        "fig10": figure10,
        "fig11": figure11,
        "fig12": figure12,
        "fig13": lambda r: figure13(r, session=session),
        "oaat": lambda r: one_at_a_time(r, session=session),
        "net": lambda r: net_table(r, session=session),
        "superblocks": lambda r: superblock_table(r, session=session),
        "ifconvert": lambda r: ifconvert_table(r, session=session),
        "metrics": metrics_table,
        "sampling": lambda r: sampling_table(r, session=session),
        "hpt": lambda r: hpt_table(r, session=session),
        "profilers": lambda r: profiler_table(r, session=session),
        "matching": lambda r: matching_table(
            [get_workload(n) for n in r], session=session,
            scale=args.scale),
    }
    # A table depends on nothing but the suite's results (and the code,
    # which salts every key), so a warm pass renders nothing.
    suite_key = session.suite_key(workloads, args.scale)
    for name in wanted:
        text = session.cache.get_or_compute(
            "table", fingerprint_text("table", name, suite_key),
            lambda: renderers[name](results))
        print()
        print(text)
        if args.save_dir:
            import pathlib
            out = pathlib.Path(args.save_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.txt").write_text(text + "\n")
    report = session.last_run_report
    if report is not None and (args.chaos or not report.clean):
        from .report import render_execution_report
        print()
        print(render_execution_report(report))
    if args.json:
        from .json_export import save_suite_json
        with open(args.json, "w") as handle:
            save_suite_json(results, handle, execution=report)
        if not args.quiet:
            print(f"\n[metrics written to {args.json}]")
    if not args.quiet:
        stats = session.stats
        print(f"\n[cache: {stats.hits} hits, {stats.misses} misses"
              + (f", {stats.disk_hits} from disk" if stats.disk_hits
                 else "") + "]")
        print(f"[{time.time() - start:.1f}s total]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
