"""The ``repro`` command line: profile, run, and inspect MiniC programs.

Subcommands
-----------

``run FILE``
    Compile and execute a MiniC file; prints the return value and the
    instruction count.
``profile FILE``
    Path-profile a MiniC file (default technique: PPP) and print the hot
    paths, overhead, and per-routine instrumentation decisions.  With
    ``--edge-profile IN`` the plan uses a saved profile instead of a
    fresh self-advice run; ``--save-edge-profile OUT`` persists one.
``disasm FILE``
    Print the lowered IR (``--optimize`` applies the scalar cleanup
    passes first).
``dot FILE FUNCTION``
    Emit Graphviz DOT for one function's CFG (``--dag`` for its
    profiling DAG with numbering values).
``cache {info,verify,gc,clear}``
    Inspect or empty the on-disk artifact cache the experiment harness
    keeps under ``results/.cache`` (see ``repro.engine``).  ``info``
    and ``verify`` report the cache salt (a hash of the package source)
    and flag entries written under another salt, i.e. by other code;
    ``gc`` deletes them.
``profilers``
    List the registered profiler plugins (name, description, machine
    channels).  Any non-plan profiler can be fused into an instrumented
    run via ``profile --profilers NAME[,NAME...]``.
``verify [FILE | --suite]``
    Statically verify PP/TPP/PPP instrumentation plans (numbering
    bijectivity, exact per-path counting, cold-edge poisoning, counter
    geometry) for one MiniC file or the whole workload suite.  Exits
    nonzero when any plan fails.
``lint [FILE | --suite]``
    Run the dataflow-backed IR lint passes (use-before-def, dead
    stores, unreachable blocks, constant branches, shadowed names) over
    one file or the expanded suite modules.
``equiv [FILE | --suite]``
    Translation validation: symbolically prove the compiled backend's
    generated code equivalent to the IR under every observation mode,
    and prove each optimizer pass semantics-preserving via a per-pass
    simulation relation.  Exits nonzero on any mismatch.
``conserve [FILE | --suite]``
    Flow-conservation counter inference: plan a spanning-tree probe
    placement for every function (measured edge weights when a profile
    is available, the paper's static estimator otherwise) and statically
    prove it uniquely solvable with an exact round-trip — i.e. that the
    non-probe edge counters are redundant and safe to delete.  Exits
    nonzero when any placement fails its proof.
``match [OLD NEW | --suite]``
    Stale-profile matching: anchor-match two MiniC files' IR modules,
    transfer the old file's ground-truth edge profile onto the new
    module repaired to exact flow conservation, and report per-function
    block/edge coverage plus the count mass retained.  ``--suite``
    instead proves the V7xx match/transfer checks (self-match identity,
    conservation, coverage) over every suite workload.
``serve``
    Run the continuous profiling service: a long-lived TCP JSON-lines
    server (one JSON object per line) accepting multi-tenant profiling
    and remap requests, with bounded admission, per-tenant quotas, a
    crash-safe write-ahead journal, a circuit breaker around the worker
    pool, and degradation to conservation-repaired stale remaps (see
    ``repro.service``).  ``--chaos`` accepts fault specs keyed by a
    request's admission ordinal (``drop-request=N``,
    ``stall-job=N:SECS``, ``kill-job=N``, ``journal-corrupt=N``).
``profiles {diff,merge} FILE ...``
    Operate on saved edge profiles against FILE's module: ``diff``
    classifies every CFG edge of two profiles by flow-share shift;
    ``merge`` folds several runs' profiles into one (and can embed a
    matching sketch for later staleness recovery).  Stale inputs with
    an embedded sketch are remapped instead of rejected.

``verify``, ``lint``, ``equiv``, ``conserve``, ``match``, and
``profiles`` accept ``--json`` for a structured report (one JSON
document on stdout) that CI can diff.

Examples::

    python -m repro run program.minic
    python -m repro profile program.minic --technique tpp --top 10
    python -m repro profile program.minic --profilers values,tripcounts
    python -m repro profilers
    python -m repro disasm program.minic --optimize
    python -m repro dot program.minic main --dag | dot -Tpng > cfg.png
    python -m repro cache info
    python -m repro verify --suite
    python -m repro lint program.minic
    python -m repro equiv --suite --json
    python -m repro conserve --suite
    python -m repro match old.minic new.minic
    python -m repro serve --port 7000 --journal results/journal.bin
    python -m repro profiles diff program.minic before.json after.json
    python -m repro profiles merge program.minic run*.json -o merged.json
"""

from __future__ import annotations

import argparse
import sys
import time

from .harness.__main__ import (DEFAULT_CACHE_DIR, CliError,
                               _add_backend_option, _add_chaos_option,
                               _add_fault_options, _add_profilers_option,
                               _chosen_workloads, _install_chaos,
                               _selected_profilers, build_session)


def _load(path: str):
    from .lang import MiniCError, compile_source
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return compile_source(source, name=path)
    except MiniCError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except Exception as exc:  # validator errors carry their own context
        raise CliError(f"{path}: {exc}") from exc


def cmd_run(args) -> int:
    from .interp import run_module

    module = _load(args.file)
    result = run_module(module, max_instructions=args.max_instructions,
                        backend=args.backend)
    print(f"return value: {result.return_value}")
    print(f"instructions: {result.instructions_executed}")
    return 0


def cmd_profile(args) -> int:
    import json

    from .core import (build_estimated_profile, evaluate_accuracy,
                       measured_paths, run_with_plan)
    from .engine.stages import ground_truth, plan_stage
    from .profiles import (edge_profile_from_dict_or_remap,
                           save_edge_profile)

    module = _load(args.file)
    actual, fresh_profile, _rv = ground_truth(module, backend=args.backend)
    if args.edge_profile:
        with open(args.edge_profile) as handle:
            data = json.load(handle)
        try:
            edge_profile, match = edge_profile_from_dict_or_remap(data,
                                                                  module)
        except ValueError as exc:
            raise CliError(f"{args.edge_profile}: {exc}") from exc
        if match is None:
            print(f"using saved edge profile: {args.edge_profile}")
        else:
            matched = sum(len(fm.blocks) for fm in match.functions)
            total = sum(fm.old_blocks for fm in match.functions)
            print(f"using saved edge profile: {args.edge_profile} "
                  f"(stale; remapped {matched}/{total} blocks via "
                  f"sketch matching)")
    else:
        edge_profile = fresh_profile
    if args.save_edge_profile:
        with open(args.save_edge_profile, "w") as handle:
            save_edge_profile(fresh_profile, handle, embed_sketch=True)
        print(f"saved edge profile to {args.save_edge_profile}")

    extra = _selected_profilers(args)
    plan = plan_stage(args.technique, module, edge_profile)
    run = run_with_plan(plan, backend=args.backend, profilers=extra)

    print(f"\ntechnique: {args.technique.upper()}   "
          f"overhead: {run.overhead * 100:.1f}% (cost model)")
    for name, fplan in plan.functions.items():
        if fplan.instrumented:
            mode = "hash" if fplan.use_hash else "array"
            print(f"  {name}: instrumented, {fplan.num_paths} paths "
                  f"({mode}), {len(fplan.cold_cfg)} cold edges")
        else:
            print(f"  {name}: not instrumented ({fplan.reason})")

    if args.show_plan:
        from .core import format_plan
        print()
        print(format_plan(plan))

    estimated = build_estimated_profile(run, edge_profile)
    accuracy = evaluate_accuracy(actual, estimated.flows)
    print(f"\naccuracy vs ground truth: {accuracy * 100:.1f}%")

    print(f"\ntop {args.top} measured paths:")
    rows = []
    for name in plan.functions:
        for blocks, count in measured_paths(run, name).items():
            rows.append((count, name, blocks))
    rows.sort(key=lambda r: -r[0])
    for count, name, blocks in rows[:args.top]:
        print(f"  {count:10.0f}  {name}: {' -> '.join(blocks)}")
    if not rows:
        print("  (nothing instrumented; profile estimated from "
              "definite/potential flow)")
    if run.profiles:
        print()
        _print_extra_profiles(run.profiles)
    return 0


def _print_extra_profiles(profiles: dict) -> None:
    """Compact per-profiler summaries for ``profile --profilers``."""
    from .profilers import mean_trips, top_values
    for pname, data in profiles.items():
        print(f"{pname}:")
        if pname == "values":
            for func, sites in data.items():
                for site, table in sites.items():
                    tops = ", ".join(f"{v!r}({c})"
                                     for v, c in top_values(table, 3))
                    lost = (f" (+{table['lost']} lost)"
                            if table["lost"] else "")
                    print(f"  {func}/{site}: {tops}{lost}")
        elif pname == "tripcounts":
            for func, loops in data.items():
                for header, hist in loops.items():
                    total = sum(hist.values())
                    print(f"  {func}/{header}: {total} episodes, "
                          f"mean {mean_trips(hist):.1f} trips")
        else:
            print(f"  {data!r}")


def cmd_profilers(args) -> int:
    from .profilers import available

    infos = available()
    width = max(len(info.name) for info in infos)
    for info in infos:
        channels = []
        if info.channels.edge_profile:
            channels.append("edge-counts")
        if info.channels.trace_paths:
            channels.append("path-trace")
        if info.requires_plan:
            channels.append("needs-plan")
        suffix = f"  [{', '.join(channels)}]" if channels else ""
        print(f"{info.name:<{width}}  {info.description}{suffix}")
    return 0


def cmd_disasm(args) -> int:
    from .ir.printer import format_module
    module = _load(args.file)
    if args.optimize:
        from .opt import cleanup_module
        module, stats = cleanup_module(module)
        print(f"; scalar cleanup: {stats.total} rewrites")
    print(format_module(module))
    return 0


def cmd_dot(args) -> int:
    from .cfg import build_profiling_dag, cfg_to_dot, dag_to_dot
    module = _load(args.file)
    if args.function not in module.functions:
        print(f"error: no function {args.function!r} in {args.file}",
              file=sys.stderr)
        return 1
    func = module.functions[args.function]
    if args.dag:
        from .core import number_paths
        dag = build_profiling_dag(func.cfg)
        numbering = number_paths(dag)
        print(dag_to_dot(dag, values=numbering.val))
    else:
        print(cfg_to_dot(func.cfg))
    return 0


def cmd_cache(args) -> int:
    from .engine import CACHE_SALT, ArtifactCache

    cache = ArtifactCache(disk_dir=args.dir)
    files = cache.disk_files()
    if args.action == "info":
        by_kind: dict[str, int] = {}
        for path in files:
            kind = path.name.split("-", 1)[0]
            by_kind[kind] = by_kind.get(kind, 0) + 1
        print(f"cache directory: {args.dir}")
        print(f"cache salt: {CACHE_SALT:08x}")
        print(f"artifacts: {len(files)} "
              f"({cache.disk_size_bytes() / 1024:.1f} KB)")
        for kind in sorted(by_kind):
            print(f"  {kind}: {by_kind[kind]}")
        stale = {salt: n for salt, n in sorted(cache.schema_census().items())
                 if salt and salt != CACHE_SALT}
        if stale:
            salts = ", ".join(f"{salt:08x}: {n}" for salt, n in stale.items())
            print(f"  stale: {sum(stale.values())} ({salts}) -- run "
                  f"'repro cache gc' to remove stale entries")
        quarantined = cache.quarantined_files()
        if quarantined:
            print(f"  quarantined: {len(quarantined)} (run "
                  f"'repro cache gc' to delete)")
        return 0
    if args.action == "verify":
        ok, quarantined, stale = cache.verify_disk()
        print(f"cache salt: {CACHE_SALT:08x}")
        print(f"verified {ok + quarantined + stale} artifacts: {ok} ok, "
              f"{quarantined} corrupt (quarantined), {stale} stale")
        if stale:
            print("stale entries were written by other code; "
                  "run 'repro cache gc' to remove stale entries")
        return 1 if quarantined else 0
    if args.action == "gc":
        removed, reclaimed = cache.gc_disk()
        print(f"removed {removed} quarantined/stale files "
              f"({reclaimed / 1024:.1f} KB) from {args.dir}")
        return 0
    removed = cache.clear(disk=True)
    print(f"removed {removed} cached artifacts from {args.dir}")
    return 0


def _parse_techniques(spec: str) -> tuple[str, ...]:
    techs = tuple(t.strip() for t in spec.split(",") if t.strip())
    for tech in techs:
        if tech not in ("pp", "tpp", "ppp"):
            raise CliError(f"unknown technique {tech!r}")
    if not techs:
        raise CliError("no techniques selected")
    return techs


def _report(args, command: str, noun: str, compute) -> int:
    """Run ``compute`` and print its proof reports as one JSON document
    or as text; exit status 1 when any report failed.

    ``compute`` returns reports, or ``(label, report, record)`` triples
    whose label heads each line of the report and whose record is its
    JSON entry.
    """
    start = time.time()
    entries = [item if isinstance(item, tuple)
               else (item.title, item, item.to_dict())
               for item in compute()]
    count = len(entries)
    failed = sum(1 for _label, report, _record in entries
                 if not report.ok)
    if args.json:
        import json
        print(json.dumps({
            "command": command, "ok": not failed,
            f"{noun}s": count, "failed": failed,
            "elapsed_s": round(time.time() - start, 3),
            "reports": [record for _label, _report, record in entries],
        }, indent=2, sort_keys=True))
        return 1 if failed else 0
    from .analysis import Severity
    for label, report, _record in entries:
        for diag in report:
            if diag.severity >= Severity.WARNING or args.verbose:
                print(f"{label}: {diag.format()}")
        if not args.quiet:
            status = "FAIL" if not report.ok else "ok"
            # A label other than the report's title heads its status too.
            head = "" if label == report.title else f"{label}: "
            print(f"[{status}] {head}{report.summary()}")
    lead = "verified" if command == "verify" else f"{command}:"
    print(f"{lead} {count} {noun}{'s' if count != 1 else ''}: "
          f"{count - failed} ok, {failed} failed "
          f"({time.time() - start:.1f}s)")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    from .analysis import DEFAULT_PATH_CAP, verify_module_plan, verify_suite
    from .engine.stages import ground_truth, plan_stage

    path_cap = DEFAULT_PATH_CAP if args.path_cap is None else args.path_cap

    def compute():
        if args.suite or args.benchmarks:
            session = build_session(cache_dir=args.cache_dir,
                                    chaos=args.chaos)
            return verify_suite(session, _chosen_workloads(args.benchmarks),
                                techniques=_parse_techniques(args.techniques),
                                path_cap=path_cap)
        if not args.file:
            raise CliError("verify needs a FILE or --suite")
        module = _load(args.file)
        _actual, edge_profile, _rv = ground_truth(module)
        reports = []
        for tech in _parse_techniques(args.techniques):
            report = verify_module_plan(plan_stage(tech, module,
                                                   edge_profile),
                                        path_cap=path_cap)
            report.title = f"{args.file}/{tech}"
            reports.append(report)
        return reports

    return _report(args, "verify", "plan", compute)


def cmd_lint(args) -> int:
    from .analysis import Severity, lint_module

    if args.suite or args.benchmarks:
        session = build_session(cache_dir=args.cache_dir, chaos=args.chaos)
        modules = [(w.name, session.expand(w).module)
                   for w in _chosen_workloads(args.benchmarks)]
    elif args.file:
        modules = [(args.file, _load(args.file))]
    else:
        raise CliError("lint needs a FILE or --suite")

    errors = warnings = 0
    results = []
    for name, module in modules:
        report = lint_module(module, warn_synthetic=args.warn_synthetic)
        report.title = report.title or name
        results.append((name, report))
        errors += len(report.errors())
        warnings += len(report.warnings())
    if args.json:
        import json
        print(json.dumps({
            "command": "lint",
            "ok": not (errors or (args.strict and warnings)),
            "errors": errors, "warnings": warnings,
            "reports": [dict(r.to_dict(), module=name)
                        for name, r in results],
        }, indent=2, sort_keys=True))
    else:
        for name, report in results:
            for diag in report:
                if diag.severity >= Severity.WARNING or args.verbose:
                    print(f"{name}: {diag.format()}")
            if not args.quiet:
                print(f"[{name}] {report.summary()}")
        print(f"lint: {errors} error{'s' if errors != 1 else ''}, "
              f"{warnings} warning{'s' if warnings != 1 else ''} across "
              f"{len(modules)} module{'s' if len(modules) != 1 else ''}")
    if errors or (args.strict and warnings):
        return 1
    return 0


def _parse_passes(spec: str) -> tuple[str, ...]:
    from .analysis import PASS_NAMES
    passes = tuple(p.strip() for p in spec.split(",") if p.strip())
    for name in passes:
        if name not in PASS_NAMES:
            raise CliError(f"unknown pass {name!r}; expected a subset "
                           f"of {','.join(PASS_NAMES)}")
    return passes


def cmd_equiv(args) -> int:
    from .analysis import PASS_NAMES, equiv_module, equiv_suite

    passes = _parse_passes(args.passes) if args.passes else PASS_NAMES

    def compute():
        if args.suite or args.benchmarks:
            session = build_session(cache_dir=args.cache_dir,
                                    chaos=args.chaos)
            results = equiv_suite(session,
                                  _chosen_workloads(args.benchmarks),
                                  passes=passes)
        elif args.file:
            module = _load(args.file)
            results = [(args.file, label, report)
                       for label, report in equiv_module(module,
                                                         passes=passes)]
        else:
            raise CliError("equiv needs a FILE or --suite")
        return [(f"{name}/{label}", report,
                 dict(report.to_dict(), module=name, check=label))
                for name, label, report in results]

    return _report(args, "equiv", "check", compute)


def cmd_conserve(args) -> int:
    from .analysis import conserve_suite, verify_conservation
    from .analysis.conservation import DEFAULT_WALK_CAP

    walk_cap = DEFAULT_WALK_CAP if args.walk_cap is None else args.walk_cap

    def compute():
        if args.suite or args.benchmarks:
            session = build_session(cache_dir=args.cache_dir,
                                    chaos=args.chaos)
            return conserve_suite(session,
                                  _chosen_workloads(args.benchmarks),
                                  walk_cap=walk_cap)
        if not args.file:
            raise CliError("conserve needs a FILE or --suite")
        report = verify_conservation(_load(args.file), walk_cap=walk_cap)
        report.title = args.file
        return [report]

    return _report(args, "conserve", "module", compute)


def cmd_match(args) -> int:
    from .analysis import Severity

    if args.suite or args.benchmarks:
        from .analysis import match_suite

        def compute():
            session = build_session(cache_dir=args.cache_dir,
                                    chaos=args.chaos)
            return match_suite(session, _chosen_workloads(args.benchmarks))

        return _report(args, "match", "check", compute)

    start = time.time()
    if not (args.old and args.new):
        raise CliError("match needs OLD and NEW files, or --suite")
    from .analysis import verify_match, verify_transfer
    from .analysis.match import match_modules
    from .analysis.transfer import remap_edge_profile
    from .engine.stages import ground_truth

    old_module = _load(args.old)
    new_module = _load(args.new)
    match = match_modules(old_module, new_module)
    _actual, edge_profile, _rv = ground_truth(old_module,
                                              backend=args.backend)
    result = remap_edge_profile(edge_profile, new_module, match=match)
    report_m = verify_match(old_module, new_module, match)
    report_t = verify_transfer(result, old_profile=edge_profile)
    ok = report_m.ok and report_t.ok

    if args.json:
        import json
        print(json.dumps({
            "command": "match", "ok": ok,
            "old": args.old, "new": args.new,
            "identical": match.identical,
            "retained": result.stats.retained,
            "match": match.to_dict(),
            "reports": [report_m.to_dict(), report_t.to_dict()],
            "elapsed_s": round(time.time() - start, 3),
        }, indent=2, sort_keys=True))
        return 0 if ok else 1

    print(f"match {args.old} -> {args.new}"
          f"{'  (identical modules)' if match.identical else ''}")
    for fm in match.functions:
        arrow = fm.old if fm.old == fm.new else f"{fm.old} -> {fm.new}"
        print(f"  {arrow}: {len(fm.blocks)}/{fm.old_blocks} blocks, "
              f"{len(fm.edges)}/{fm.old_edges} edges "
              f"(min confidence {fm.min_confidence:.2f})")
        if args.verbose:
            for bm in fm.blocks:
                print(f"    {bm.old} -> {bm.new}  [{bm.anchor} "
                      f"{bm.confidence:.2f}]")
    unmatched = [name for name in sorted(old_module.functions)
                 if match.for_old(name) is None]
    if unmatched:
        print(f"  unmatched old functions: {', '.join(unmatched)}")
    print(f"transferred edge counts: "
          f"{result.stats.mapped_total}/{result.stats.old_total} "
          f"({result.stats.retained * 100:.1f}% retained, "
          f"repaired to exact conservation)")
    for report in (report_m, report_t):
        for diag in report:
            if diag.severity >= Severity.WARNING or args.verbose:
                print(diag.format())
    print(f"[{'ok' if ok else 'FAIL'}] verified match and transfer "
          f"({time.time() - start:.1f}s)")
    return 0 if ok else 1


def cmd_profiles(args) -> int:
    import json

    from .profiles import (diff_edge_profiles,
                           edge_profile_from_dict_or_remap,
                           format_edge_diff, save_edge_profile)

    module = _load(args.file)

    def load(path: str):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: {exc}") from exc
        try:
            profile, match = edge_profile_from_dict_or_remap(data, module)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
        if match is not None and not args.json:
            print(f"note: {path} was stale; remapped via sketch matching")
        return profile, match

    if args.action == "diff":
        if len(args.profiles) != 2:
            raise CliError("profiles diff needs exactly two profiles")
        before, _m0 = load(args.profiles[0])
        after, _m1 = load(args.profiles[1])
        diff = diff_edge_profiles(before, after,
                                  threshold=args.threshold)
        if args.json:
            print(json.dumps(dict(diff.to_dict(), command="profiles-diff",
                                  before=args.profiles[0],
                                  after=args.profiles[1]),
                             indent=2, sort_keys=True))
        else:
            print(format_edge_diff(diff, limit=args.top))
        return 0

    # merge
    if not args.profiles:
        raise CliError("profiles merge needs at least one profile")
    merged = None
    remapped = 0
    for path in args.profiles:
        profile, match = load(path)
        remapped += 1 if match is not None else 0
        merged = profile if merged is None else merged.merge(profile)
    out = {"merged": len(args.profiles), "remapped": remapped,
           "invocations": {name: fp.entry_count
                           for name, fp in merged.functions.items()
                           if fp.entry_count}}
    if args.output:
        with open(args.output, "w") as handle:
            save_edge_profile(merged, handle,
                              embed_sketch=args.embed_sketch)
        out["output"] = args.output
    if args.json:
        print(json.dumps(dict(out, command="profiles-merge"), indent=2,
                         sort_keys=True))
    else:
        suffix = f" ({remapped} remapped)" if remapped else ""
        print(f"merged {out['merged']} profiles{suffix}")
        for name, count in sorted(out["invocations"].items()):
            print(f"  {name}: {count} invocations")
        if args.output:
            print(f"wrote {args.output}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .service import ProfilingServer, ProfilingService

    if args.chaos:
        _install_chaos(args.chaos)

    async def run() -> int:
        service = ProfilingService(
            jobs=args.jobs, shards=args.shards,
            queue_capacity=args.queue_capacity,
            tenant_quota=args.tenant_quota, retries=args.retries,
            task_timeout=args.timeout,
            journal_path=args.journal or None,
            cache_dir=args.cache_dir or None, backend=args.backend)
        await service.start()
        server = ProfilingServer(service, host=args.host, port=args.port)
        host, port = await server.start()
        replayed = service.metrics.journal_replayed
        recovered = f", {replayed} journaled requests replayed" \
            if replayed else ""
        print(f"profiling service listening on {host}:{port} "
              f"({args.shards} shards x {args.jobs} pool jobs{recovered})",
              flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            await service.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("profiling service stopped")
        return 0


def _add_suite_options(parser: argparse.ArgumentParser) -> None:
    """The options every proof command shares; of the fault options only
    ``--chaos`` applies, since no proof suite fans tasks out."""
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated benchmark subset")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="artifact cache directory for --suite "
                             "(empty = memory only)")
    parser.add_argument("--json", action="store_true",
                        help="emit one structured JSON report on stdout")
    _add_chaos_option(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Path profiling for MiniC programs (PPP / TPP / PP).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and execute a program")
    p_run.add_argument("file")
    p_run.add_argument("--max-instructions", type=int, default=500_000_000)
    _add_backend_option(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_prof = sub.add_parser("profile", help="path-profile a program")
    p_prof.add_argument("file")
    _add_backend_option(p_prof)
    p_prof.add_argument("--technique", choices=("pp", "tpp", "ppp"),
                        default="ppp")
    p_prof.add_argument("--top", type=int, default=10,
                        help="how many hot paths to print")
    p_prof.add_argument("--show-plan", action="store_true",
                        help="print per-edge instrumentation decisions")
    p_prof.add_argument("--edge-profile", metavar="IN",
                        help="plan from a saved edge profile (JSON)")
    p_prof.add_argument("--save-edge-profile", metavar="OUT",
                        help="save this run's edge profile (JSON)")
    _add_profilers_option(p_prof)
    p_prof.set_defaults(fn=cmd_profile)

    p_plist = sub.add_parser(
        "profilers", help="list the registered profiler plugins")
    p_plist.set_defaults(fn=cmd_profilers)

    p_dis = sub.add_parser("disasm", help="print the lowered IR")
    p_dis.add_argument("file")
    p_dis.add_argument("--optimize", action="store_true",
                       help="apply scalar cleanup passes first")
    p_dis.set_defaults(fn=cmd_disasm)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT for a function")
    p_dot.add_argument("file")
    p_dot.add_argument("function")
    p_dot.add_argument("--dag", action="store_true",
                       help="show the profiling DAG with numbering values")
    p_dot.set_defaults(fn=cmd_dot)

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the artifact cache")
    p_cache.add_argument("action",
                         choices=("info", "verify", "gc", "clear"))
    p_cache.add_argument("--dir", default=DEFAULT_CACHE_DIR,
                         help=f"cache directory (default {DEFAULT_CACHE_DIR})")
    p_cache.set_defaults(fn=cmd_cache)

    p_verify = sub.add_parser(
        "verify", help="statically verify instrumentation plans")
    p_verify.add_argument("file", nargs="?",
                          help="a MiniC file (omit with --suite)")
    p_verify.add_argument("--suite", action="store_true",
                          help="verify every workload-suite plan")
    p_verify.add_argument("--techniques", default="pp,tpp,ppp",
                          help="comma-separated subset of pp,tpp,ppp")
    p_verify.add_argument("--path-cap", type=int, metavar="N",
                          default=None,
                          help="enumeration cap before id sampling")
    p_verify.add_argument("--verbose", action="store_true",
                          help="also print informational findings")
    p_verify.add_argument("--quiet", action="store_true",
                          help="only print failures and the final line")
    _add_suite_options(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_lint = sub.add_parser(
        "lint", help="run the dataflow-backed IR lint passes")
    p_lint.add_argument("file", nargs="?",
                        help="a MiniC file (omit with --suite)")
    p_lint.add_argument("--suite", action="store_true",
                        help="lint every expanded suite module")
    p_lint.add_argument("--warn-synthetic", action="store_true",
                        help="keep warnings in optimizer-inserted blocks "
                             "at full severity")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit nonzero on warnings, not just errors")
    p_lint.add_argument("--verbose", action="store_true",
                        help="also print informational findings")
    p_lint.add_argument("--quiet", action="store_true",
                        help="only print findings and the final line")
    _add_suite_options(p_lint)
    p_lint.set_defaults(fn=cmd_lint)

    p_equiv = sub.add_parser(
        "equiv", help="translation-validate codegen and optimizer passes")
    p_equiv.add_argument("file", nargs="?",
                         help="a MiniC file (omit with --suite)")
    p_equiv.add_argument("--suite", action="store_true",
                         help="validate every workload-suite module")
    p_equiv.add_argument("--passes", default="",
                         help="comma-separated subset of the optimizer "
                              "passes to validate (default: all six)")
    p_equiv.add_argument("--verbose", action="store_true",
                         help="also print informational findings")
    p_equiv.add_argument("--quiet", action="store_true",
                         help="only print failures and the final line")
    _add_suite_options(p_equiv)
    p_equiv.set_defaults(fn=cmd_equiv)

    p_cons = sub.add_parser(
        "conserve",
        help="prove spanning-tree probe placements via flow conservation")
    p_cons.add_argument("file", nargs="?",
                        help="a MiniC file (omit with --suite)")
    p_cons.add_argument("--suite", action="store_true",
                        help="prove a placement for every suite function")
    p_cons.add_argument("--walk-cap", type=int, metavar="N", default=None,
                        help="entry-to-exit walk enumeration cap for the "
                             "round-trip proof (default 256)")
    p_cons.add_argument("--verbose", action="store_true",
                        help="also print informational findings "
                             "(per-function probe statistics)")
    p_cons.add_argument("--quiet", action="store_true",
                        help="only print failures and the final line")
    _add_suite_options(p_cons)
    p_cons.set_defaults(fn=cmd_conserve)

    p_match = sub.add_parser(
        "match",
        help="stale-profile matching between two modules")
    p_match.add_argument("old", nargs="?",
                         help="the MiniC file a profile was collected on")
    p_match.add_argument("new", nargs="?",
                         help="the edited MiniC file to transfer onto")
    p_match.add_argument("--suite", action="store_true",
                         help="prove the V7xx match/transfer checks over "
                              "every suite workload")
    _add_backend_option(p_match)
    p_match.add_argument("--verbose", action="store_true",
                         help="also print per-block anchors and "
                              "informational findings")
    p_match.add_argument("--quiet", action="store_true",
                         help="only print failures and the final line")
    _add_suite_options(p_match)
    p_match.set_defaults(fn=cmd_match)

    p_serve = sub.add_parser(
        "serve", help="run the continuous profiling service")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default: an ephemeral port, "
                              "printed at startup)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="worker processes in the service's one "
                              "long-lived pool (default 2)")
    p_serve.add_argument("--shards", type=int, default=2,
                         help="concurrent dispatcher shards (default 2)")
    p_serve.add_argument("--queue-capacity", type=int, default=64,
                         help="total outstanding-request bound; beyond "
                              "it requests are rejected with a "
                              "retry-after hint (default 64)")
    p_serve.add_argument("--tenant-quota", type=int, default=8,
                         help="outstanding-request bound per tenant "
                              "(default 8)")
    p_serve.add_argument("--journal", default="",
                         help="write-ahead journal path; replayed on "
                              "restart (default: no journal)")
    p_serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help="artifact cache directory for workers "
                              "(empty = memory only)")
    _add_backend_option(p_serve)
    _add_fault_options(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_profiles = sub.add_parser(
        "profiles", help="diff or merge saved edge profiles")
    p_profiles.add_argument("action", choices=("diff", "merge"))
    p_profiles.add_argument("file",
                            help="the MiniC file the profiles describe")
    p_profiles.add_argument("profiles", nargs="*",
                            help="saved edge-profile JSON files")
    p_profiles.add_argument("--threshold", type=float, default=0.001,
                            help="minimum flow-share shift to report "
                                 "(diff; default 0.001)")
    p_profiles.add_argument("--top", type=int, default=10,
                            help="how many edge movers to print (diff)")
    p_profiles.add_argument("-o", "--output", metavar="OUT",
                            help="write the merged profile here (merge)")
    p_profiles.add_argument("--embed-sketch", action="store_true",
                            help="embed a matching sketch in the merged "
                                 "profile for later staleness recovery")
    p_profiles.add_argument("--json", action="store_true",
                            help="emit one structured JSON report on "
                                 "stdout")
    p_profiles.set_defaults(fn=cmd_profiles)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
