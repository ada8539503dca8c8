#!/usr/bin/env python
"""Stale-profile matching study driver: JSON artifact plus CI gates.

Runs :func:`repro.harness.matching_study` over a workload subset --
profile an "old" build, apply seeded semantics-preserving edits
(rename/insert/delete blocks, re-run optimizer passes), and remap the
profile onto the "new" build -- then writes ``BENCH_matching.json``:

    {
      "schema": 1,
      "workloads": {
        "vpr": {"block_coverage": ..., "edge_coverage": ...,
                 "retained": ..., "edge_accuracy": ...,
                 "layout_agreement": ...},
        ...
      },
      "min_retained": ..., "mean_retained": ..., "mean_accuracy": ...
    }

Gates (both default on, tunable):

* ``--min-retained`` -- mean fraction of old edge counts carried over
  matched edges (default 0.8, the remap-instead-of-discard headline);
* ``--min-accuracy`` -- mean edge-flow accuracy of the remapped profile
  against the new build's own ground truth (default 0.95).

Usage::

    PYTHONPATH=src python scripts/staleness_matching.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import ArtifactCache, ProfilingSession  # noqa: E402
from repro.harness import matching_rows_to_dict, matching_study  # noqa: E402
from repro.workloads import SUITE, get_workload  # noqa: E402

SMOKE_WORKLOADS = ("vpr", "mcf", "parser", "swim")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Stale-profile matching study (JSON artifact + gates)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"only {', '.join(SMOKE_WORKLOADS)}")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated benchmark subset")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1,
                        help="seeded-edit seed (default 1)")
    parser.add_argument("--min-retained", type=float, default=0.8,
                        help="gate on mean retained fraction (default 0.8)")
    parser.add_argument("--min-accuracy", type=float, default=0.95,
                        help="gate on mean edge accuracy (default 0.95)")
    parser.add_argument("--output", default="BENCH_matching.json")
    parser.add_argument("--cache-dir", default="",
                        help="artifact cache directory (default: memory)")
    args = parser.parse_args(argv)

    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
    elif args.smoke:
        names = list(SMOKE_WORKLOADS)
    else:
        names = [w.name for w in SUITE]

    cache = ArtifactCache(disk_dir=args.cache_dir or None)
    session = ProfilingSession(cache=cache)
    rows = []
    for name in names:
        row = matching_study(get_workload(name), scale=args.scale,
                             seed=args.seed, session=session)
        print(f"  {name:10s} retained {row.retained * 100:5.1f}%   "
              f"accuracy {row.edge_accuracy * 100:5.1f}%   "
              f"layouts {row.layout_agreement * 100:3.0f}%", flush=True)
        rows.append(row)

    report = matching_rows_to_dict(rows)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"wrote {args.output}")

    failures = []
    if report["mean_retained"] < args.min_retained:
        failures.append(f"mean retained {report['mean_retained']:.3f} "
                        f"< {args.min_retained}")
    if report["mean_accuracy"] < args.min_accuracy:
        failures.append(f"mean accuracy {report['mean_accuracy']:.3f} "
                        f"< {args.min_accuracy}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
