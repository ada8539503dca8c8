"""Layered benchmark of the PPP reproduction.

Run from the root of a checkout (nothing to build: the program is
pure Python under ``src/``)::

    python3 perfbench/run.py --workload harness-all --seed 1 \\
        --seconds 40 --trace 0

Workloads (see each module's docstring):

* ``harness-all``   -- ``python -m repro.harness all`` cold, then warm;
* ``static-passes`` -- the four proof families over precomputed inputs;
* ``service-open``  -- an open loop against the profiling service (not
  in ``BENCHMARK.json``: its latencies do not repeat closely enough).

The seed picks the inputs: a draw of 3 CINT + 3 CFP benchmarks from the
pool in ``oracle.json`` (see ``common.draw_for_seed``) and, for the
service, the request schedule.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics, measured without any wrapper in the
program; the harness and proof times are in reference seconds
(``speed.py``), and the lines above it give the raw wall times.  With ``--trace 1`` the run wraps each
layer's public functions from the benchmark's own files (``layers.py``)
and prints the per-layer metrics, plus the traced-minus-untraced cost
and the share of time inside spans.  ``--smoke`` runs the smallest size
(1 benchmark, 10 requests); ``--oracle FILE`` checks against another
expected-output file.  Every output that differs from the oracle counts
as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from common import (BenchError, draw_for_seed, draw_key, load_oracle,
                    peak_rss_mb, require_program)

WORKLOADS = ("harness-all", "static-passes", "service-open")
END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "ok_frac": "frac", "peak_rss_mb": "MB"}
HASH_SEED = "0"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, oracle_path: Path | None
            ) -> tuple[int, int, dict[str, float], list[str]]:
    require_program()
    oracle = load_oracle(oracle_path)
    draw = draw_for_seed(oracle, seed)
    if smoke:
        draw = draw[:1]
    print(f"{workload}: seed {seed}, draw {draw_key(draw)}", flush=True)
    if workload == "harness-all":
        import harness_all

        expected = oracle["harness"].get(draw_key(draw))
        if expected is None:
            raise BenchError(f"no oracle output for {draw_key(draw)}")
        return harness_all.run(draw_key(draw), expected, seconds, trace)
    if workload == "static-passes":
        import static_passes

        return static_passes.run(draw_key(draw), trace)
    import service_open

    return service_open.run(draw, oracle["service"], seed, seconds, trace,
                            smoke)


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The program's output does not depend on the string hash seed,
        # but its cost does: a cold proof pass took 23-25 s under seed 0
        # and 27-28 s under seeds 1 and 2, back to back.  Every process
        # of the benchmark (this one, its children and the service's
        # forked workers) runs under one fixed seed, so two commits are
        # compared on the same hash layout.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--oracle", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        attempted, failed, values, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, args.oracle)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if args.trace:
        import layers

        units = layers.PER_LAYER
    else:
        units = END_TO_END
        values["ok_frac"] = 1.0 - failed / attempted
        values["peak_rss_mb"] = peak_rss_mb()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
