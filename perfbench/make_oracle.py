"""Generate ``oracle.json``: the benchmark's draws and expected outputs.

Usage (from the checkout root)::

    python3 perfbench/make_oracle.py            # everything (~30 min)
    python3 perfbench/make_oracle.py --draws 2  # a quick partial file

**Draws.**  A draw is 3 CINT + 3 CFP suite benchmarks.  Candidates come
from a seeded random sampler (never hand-picked, as SPEC practice asks),
and a candidate is kept only when its predicted cost stays within
``TOLERANCE`` of the mean over all 3+3 combinations on each of three
measures: a cold ``harness all`` pass, a warm one, and the four proof
families.  Balancing the draw keeps the spread of end-to-end times across
seeds small without fixing the benchmarks.  ``COST`` holds one-off
per-benchmark timings (seconds, single-benchmark runs on a 2-core x86
VM); if they drift the draws stay random, only less balanced.

**Oracle.**  Every expected output comes from the ``tuple`` reference
interpreter backend, never the compiled backend under test:

* ``harness``: sha256 of ``python -m repro.harness all --quiet`` stdout,
  less the tables ``common.BACKEND_DEPENDENT`` names, for every draw and
  for the first benchmark of each draw (the smoke size);
* ``service``: sha256 of the canonical JSON ``edge_profile_to_dict`` of
  each suite workload's ground-truth edge profile.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import sys

from common import (ORACLE_PATH, canonical_digest, draw_key, harness_digest,
                    require_program, run_child)

TOLERANCE = 0.04
DRAW_COUNT = 12
SAMPLER_SEED = 2005

# benchmark: (cold harness pass, warm harness pass, proof families), s.
# The first two include ~0.8 s / ~0.45 s of fixed process cost.
COST = {
    "vpr": (7.24, 1.37, 6.14), "mcf": (3.44, 0.72, 0.72),
    "crafty": (6.95, 1.35, 5.85), "parser": (3.49, 0.78, 0.85),
    "perlbmk": (7.58, 1.05, 7.26), "gap": (7.07, 1.37, 2.39),
    "bzip2": (3.14, 0.76, 1.25), "twolf": (2.18, 0.48, 1.70),
    "wupwise": (4.49, 1.01, 1.60), "swim": (2.98, 0.83, 0.65),
    "mgrid": (1.12, 0.51, 1.08), "applu": (1.77, 0.65, 2.91),
    "mesa": (6.52, 1.18, 5.38), "art": (7.46, 0.82, 3.70),
    "equake": (3.47, 0.86, 1.35), "ammp": (5.74, 1.28, 1.69),
    "sixtrack": (1.28, 0.62, 1.05), "apsi": (2.65, 0.73, 1.74),
}
FIXED = (0.8, 0.45, 0.0)


def predicted(draw: tuple[str, ...]) -> tuple[float, ...]:
    return tuple(sum(COST[b][i] - FIXED[i] for b in draw)
                 for i in range(3))


def balanced_draws(int_names: list[str], fp_names: list[str]
                   ) -> list[list[str]]:
    combos = [a + b for a in itertools.combinations(int_names, 3)
              for b in itertools.combinations(fp_names, 3)]
    means = [statistics.mean(predicted(c)[i] for c in combos)
             for i in range(3)]
    order = {name: i for i, name in enumerate(int_names + fp_names)}
    rng = random.Random(SAMPLER_SEED)
    draws: list[list[str]] = []
    while len(draws) < DRAW_COUNT:
        draw = tuple(sorted(rng.sample(int_names, 3)
                            + rng.sample(fp_names, 3), key=order.get))
        cost = predicted(draw)
        if list(draw) in draws or any(abs(c - m) > TOLERANCE * m
                                      for c, m in zip(cost, means)):
            continue
        draws.append(list(draw))
    return draws


def harness_oracle(benchmarks: list[str]) -> str:
    (start, end), proc = run_child(
        ["-m", "repro.harness", "all", "--quiet", "--jobs", "1",
         "--backend", "tuple", "--cache-dir", "",
         "--benchmarks", draw_key(benchmarks)], timeout=3600)
    if proc.returncode != 0:
        raise SystemExit(f"harness failed on {benchmarks}:\n{proc.stderr}")
    print(f"  {draw_key(benchmarks)}: {end - start:.1f}s", flush=True)
    return harness_digest(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=DRAW_COUNT,
                        help="how many draws to give harness oracles")
    args = parser.parse_args()
    require_program()
    from repro.engine.stages import ground_truth
    from repro.profiles import edge_profile_to_dict
    from repro.workloads import SUITE, fp_workloads, int_workloads

    draws = balanced_draws([w.name for w in int_workloads()],
                           [w.name for w in fp_workloads()])
    oracle: dict = {"draws": draws, "harness": {}, "service": {}}
    print("service ground truth (tuple backend)", flush=True)
    for workload in SUITE:
        _paths, profile, _rv = ground_truth(workload.compile(),
                                            backend="tuple")
        oracle["service"][workload.name] = canonical_digest(
            edge_profile_to_dict(profile))
    print("harness all (tuple backend)", flush=True)
    for draw in draws[:args.draws]:
        for benchmarks in (draw[:1], draw):
            key = draw_key(benchmarks)
            if key not in oracle["harness"]:
                oracle["harness"][key] = harness_oracle(benchmarks)
        ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n")
    ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
