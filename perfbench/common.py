"""Shared plumbing for the layered benchmark: paths, draws, oracle,
child processes, statistics and memory.

The benchmark runs from the root of a checkout and reads and writes only
inside it: scratch state lives under ``.perfbench_work/`` there.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ORACLE_PATH = BENCH_DIR / "oracle.json"

# Environment knobs that change what the program does; children never
# inherit them, so every run measures the default configuration.
_PROGRAM_ENV = ("REPRO_BACKEND", "REPRO_FAULTS", "REPRO_VERIFY",
                "REPRO_EQUIV", "REPRO_JOBS", "REPRO_CACHE_DIR")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad oracle)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def work_dir(prefix: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


Span = tuple[float, float]  # (start, end) on the perf_counter clock


def run_child(args: Sequence[str], timeout: float = 170.0
              ) -> tuple[Span, subprocess.CompletedProcess]:
    """Run ``python <args>`` from the checkout root; (span, result)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    return (start, time.perf_counter()), proc


def walls(spans: Sequence[Span]) -> list[float]:
    """Wall seconds of each span, rounded for a report line."""
    return [round(end - start, 3) for start, end in spans]


def last_json_line(text: str) -> dict:
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("child printed no JSON result")


# ----------------------------------------------------------------------
# Draws and the reference-output oracle
# ----------------------------------------------------------------------

def load_oracle(path: Optional[Path] = None) -> dict:
    path = ORACLE_PATH if path is None else path
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read oracle {path}: {exc}") from None


# Which pool draw every seed uses.  The twelve pool draws cost different
# amounts, beyond any bound the benchmark may set: one run each, in
# reference seconds (speed.py) under the fixed hash seed, on a 2-vCPU
# Xeon VM, cold ``harness all`` passes took 20.6-29.1 s, warm passes
# 2.4-4.2 s, proof passes 16.1-21.0 s and warm proof passes 0.19-0.35 s,
# and no two draws agreed within 3% on all four.  So the draw is fixed to
# a pool member near the pool's median costs, and the seed drives the
# service schedule only.
FIXED_DRAW = 1


def draw_for_seed(oracle: dict, seed: int) -> list[str]:
    """The 3 CINT + 3 CFP benchmarks a run measures (see above and
    make_oracle.py); ``seed`` does not change them."""
    return list(oracle["draws"][FIXED_DRAW])


def draw_key(benchmarks: Sequence[str]) -> str:
    return ",".join(benchmarks)


# Harness tables whose text differs between the interpreter backends on
# unchanged code, so the tuple-backend oracle cannot vouch for them: the
# sampled-profile study thins edge counts with one seeded RNG stream in
# ``edge_freq`` iteration order, and that order depends on the backend.
# They are still checked cold pass against warm pass.
BACKEND_DEPENDENT = ("PPP planned from sampled edge profiles",)


def harness_digest(stdout: str) -> str:
    """Digest of the harness text the tuple-backend oracle vouches for."""
    blocks = [b for b in stdout.split("\n\n")
              if not b.strip().startswith(BACKEND_DEPENDENT)]
    return digest("\n\n".join(blocks))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_digest(payload: object) -> str:
    return digest(json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# Statistics and memory
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
