"""Serving benchmark: one workload against a ServiceCluster, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-preset --seed 1 --seconds 12 --trace 0

Workloads (inputs generated from ``--seed``; see ``workloads.py``):

* ``hot-preset`` — uniform over the 16 Fig. 4 instances, presets, top-8.
  After warm-up nearly every answer is a ranking-cache hit, so the load
  falls on dispatch, routing, frames, transport, batching and the cache.
* ``cold-preset`` — Zipf draws over a large population of distinct
  instances (one quarter 2-D): most requests pay a full preset encode,
  score and order.

Each run sets up three times (offline training, publish, fleet spawn,
warm-up; ``setup_s`` is the median), then measures for ``--seconds``:
eight cycles of an open-loop Poisson part (latency from each request's
due time) and a closed-loop part (a fixed window of outstanding
requests; ``sat_rps``).  Two retrain→shadow→promote episodes are
timed between cycles, on a fleet still warm from serving.  Off the clock it
then probes post-shift ranking quality and checks every answer against
the dense oracle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the cluster's ``TraceConfig`` on and method timers around
coordinator-side layers, then probes each layer directly, and prints the
per-layer metrics.  The last stdout line is the JSON result (``correct``
is false if an answer failed or the generator fell behind its schedule);
the full record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads: the workers are
# forked from this environment, and n_workers threaded BLAS pools would
# oversubscribe n_workers cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / ".work"
sys.path.insert(0, str(ROOT / "src"))

def git_state() -> dict:
    """HEAD sha and dirty flag, or None outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def environment(n_workers: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "n_workers": n_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        **git_state(),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("hot-preset", "cold-preset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    record["environment"] = environment(record["n_workers"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    stop_helpers()
    for line in record["report"]:
        print(line)
    print(json.dumps(record["result"]))
    return 0


def stop_helpers() -> None:
    """Stop and reap the forkserver and resource tracker the fleet started.

    Both would exit on their own once this process closes their pipes;
    stopping them here means no process of the run outlives it.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


if __name__ == "__main__":
    sys.exit(main())
