"""Steadiness check: repeat each workload with different seeds.

Runs ``run.py`` once per seed as its own process (as a driver would),
then prints, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread — the
interquartile distance as a share of the median — against the metric's
bound in ``BENCHMARK.json``.  A spread above its bound fails the check
(``setup_s`` excepted: its spread is shown, but only its median is
compared between runs of the same code), as do failed answers and runs
past the lateness bound; a spread at or above a third of its bound is
marked as above the steadiness target.  With ``--trace-runs K`` it also
makes K traced runs per workload and reports tracing overhead: the
traced medians of ``p50_ms`` and ``sat_rps`` against the untraced ones.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads cold-preset --runs 5 --trace-runs 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run as its own process: its JSON result plus the run record."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    result["valid"], result["digest"] = record["valid"], record["stream_digest"]
    return result


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {args.seed_base + i}: digest {result['digest']} "
                  f"{'valid' if result['valid'] else 'INVALID'} failed {result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"\n{workload}: {args.runs} runs, {args.seconds} s each")
        print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        medians = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            medians[name] = median
            over = rel > bound and name != "setup_s"
            flagged += over
            flag = "  <-- OVER BOUND" if over else "  (above bound/3)" if rel >= bound / 3 else ""
            print(f"  {name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel:>9.3f}{bound:>8}{flag}")
        failures = sum(r["failed"] for r in results)
        invalid = sum(not r["valid"] for r in results)
        print(f"  failed answers across runs: {failures}  runs past the lateness bound: {invalid}")
        flagged += bool(failures or invalid)
        if args.trace_runs:
            traced = [
                run_once(workload, args.seed_base + i, args.seconds, 1)["metrics"]
                for i in range(args.trace_runs)
            ]
            p50 = statistics.median(t["traced.p50_ms"]["value"] for t in traced)
            rps = statistics.median(t["traced.sat_rps"]["value"] for t in traced)
            print(f"  tracing overhead: p50 {100 * (p50 / medians['p50_ms'] - 1):+.1f}%  "
                  f"sat_rps {100 * (rps / medians['sat_rps'] - 1):+.1f}%")
        print(flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
