"""Toy-scale self-test of the benchmark.

Checks, in a few minutes:

* the oracle flags a permuted answer and accepts the true one;
* every workload, at a few seconds' scale, answers with zero failures,
  prints exactly the end-to-end metrics of ``BENCHMARK.json`` with their
  units, and its traced run prints exactly the per-layer metrics;
* ``run.py`` exits non-zero, without a result, when the program under
  test is absent (a directory holding only the benchmark files).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
TOY_SECONDS = "3"


def check_oracle() -> None:
    import numpy as np

    from oracle import topk_valid

    scores = np.random.default_rng(0).normal(size=100)
    top = list(np.argsort(-scores, kind="stable")[:8])
    assert topk_valid(scores, top, 8), "true top-8 rejected"
    assert not topk_valid(scores, top[::-1], 8), "permuted top-8 accepted"
    assert not topk_valid(scores, top[:7] + [int(np.argmin(scores))], 8)
    tied = np.zeros(10)
    assert topk_valid(tied, [3, 1, 2], 3), "exact ties must accept any order"
    print("oracle: permuted answers flagged, ties tolerated")


def run(workload: str, trace: int, cwd: Path = ROOT) -> "subprocess.CompletedProcess":
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", TOY_SECONDS, "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(workload: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        expected = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected, (workload, trace, set(printed) ^ set(expected))
        assert result["attempted"] >= 1 and result["failed"] == 0, result
        assert result["correct"], result
        print(f"{workload} trace={trace}: {len(printed)} metrics, "
              f"{result['attempted']} answers, 0 failed")


def check_bare_directory() -> None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("hot-preset", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without the program under test"
    assert "metrics" not in proc.stdout, proc.stdout
    print(f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle()
    check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(workload, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
