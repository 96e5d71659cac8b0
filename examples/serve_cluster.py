"""End-to-end tour of multi-process serving: ``ServiceCluster``.

Trains a tuner, publishes it to an on-disk registry, then serves a burst
of mixed-instance ranking traffic from a 2-worker process cluster —
showing instance-affine routing, per-worker caches, a hot model swap
observed by every worker, crash recovery, the aggregated telemetry, and
the wire-level feedback stream: workers sample served answers back to the
coordinator, where one ``ClusterFeedbackCollector`` measures ground-truth
probes under a single budget (the hook the continual-learning pipeline
rides at cluster scale — see docs/continual_learning.md).

Run::

    PYTHONPATH=src python examples/serve_cluster.py
"""

from __future__ import annotations

import time
from tempfile import TemporaryDirectory

import numpy as np

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.training import TrainingSetBuilder
from repro.learn.ranksvm import RankSVM, RankSVMConfig
from repro.machine.budget import BudgetedMachine
from repro.machine.executor import SimulatedMachine
from repro.online import ClusterFeedbackCollector
from repro.service import ModelRegistry, ServiceCluster
from repro.stencil.suite import TEST_BENCHMARKS


def train() -> OrdinalAutotuner:
    print("== training the tuner (one-time, offline) ==")
    builder = TrainingSetBuilder(SimulatedMachine(seed=7), seed=7)
    training_set = builder.build(640)
    tuner = OrdinalAutotuner().train(training_set)
    print(f"trained on {len(training_set.data)} points\n")
    return tuner


def main() -> None:
    tuner = train()
    instances = TEST_BENCHMARKS[:8]
    with TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        v1 = registry.publish(tuner.model, tuner.fingerprint(), tags=("prod",))
        print(f"== published {v1}, tagged prod ==\n")

        with ServiceCluster(
            root, n_workers=2, default_model="prod", feedback_every=1
        ) as cluster:
            collector = ClusterFeedbackCollector(
                BudgetedMachine(SimulatedMachine(seed=11), max_evaluations=256),
                probe_size=8,
            ).attach(cluster)
            print("== burst: 32 requests over 8 instances, 2 workers ==")
            start = time.perf_counter()
            futures = [
                cluster.submit(q, top_k=3, include_scores=False)
                for q in instances * 4
            ]
            responses = [f.result() for f in futures]
            elapsed = time.perf_counter() - start
            by_worker: dict[int, int] = {}
            for r in responses:
                by_worker[r.worker_id] = by_worker.get(r.worker_id, 0) + 1
            print(f"answered {len(responses)} requests in {elapsed * 1e3:.0f} ms")
            print(f"shard load: {dict(sorted(by_worker.items()))}")
            print(f"cache-served repeats: {sum(r.cached for r in responses)}")
            print(f"best for {instances[0].label()}: {responses[0].best}\n")

            print("== hot swap: publish v2 and move the tag ==")
            retrained = RankSVM(RankSVMConfig(C=0.05, seed=1)).fit(
                TrainingSetBuilder(SimulatedMachine(seed=8), seed=8).build(640).data
            )
            v2 = registry.publish(retrained, tuner.fingerprint())
            registry.tag("prod", v2)
            response = cluster.submit(
                instances[0], top_k=1, include_scores=False
            ).result()
            print(f"next answer served by model {response.model_version} "
                  f"(worker {response.worker_id}) — no restart\n")

            print("== crash drill: kill worker 0 mid-service ==")
            cluster.kill_worker(0)
            survivors = [
                cluster.submit(q, top_k=1, include_scores=False).result()
                for q in instances
            ]
            print(f"all {len(survivors)} requests still answered "
                  f"(crashes observed: {cluster.crashes}; "
                  f"alive workers: {cluster.alive_workers()})\n")

            print("== feedback over the wire ==")
            measured = collector.measure_pending(limit=8)
            print(f"workers streamed {cluster.feedback_received} records "
                  f"(per shard: {dict(sorted(collector.records_by_worker.items()))})")
            print(f"measured {len(measured)} ground-truth probes under one "
                  f"budget; mean served-ranking tau "
                  f"{float(np.mean([fb.tau for fb in measured])):+.3f}\n")
            collector.detach(cluster)

            print("== aggregated telemetry ==")
            merged = cluster.stats()["cluster"]
            for key in (
                "workers", "requests_total", "completed_total", "failed_total",
                "cache_hits", "cache_misses", "cache_hit_rate",
                "scored_candidates_total",
                "latency_p50_ms", "latency_p99_ms",
            ):
                value = merged[key]
                print(f"  {key:24s} {value:.3f}" if isinstance(value, float)
                      else f"  {key:24s} {value}")


if __name__ == "__main__":
    main()
