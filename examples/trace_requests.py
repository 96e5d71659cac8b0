"""Tour of the observability layer: tracing, attribution, and metrics.

Serves a burst of mixed ranking traffic from a 2-worker cluster with
distributed tracing on, then answers the operational questions the layer
exists for:

* **where does a request's time go?** — every traced request carries a
  root span plus stage spans from both sides of the worker pipe
  (dispatch, transport, service queue, encode, score, reply);
  ``stage_breakdown`` folds them into a per-stage attribution;
* **which requests are traced?** — a deterministic request-id hash, so
  reruns trace the identical subset at any sample rate;
* **what do cluster-wide percentiles look like?** — per-worker
  fixed-bucket histograms merge exactly over each worker's lifetime and
  render as Prometheus-style exposition text for scrapers.

Run::

    PYTHONPATH=src python examples/trace_requests.py
"""

from __future__ import annotations

import time
from tempfile import TemporaryDirectory

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.training import TrainingSetBuilder
from repro.machine.executor import SimulatedMachine
from repro.obs.metrics import exposition
from repro.obs.trace import TraceConfig, sample_request, stage_breakdown
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
        registry.publish(tuner.model, tuner.fingerprint(), tags=("prod",))

        print("== traced burst: 48 requests, 2 workers, sample_rate=1.0 ==")
        with ServiceCluster(
            root,
            n_workers=2,
            default_model="prod",
            trace=TraceConfig(sample_rate=1.0),
        ) as cluster:
            start = time.perf_counter()
            futures = [
                cluster.submit(q, top_k=3, include_scores=False)
                for q in instances * 6
            ]
            for fut in futures:
                fut.result()
            elapsed = time.perf_counter() - start
            spans = cluster.trace_spans()
            merged = cluster.stats()["cluster"]
        print(f"answered {len(futures)} requests in {elapsed * 1e3:.0f} ms; "
              f"recorded {len(spans)} spans\n")

        print("== one request's story (first trace, chronological) ==")
        first_id = next(s.trace_id for s in spans if s.trace_id)
        story = sorted(
            (s for s in spans if s.trace_id == first_id),
            key=lambda s: (s.start_s, -s.duration_s),
        )
        t0 = story[0].start_s
        for s in story:
            print(f"  +{(s.start_s - t0) * 1e3:7.2f} ms  "
                  f"{s.name:15s} {s.duration_s * 1e3:8.3f} ms  [{s.process}]")
        print()

        print("== per-stage attribution (all traces) ==")
        report = stage_breakdown(spans)
        print(f"traces: {report['n_traces']}  "
              f"coverage: mean {report['coverage_mean']:.1%}, "
              f"min {report['coverage_min']:.1%}")
        for name, stage in sorted(
            report["stages"].items(), key=lambda kv: -kv[1]["total_s"]
        ):
            print(f"  {name:15s} {stage['mean_ms']:8.3f} ms/req  "
                  f"{stage['fraction']:6.1%} of wall  (n={stage['count']})")
        print()

        print("== deterministic sampling at rate 0.25 ==")
        decisions = [sample_request(i, 0.25) for i in range(1, 49)]
        print(f"would trace {sum(decisions)}/48 requests — the same subset "
              f"on every rerun\n")

        print("== cluster-wide percentiles (exactly merged histograms) ==")
        hist = merged["latency_hist"]
        print(f"  p50 {merged['latency_p50_ms']:7.3f} ms   "
              f"p99 {merged['latency_p99_ms']:7.3f} ms   "
              f"(each within one bucket, ~19%; {hist['count']} requests, "
              f"exact mean {1e3 * hist['sum'] / hist['count']:.3f} ms)\n")

        print("== Prometheus-style exposition (excerpt) ==")
        text = exposition(merged, prefix="repro_cluster")
        for line in text.splitlines():
            if "_bucket" not in line:  # elide the 81 bucket lines
                print(f"  {line}")


if __name__ == "__main__":
    main()
