"""Ranking-as-a-service: train once, publish, serve concurrent tuning traffic.

The end-to-end serving story (see docs/serving.md):

1. train the ordinal-regression tuner (one-time, expensive phase);
2. publish the model to a versioned registry and tag it ``prod``;
3. start the async :class:`TuningService` and fire 96 concurrent ranking
   requests over a handful of hot stencil instances — watch the ranking
   cache absorb the repeats;
4. publish a retrained model and move the ``prod`` tag — a hot swap the
   running service picks up on its next request, no restart.

Run:  python examples/serve_tuner.py
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from tempfile import TemporaryDirectory

from repro import (
    OrdinalAutotuner,
    RankSVMConfig,
    SimulatedMachine,
    TrainingSetBuilder,
    TuningService,
    benchmark_by_id,
)
from repro.service import ModelRegistry

HOT_INSTANCES = [
    "laplacian-128x128x128",
    "gradient-128x128x128",
    "blur-1024x768",
    "edge-512x512",
]


async def serve_traffic(registry: ModelRegistry) -> None:
    instances = [benchmark_by_id(label) for label in HOT_INSTANCES]

    async with TuningService(registry, default_model="prod") as service:
        # -- 96 concurrent requests over 4 hot instances -------------------
        responses = await asyncio.gather(
            *(service.rank(instances[i % len(instances)]) for i in range(96))
        )
        stats = service.stats()
        print(f"answered {stats['completed_total']} requests, "
              f"{stats['scored_candidates_total']} candidate rows scored")
        print(f"  cache: {stats['cache_hits']} hits / "
              f"{stats['cache_misses']} misses "
              f"(hit rate {stats['cache_hit_rate']:.0%})")
        print(f"  latency: p50 {stats['latency_p50_ms']:.1f} ms, "
              f"p99 {stats['latency_p99_ms']:.1f} ms")
        best = responses[0].best
        print(f"  {instances[0].label()} -> {best} "
              f"(model {responses[0].model_version})")

        # -- hot swap: retrain, publish, retag — no restart ----------------
        print("\nretraining and hot-swapping the prod model...")
        machine = SimulatedMachine(seed=1)
        training_set = TrainingSetBuilder(machine, seed=1).build(1200)
        retrained = OrdinalAutotuner(config=RankSVMConfig(seed=1)).train(training_set)
        v2 = registry.publish(
            retrained.model, retrained.fingerprint(), note="retrained on seed 1"
        )
        registry.tag("prod", v2)

        response = await service.rank(instances[0])
        print(f"  {instances[0].label()} now served by {response.model_version}: "
              f"{response.best}")


def main() -> None:
    # 1. one-time training phase
    print("training the tuner (~600-point corpus)...")
    machine = SimulatedMachine(seed=0)
    training_set = TrainingSetBuilder(machine, seed=0).build(640)
    tuner = OrdinalAutotuner().train(training_set)

    with TemporaryDirectory() as tmp:
        # 2. publish to a versioned registry
        registry = ModelRegistry(Path(tmp) / "registry")
        v1 = registry.publish(
            tuner.model, tuner.fingerprint(), tags=("prod",), note="initial model"
        )
        print(f"published {v1} (tagged prod) to {registry.root}\n")

        # 3 + 4. serve concurrent traffic, then hot-swap
        asyncio.run(serve_traffic(registry))


if __name__ == "__main__":
    main()
