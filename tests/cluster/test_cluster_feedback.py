"""Cluster-wide continual learning: feedback over the wire.

Three layers, bottom up:

* the **wire stream** — workers sample successful answers onto the pipe as
  ``FeedbackRecord``s; the parent rehydrates preset candidate sets from its
  own memo bit-identically and fans records out to listeners;
* the **collector** — a single coordinator-side
  :class:`~repro.online.feedback.ClusterFeedbackCollector` measures the
  same (instance, tunings, truth, τ) records a single-process collector
  would, for the identical episode;
* the **loop** — a 2-worker cluster under a
  :class:`~repro.online.workload.DriftingWorkload` feeds one pipeline that
  retrains and promotes through the shared registry, and every worker
  serves the promoted version afterward.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.training import TrainingSetBuilder
from repro.machine.budget import BudgetedMachine
from repro.machine.executor import SimulatedMachine
from repro.online import (
    ClusterFeedbackCollector,
    ContinualConfig,
    ContinualLearningPipeline,
    DriftMonitor,
    FeedbackCollector,
    IncrementalTrainer,
    PromotionPolicy,
    ShadowEvaluator,
    family_kernels,
)
from repro.online.workload import DriftingWorkload
from repro.service import ModelRegistry, ServiceCluster
from repro.stencil.execution import instance_hash
from repro.tuning.presets import preset_candidates

from tests.cluster.harness import workload_requests

PHASE1 = ("line", "laplacian")
PHASE2 = ("hypercube", "hyperplane")


@pytest.fixture(scope="module")
def phase1_corpus():
    """A deliberately partial offline corpus (drift will expose it)."""
    builder = TrainingSetBuilder(SimulatedMachine(seed=7), seed=7)
    return builder.build(630, kernels=family_kernels(PHASE1))


@pytest.fixture(scope="module")
def phase1_tuner(phase1_corpus) -> OrdinalAutotuner:
    return OrdinalAutotuner().train(phase1_corpus)


@pytest.fixture()
def phase1_registry(tmp_path, phase1_tuner) -> ModelRegistry:
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(
        phase1_tuner.model, phase1_tuner.fingerprint(), tags=("prod",), note="seed"
    )
    return registry


def _wire_collector(**kwargs) -> ClusterFeedbackCollector:
    kwargs.setdefault("probe_size", 8)
    kwargs.setdefault("probe_mode", "uniform")
    kwargs.setdefault("dedupe", False)
    return ClusterFeedbackCollector(
        BudgetedMachine(SimulatedMachine(seed=11), max_evaluations=8192), **kwargs
    )


# -- the wire stream -----------------------------------------------------------


def test_feedback_stream_ships_content(make_cluster, cluster_tuner):
    """Explicit sets arrive verbatim; records align with served scores."""
    cluster = make_cluster(n_workers=2, feedback_every=1)
    received: list = []
    cluster.add_feedback_listener(
        lambda instance, candidates, record: received.append(
            (instance, candidates, record)
        )
    )
    requests = workload_requests(6, seed=5, candidates_per_request=12)
    for q, cands in requests:
        cluster.submit(q, cands).result()
    assert cluster.feedback_received == len(requests)
    assert cluster.feedback_errors == 0
    assert len(received) == len(requests)
    by_key = {
        (instance_hash(i), np.asarray(r.scores).tobytes()): (i, c, r)
        for i, c, r in received
    }
    for q, cands in requests:
        expected = cluster_tuner.score_candidates(q, cands)
        key = (instance_hash(q), expected.tobytes())
        assert key in by_key, "record's scores are not bit-identical to the oracle"
        _, got_cands, record = by_key[key]
        assert list(got_cands) == list(cands)
        assert record.model_version == "v0001"


def test_preset_records_rehydrate_bit_identically(make_cluster, cluster_tuner):
    """candidates=None records grade against the exact preset list served."""
    cluster = make_cluster(n_workers=2, feedback_every=1)
    received: list = []
    cluster.add_feedback_listener(
        lambda instance, candidates, record: received.append((candidates, record))
    )
    instance = workload_requests(1, seed=9)[0][0]
    cluster.submit(instance, top_k=3, include_scores=False).result()
    assert len(received) == 1
    candidates, record = received[0]
    presets = preset_candidates(instance.dims)
    assert list(candidates) == presets
    assert np.array_equal(
        np.asarray(record.scores), cluster_tuner.score_candidates(instance, presets)
    )


def test_feedback_every_samples_the_stream(make_cluster):
    """feedback_every=2 streams every other answer (cache hits included)."""
    cluster = make_cluster(n_workers=2, feedback_every=2)
    q, cands = workload_requests(1, seed=13, candidates_per_request=8)[0]
    for _ in range(8):  # same instance: one worker, counted in arrival order
        cluster.submit(q, cands).result()
    assert cluster.feedback_received == 4


def test_raising_listener_never_breaks_serving(make_cluster):
    cluster = make_cluster(n_workers=2, feedback_every=1)

    def bad_listener(instance, candidates, record):
        raise RuntimeError("observer bug")

    cluster.add_feedback_listener(bad_listener)
    requests = workload_requests(4, seed=21, candidates_per_request=8)
    for q, cands in requests:
        assert cluster.submit(q, cands).result().ranked
    assert cluster.feedback_errors == len(requests)
    assert isinstance(cluster.last_feedback_error, RuntimeError)


def test_no_stream_without_feedback_every(make_cluster):
    """An unarmed cluster (default) streams nothing to its listeners."""
    cluster = make_cluster(n_workers=2)
    received: list = []
    cluster.add_feedback_listener(lambda *args: received.append(args))
    for q, cands in workload_requests(4, seed=2, candidates_per_request=8):
        cluster.submit(q, cands).result()
    assert cluster.feedback_received == 0
    assert received == []


# -- the collector -------------------------------------------------------------


def test_cluster_records_match_single_process(make_cluster, cluster_registry):
    """One wire-fed collector measures exactly what an in-process one would.

    Both sides score one request per pass, so scoring is bit-identical
    between the two topologies and the records can be compared with
    ``array_equal``.
    """
    import asyncio

    from repro.service import TuningService

    requests = workload_requests(12, seed=17, candidates_per_request=10)

    cluster = make_cluster(n_workers=3, feedback_every=1)
    wire = _wire_collector().attach(cluster)
    for q, cands in requests:
        cluster.submit(q, cands).result()
    wire_records = wire.measure_pending()
    assert len(wire.records_by_worker) >= 2, "traffic never spread over shards"

    local = FeedbackCollector(
        BudgetedMachine(SimulatedMachine(seed=11), max_evaluations=8192),
        probe_size=8,
        probe_mode="uniform",
        dedupe=False,
    )

    async def serve() -> None:
        async with TuningService(cluster_registry, default_model="prod") as service:
            local.attach(service)
            for q, cands in requests:
                await service.rank(q, cands)
            local.detach(service)

    asyncio.run(serve())
    local_records = local.measure_pending()

    def keyed(records):
        return sorted(
            records,
            key=lambda fb: (instance_hash(fb.instance), fb.served_scores.tobytes()),
        )

    assert len(wire_records) == len(local_records) == len(requests)
    for got, want in zip(keyed(wire_records), keyed(local_records)):
        assert instance_hash(got.instance) == instance_hash(want.instance)
        assert got.tunings == want.tunings
        assert np.array_equal(got.served_scores, want.served_scores)
        assert np.array_equal(got.true_times, want.true_times)
        assert got.tau == want.tau
        assert got.family == want.family


# -- the loop ------------------------------------------------------------------


def test_cluster_continual_loop_end_to_end(phase1_registry, phase1_tuner, phase1_corpus):
    """Drifting traffic → wire-fed retrain+promotion served by every worker."""
    workload = DriftingWorkload(
        shift_at=24, phase1=PHASE1, phase2=PHASE2, seed=3, candidates_per_request=24
    )
    n_requests, wave = 96, 8
    with ServiceCluster(
        phase1_registry.root, n_workers=2, default_model="prod", feedback_every=1
    ) as cluster:
        collector = _wire_collector(probe_size=16)
        pipeline = ContinualLearningPipeline(
            service=cluster,
            collector=collector,
            monitor=DriftMonitor(
                phase1_tuner.encoder, window=48, tau_threshold=0.45, shift_threshold=1.2
            ).fit_reference(phase1_corpus),
            trainer=IncrementalTrainer(
                phase1_corpus, phase1_tuner.encoder, max_feedback=128
            ),
            evaluator=ShadowEvaluator(phase1_tuner.encoder),
            policy=PromotionPolicy(phase1_registry, tag="prod", min_records=4),
            config=ContinualConfig(measure_per_step=10, min_feedback_to_train=16),
        ).attach()
        for start in range(0, n_requests, wave):
            futures = [
                cluster.submit(*workload.request(i)) for i in range(start, start + wave)
            ]
            for future in futures:
                future.result()
            pipeline.step()

        assert pipeline.retrain_count >= 1, pipeline.events
        assert pipeline.promotion_count >= 1, pipeline.events
        assert cluster.feedback_received >= n_requests
        assert len(collector.records_by_worker) == 2, collector.records_by_worker

        # every worker serves the promoted version for fresh traffic
        promoted = phase1_registry.resolve("prod")
        assert promoted != "v0001"
        versions_by_worker: dict[int, str] = {}
        probe_i = n_requests
        while (
            set(cluster.alive_workers()) - set(versions_by_worker)
            and probe_i < n_requests + 64
        ):
            reply = cluster.submit(*workload.request(probe_i)).result()
            versions_by_worker.setdefault(reply.worker_id, reply.model_version)
            probe_i += 1
        assert set(versions_by_worker) == set(cluster.alive_workers())
        assert all(v == promoted for v in versions_by_worker.values()), (
            versions_by_worker
        )
        # the displaced offline model stays one rollback away
        assert phase1_registry.resolve("prod-rollback") == "v0001"
        pipeline.detach()
