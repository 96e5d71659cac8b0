"""Atomic hot swap across processes: a promotion lands everywhere, torn nowhere.

A promotion is one atomic ``tags.json`` replace; every worker re-resolves
its tag on every request (two syscalls against the stat-cached registry).
Under inflight traffic that must mean: each answer is computed end-to-end
by exactly one version — old or new, never a half-swapped mixture — and
shortly after the tag move, every worker serves the new version.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.online.promotion import PromotionPolicy
from repro.online.shadow import ShadowReport
from tests.cluster.harness import expected_answer, wait_until, workload_requests


def _passing_report(n: int = 8) -> ShadowReport:
    """A shadow report that clears the promotion bar unconditionally."""
    return ShadowReport(
        candidate_tau=0.9,
        production_tau=0.1,
        n_records=n,
        candidate_taus=(0.9,) * n,
        production_taus=(0.1,) * n,
        families=("line",) * n,
    )


@pytest.fixture()
def oracle_pair(cluster_tuner, second_model):
    """(v0001 oracle, v0002 oracle) sharing the session encoder."""
    v2_tuner = dataclasses.replace(cluster_tuner, model=second_model)
    return {"v0001": cluster_tuner, "v0002": v2_tuner}


class TestHotSwap:
    def test_promotion_during_inflight_traffic_is_atomic_everywhere(
        self, make_cluster, cluster_registry, cluster_tuner, second_model, oracle_pair
    ):
        """Move the serving tag mid-stream: every response must be
        bit-identical to whichever single version stamped it — no answer
        may mix the two models — and the swap must reach all workers."""
        requests = workload_requests(60, seed=41)
        cluster = make_cluster(n_workers=3)
        # warm: half the stream inflight before the promotion
        futures = [cluster.submit(q, c) for q, c in requests[:30]]
        policy = PromotionPolicy(cluster_registry, tag="prod")
        decision = policy.consider(
            second_model, cluster_tuner.fingerprint(), _passing_report()
        )
        assert decision.promoted and decision.version == "v0002"
        futures += [cluster.submit(q, c) for q, c in requests[30:]]
        responses = [f.result(timeout=120) for f in futures]

        versions_seen = {r.model_version for r in responses}
        assert versions_seen <= {"v0001", "v0002"}
        assert "v0002" in versions_seen, "the promotion never reached serving"
        for (instance, candidates), response in zip(requests, responses):
            oracle = oracle_pair[response.model_version]
            ranked, scores = expected_answer(oracle, instance, candidates)
            assert response.ranked == ranked, (
                f"response stamped {response.model_version} does not match that "
                f"version's single-process ranking — a torn swap"
            )
            assert np.array_equal(response.scores, scores)

        # steady state: every worker now serves v0002 (tag re-resolution)
        def all_workers_on_v2() -> bool:
            checks = [
                cluster.submit(q, c, include_scores=False).result(timeout=120)
                for q, c in requests[:6]
            ]
            return {r.model_version for r in checks} == {"v0002"}

        assert wait_until(all_workers_on_v2, timeout_s=30.0)

    def test_pinned_version_requests_ignore_the_swap(
        self, make_cluster, cluster_registry, cluster_tuner, second_model, oracle_pair
    ):
        """Requests naming v0001 explicitly keep answering with v0001 bytes
        after the tag moves — versions are immutable, tags are not."""
        requests = workload_requests(6, seed=43)
        cluster = make_cluster(n_workers=2)
        policy = PromotionPolicy(cluster_registry, tag="prod")
        policy.consider(second_model, cluster_tuner.fingerprint(), _passing_report())
        for instance, candidates in requests:
            pinned = cluster.submit(instance, candidates, model="v0001").result(
                timeout=120
            )
            tagged = cluster.submit(instance, candidates).result(timeout=120)
            assert pinned.model_version == "v0001"
            assert tagged.model_version == "v0002"
            ranked_v1, _ = expected_answer(oracle_pair["v0001"], instance, candidates)
            ranked_v2, _ = expected_answer(oracle_pair["v0002"], instance, candidates)
            assert pinned.ranked == ranked_v1
            assert tagged.ranked == ranked_v2

    def test_rollback_propagates_like_a_promotion(
        self, make_cluster, cluster_registry, cluster_tuner, second_model
    ):
        """One-call rollback is just another atomic tag move: all workers
        return to the displaced version."""
        requests = workload_requests(6, seed=47)
        cluster = make_cluster(n_workers=2)
        policy = PromotionPolicy(cluster_registry, tag="prod")
        policy.consider(second_model, cluster_tuner.fingerprint(), _passing_report())

        def serving(version: str) -> bool:
            checks = [
                cluster.submit(q, c, include_scores=False).result(timeout=120)
                for q, c in requests
            ]
            return {r.model_version for r in checks} == {version}

        assert wait_until(lambda: serving("v0002"), timeout_s=30.0)
        assert policy.rollback() == "v0001"
        assert wait_until(lambda: serving("v0001"), timeout_s=30.0)
