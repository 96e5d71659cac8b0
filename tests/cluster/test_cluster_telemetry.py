"""Aggregated cluster telemetry: merged counters, honest rates, pooled quantiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import Histogram
from repro.service.telemetry import ServiceTelemetry, merge_stats
from tests.cluster.harness import workload_requests


class TestMergeStats:
    def test_counters_sum_and_rates_recompute(self):
        a = {
            "requests_total": 30, "completed_total": 28, "failed_total": 2,
            "scored_candidates_total": 500, "cache_entries": 4,
            "cache_hits": 20, "cache_misses": 10, "cache_evictions": 1,
        }
        b = {
            "requests_total": 10, "completed_total": 10, "failed_total": 0,
            "scored_candidates_total": 100, "cache_entries": 2,
            "cache_hits": 0, "cache_misses": 10, "cache_evictions": 0,
        }
        merged = merge_stats([a, b])
        assert merged["workers"] == 2
        assert merged["requests_total"] == 40
        assert merged["failed_total"] == 2
        assert merged["scored_candidates_total"] == 600
        # 20 hits over 40 lookups — a lookup-weighted rate, not the 0.33
        # that averaging each worker's rate would report
        assert merged["cache_hit_rate"] == pytest.approx(0.5)
        assert merged["cache_evictions"] == 1

    def test_pooled_percentiles_not_percentiles_of_percentiles(self):
        rng = np.random.default_rng(3)
        fast = rng.lognormal(np.log(0.001), 0.3, size=900)
        slow = rng.lognormal(np.log(0.1), 0.3, size=100)
        workers = []
        for samples in (fast, slow):
            telemetry = ServiceTelemetry()
            for latency in samples:
                telemetry.record_completion(latency)
            workers.append(telemetry.snapshot())
        merged = merge_stats(workers)
        pooled = np.concatenate([fast, slow])
        h = Histogram()
        for q in (50, 99):
            exact_ms = float(np.percentile(pooled, q)) * 1e3
            lower, upper = h.bucket_bounds(h.bucket_index(exact_ms / 1e3))
            width_ms = (upper - lower) * 1e3
            assert abs(merged[f"latency_p{q}_ms"] - exact_ms) <= width_ms
            # the mean of per-worker percentiles is a different number
            mean_ms = np.mean([w[f"latency_p{q}_ms"] for w in workers])
            assert abs(mean_ms - exact_ms) > width_ms

    def test_empty_inputs(self):
        merged = merge_stats([])
        assert merged["workers"] == 0
        assert merged["requests_total"] == 0
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p99_ms"] == 0.0


class TestClusterStats:
    def test_cluster_totals_match_traffic(self, make_cluster):
        # 16 distinct queries, each submitted twice: the repeat must be a
        # per-worker cache hit (same instance, same candidate set)
        requests = workload_requests(16, seed=79) * 2
        cluster = make_cluster(n_workers=2)
        for instance, candidates in requests:
            cluster.submit(instance, candidates, include_scores=False).result(
                timeout=120
            )
        stats = cluster.stats()
        merged, per_worker = stats["cluster"], stats["workers"]
        assert merged["workers"] == 2
        assert set(per_worker) == {0, 1}
        assert merged["requests_total"] == 32
        assert merged["completed_total"] == 32
        assert merged["failed_total"] == 0
        assert merged["requests_total"] == sum(
            w["requests_total"] for w in per_worker.values()
        )
        # repeats in the drifting stream must hit per-worker caches
        assert merged["cache_hits"] > 0
        assert merged["latency_p99_ms"] >= merged["latency_p50_ms"] > 0.0
        assert stats["alive_workers"] == [0, 1]
        assert stats["crashes"] == 0
