"""Tests for ServiceTelemetry, including percentile and merge edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import Histogram
from repro.service.telemetry import ServiceTelemetry, merge_stats


def _within_one_bucket(hist_ms: float, exact_ms: float) -> bool:
    """``hist_ms`` lies within one histogram bucket width of ``exact_ms``."""
    h = Histogram()
    lower, upper = h.bucket_bounds(h.bucket_index(exact_ms / 1e3))
    return abs(hist_ms - exact_ms) <= (upper - lower) * 1e3


class TestPercentileEdgeCases:
    def test_empty_window_reports_zero(self):
        snap = ServiceTelemetry().snapshot()
        assert snap["latency_p50_ms"] == 0.0
        assert snap["latency_p99_ms"] == 0.0
        assert snap["latency_hist"]["count"] == 0

    def test_single_sample_all_percentiles_equal(self):
        t = ServiceTelemetry()
        t.record_completion(0.25)
        snap = t.snapshot()
        assert snap["latency_p50_ms"] == snap["latency_p99_ms"]
        assert _within_one_bucket(snap["latency_p50_ms"], 250.0)

    def test_single_failed_sample_still_counts_latency(self):
        t = ServiceTelemetry()
        t.record_completion(0.1, failed=True)
        assert t.failed_total == 1 and t.completed_total == 0
        assert _within_one_bucket(t.snapshot()["latency_p50_ms"], 100.0)

    def test_percentiles_cover_the_service_lifetime(self):
        """A snapshot reads the lifetime histogram: a slow era long past
        still sets p99 (recent percentiles are histogram deltas)."""
        t = ServiceTelemetry()
        for latency in [5.0] * 100 + [0.001] * 5000:
            t.record_completion(latency)
        snap = t.snapshot()
        assert snap["latency_p50_ms"] < 10
        assert snap["latency_p99_ms"] > 1000


class TestCounters:
    def test_scored_accounting(self):
        t = ServiceTelemetry()
        assert t.snapshot()["scored_candidates_total"] == 0
        t.record_scored(4)
        t.record_scored(8)
        assert t.snapshot()["scored_candidates_total"] == 12

    def test_snapshot_keys_stable(self):
        keys = set(ServiceTelemetry().snapshot())
        assert {
            "requests_total",
            "completed_total",
            "failed_total",
            "scored_candidates_total",
            "degraded_total",
            "shed_total",
            "latency_p50_ms",
            "latency_p99_ms",
            "latency_hist",
        } <= keys

    def test_degraded_and_shed_are_first_class(self):
        t = ServiceTelemetry()
        t.record_degraded()
        t.record_shed()
        t.record_shed()
        snap = t.snapshot()
        assert snap["degraded_total"] == 1
        assert snap["shed_total"] == 2
        merged = merge_stats([snap, ServiceTelemetry().snapshot()])
        assert merged["degraded_total"] == 1
        assert merged["shed_total"] == 2


def _busy_snapshot(latencies, **counter_overrides):
    t = ServiceTelemetry()
    for latency in latencies:
        t.record_request()
        t.record_completion(latency, failed=counter_overrides.get("failed", False))
    return t


class TestMergeStatsEdgeCases:
    def test_empty_windows_merge_to_zero_percentiles(self):
        a, b = ServiceTelemetry(), ServiceTelemetry()
        merged = merge_stats([a.snapshot(), b.snapshot()])
        assert merged["workers"] == 2
        assert merged["requests_total"] == 0
        assert merged["latency_p50_ms"] == 0.0
        assert merged["latency_p99_ms"] == 0.0

    def test_no_snapshots_at_all(self):
        merged = merge_stats([])
        assert merged["workers"] == 0
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p50_ms"] == 0.0

    def test_single_worker_merge_is_identity_on_percentiles(self):
        t = _busy_snapshot([0.01, 0.02, 0.03, 0.04])
        snap = t.snapshot()
        merged = merge_stats([snap])
        assert merged["workers"] == 1
        assert merged["requests_total"] == 4
        # one worker: the merged histogram IS the worker's histogram, and the
        # merged percentiles are exactly what that histogram reads back
        assert merged["latency_hist"] == snap["latency_hist"]
        hist = Histogram.from_dict(snap["latency_hist"])
        assert merged["latency_p50_ms"] == hist.percentile(50) * 1e3
        assert merged["latency_p99_ms"] == hist.percentile(99) * 1e3

    def test_all_failed_workers_still_report_latency(self):
        """Failures carry latencies too — the merge must not divide by zero
        or hide the latency story of a fully-failing cluster."""
        workers = [_busy_snapshot([0.05, 0.1], failed=True) for _ in range(3)]
        merged = merge_stats([w.snapshot() for w in workers])
        assert merged["completed_total"] == 0
        assert merged["failed_total"] == 6
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p99_ms"] >= merged["latency_p50_ms"] > 0.0

    def test_single_snapshot_merge_reports_the_snapshots_own_percentiles(self):
        """One estimator, in process and in the cluster: merging a single
        worker's snapshot reports exactly that worker's own p50/p99."""
        rng = np.random.default_rng(5)
        t = _busy_snapshot(rng.lognormal(-4.5, 0.8, size=500))
        snap = t.snapshot()
        merged = merge_stats([snap])
        assert merged["latency_p50_ms"] == snap["latency_p50_ms"]
        assert merged["latency_p99_ms"] == snap["latency_p99_ms"]

    def test_histogram_merge_agrees_with_pooled_window(self):
        """Merged-histogram p50/p99 lie within one bucket width of the
        exact percentiles of every worker's samples pooled together."""
        rng = np.random.default_rng(17)
        samples = [rng.lognormal(-4.0, 1.0, size=200) for _ in range(4)]
        merged = merge_stats([_busy_snapshot(s).snapshot() for s in samples])
        pooled = np.concatenate(samples)
        for q in (50, 99):
            hist_ms = merged[f"latency_p{q}_ms"]
            pooled_ms = float(np.percentile(pooled, q)) * 1e3
            assert _within_one_bucket(hist_ms, pooled_ms), (
                f"p{q}: hist {hist_ms} vs pooled {pooled_ms}"
            )

    def test_missing_hist_reports_zero_latency(self):
        """Snapshots without ``latency_hist`` carry no latency story."""
        merged = merge_stats([{"requests_total": 2}, {"requests_total": 1}])
        assert "latency_hist" not in merged
        assert merged["requests_total"] == 3
        assert merged["latency_p50_ms"] == merged["latency_p99_ms"] == 0.0

    @staticmethod
    def _merge_with_bad_hist(bad_hist):
        a = _busy_snapshot([0.01]).snapshot()
        b = _busy_snapshot([0.02]).snapshot()
        b["latency_hist"] = bad_hist
        return merge_stats([a, b])

    def test_malformed_hist_reports_zero_latency(self):
        """Stats from remote workers are outside input: a malformed
        histogram drops the latency figures, never the merge."""
        for bad_hist in (
            {"counts": "garbage"},
            {**Histogram().to_dict(), "counts": [1] * 1000, "count": 1000},
            {**Histogram().to_dict(), "count": None},
            "not a dict",
        ):
            merged = self._merge_with_bad_hist(bad_hist)
            assert merged["requests_total"] == 2, bad_hist
            assert "latency_hist" not in merged, bad_hist
            assert merged["latency_p50_ms"] == merged["latency_p99_ms"] == 0.0, bad_hist

    def test_mismatched_buckets_report_zero_latency(self):
        """Histograms with different bucket layouts cannot be summed."""
        merged = self._merge_with_bad_hist(Histogram(growth=2.0).to_dict())
        assert merged["requests_total"] == 2
        assert "latency_hist" not in merged
        assert merged["latency_p50_ms"] == merged["latency_p99_ms"] == 0.0


class TestMergeStatsMissingWorkers:
    """A ``None`` snapshot is a worker that never connected (a socket dial
    failure) or never answered — counted in the fleet, absent from every
    aggregate, never a crash."""

    def test_none_snapshot_is_counted_not_merged(self):
        live = _busy_snapshot([0.01, 0.02])
        merged = merge_stats([live.snapshot(), None])
        assert merged["workers"] == 2
        assert merged["missing_workers"] == 1
        assert merged["requests_total"] == 2
        # percentiles come from the one live worker, unperturbed
        assert merged["latency_p50_ms"] == live.snapshot()["latency_p50_ms"]

    def test_all_missing_merges_to_empty_fleet_shape(self):
        merged = merge_stats([None, None, None])
        assert merged["workers"] == 3
        assert merged["missing_workers"] == 3
        assert merged["requests_total"] == 0
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p50_ms"] == 0.0

    def test_fully_connected_fleet_reports_zero_missing(self):
        a, b = ServiceTelemetry(), ServiceTelemetry()
        merged = merge_stats([a.snapshot(), b.snapshot()])
        assert merged["missing_workers"] == 0

    def test_histogram_merge_skips_missing_workers(self):
        """Exact histogram merging must consider only live snapshots — a
        None among them used to poison the hist path into a TypeError."""
        a = _busy_snapshot([0.01])
        b = _busy_snapshot([0.03])
        merged = merge_stats([a.snapshot(), None, b.snapshot()])
        assert "latency_hist" in merged
        assert merged["latency_hist"]["count"] == 2
        assert merged["missing_workers"] == 1
