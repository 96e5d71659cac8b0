"""Tests for ServiceTelemetry, including percentile and merge edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import Histogram
from repro.service.telemetry import ServiceTelemetry, merge_stats


class TestPercentileEdgeCases:
    def test_empty_window_reports_zero(self):
        t = ServiceTelemetry()
        assert t.latency_percentile(50) == 0.0
        assert t.latency_percentile(99) == 0.0
        snap = t.snapshot()
        assert snap["latency_p50_ms"] == 0.0
        assert snap["latency_p99_ms"] == 0.0

    def test_single_sample_all_percentiles_equal(self):
        t = ServiceTelemetry()
        t.record_completion(0.25)
        assert t.latency_percentile(0) == pytest.approx(0.25)
        assert t.latency_percentile(50) == pytest.approx(0.25)
        assert t.latency_percentile(99) == pytest.approx(0.25)
        assert t.latency_percentile(100) == pytest.approx(0.25)

    def test_single_failed_sample_still_counts_latency(self):
        t = ServiceTelemetry()
        t.record_completion(0.1, failed=True)
        assert t.failed_total == 1 and t.completed_total == 0
        assert t.latency_percentile(50) == pytest.approx(0.1)

    def test_window_eviction_drops_old_latencies(self):
        t = ServiceTelemetry(latency_window=2)
        for latency in (10.0, 1.0, 2.0):
            t.record_completion(latency)
        # the 10 s outlier aged out of the 2-entry window
        assert t.latency_percentile(100) == pytest.approx(2.0)

    def test_window_size_validated(self):
        with pytest.raises(ValueError, match="latency_window"):
            ServiceTelemetry(latency_window=0)


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
        merged = merge_stats(
            [a.snapshot(), b.snapshot()], [a.window(), b.window()]
        )
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
        merged = merge_stats([snap], [t.window()])
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
        merged = merge_stats(
            [w.snapshot() for w in workers], [w.window() for w in workers]
        )
        assert merged["completed_total"] == 0
        assert merged["failed_total"] == 6
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p99_ms"] >= merged["latency_p50_ms"] > 0.0

    def test_histogram_merge_agrees_with_pooled_window(self):
        """The acceptance cross-check: merged-histogram p50/p99 within one
        bucket width of the pooled-window percentiles."""
        rng = np.random.default_rng(17)
        workers = [
            _busy_snapshot(rng.lognormal(-4.0, 1.0, size=200)) for _ in range(4)
        ]
        merged = merge_stats(
            [w.snapshot() for w in workers], [w.window() for w in workers]
        )
        h = Histogram()
        for q, pooled_key in (
            (50, "latency_pooled_p50_ms"),
            (99, "latency_pooled_p99_ms"),
        ):
            hist_ms = merged[f"latency_p{q}_ms"]
            pooled_ms = merged[pooled_key]
            lower, upper = h.bucket_bounds(h.bucket_index(pooled_ms / 1e3))
            assert abs(hist_ms - pooled_ms) <= (upper - lower) * 1e3, (
                f"p{q}: hist {hist_ms} vs pooled {pooled_ms}"
            )

    def test_hist_survives_window_eviction_pooling_does_not(self):
        """The reason histograms exist: eviction biases the window pool."""
        t = ServiceTelemetry(latency_window=4)
        for latency in [5.0] * 8 + [0.001] * 4:  # slow era fully evicted
            t.record_completion(latency)
        merged = merge_stats([t.snapshot()], [t.window()])
        assert merged["latency_pooled_p99_ms"] < 10  # window forgot the 5 s era
        assert merged["latency_p99_ms"] > 1000  # histogram did not

    def test_missing_hist_falls_back_to_pooled_windows(self):
        """Pre-histogram snapshots (no ``latency_hist``) keep the old path."""
        snaps = [
            {"requests_total": 2},
            {"requests_total": 1},
        ]
        merged = merge_stats(snaps, [[0.1, 0.2], [0.4]])
        assert "latency_hist" not in merged
        assert merged["latency_p50_ms"] == pytest.approx(200.0)

    def test_malformed_hist_falls_back_to_pooled_windows(self):
        a = _busy_snapshot([0.01]).snapshot()
        b = _busy_snapshot([0.02]).snapshot()
        b["latency_hist"] = {"counts": "garbage"}
        merged = merge_stats([a, b], [[0.01], [0.02]])
        assert merged["latency_p50_ms"] == pytest.approx(15.0)

    def test_mismatched_bucket_configs_fall_back_to_pooled_windows(self):
        a = _busy_snapshot([0.01]).snapshot()
        b = _busy_snapshot([0.02]).snapshot()
        b["latency_hist"] = Histogram(growth=2.0).to_dict()
        merged = merge_stats([a, b], [[0.01], [0.02]])
        assert merged["latency_p50_ms"] == pytest.approx(15.0)


class TestMergeStatsMissingWorkers:
    """A ``None`` snapshot is a worker that never connected (a socket dial
    failure) or never answered — counted in the fleet, absent from every
    aggregate, never a crash."""

    def test_none_snapshot_is_counted_not_merged(self):
        live = _busy_snapshot([0.01, 0.02])
        merged = merge_stats([live.snapshot(), None], [live.window(), None])
        assert merged["workers"] == 2
        assert merged["missing_workers"] == 1
        assert merged["requests_total"] == 2
        # pooled percentiles come from the one live window, unperturbed
        assert merged["latency_pooled_p50_ms"] == pytest.approx(15.0)

    def test_all_missing_merges_to_empty_fleet_shape(self):
        merged = merge_stats([None, None, None], [None, None, None])
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
        merged = merge_stats(
            [a.snapshot(), None, b.snapshot()], [a.window(), None, b.window()]
        )
        assert "latency_hist" in merged
        assert merged["latency_hist"]["count"] == 2
        assert merged["missing_workers"] == 1
