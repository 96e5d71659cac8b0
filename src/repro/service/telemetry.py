"""Service telemetry: request counters, scored rows and latency quantiles.

The tuning service records enough to answer the operational questions a
ranking service gets asked: how many requests, how many candidate rows
went through encode and score, how often the ranking cache answers without
re-encoding, and where the latency quantiles sit.  Latencies are kept in
a bounded sliding window so a long-lived service node reports *recent*
p50/p99, not all-time averages.

A multi-process cluster has one telemetry object **per worker**;
:func:`merge_stats` folds those snapshots into one cluster view — summed
counters, a hit rate recomputed over the summed lookups (never an average
of per-worker rates, which would weight an idle worker like a busy one),
and cluster-wide latency percentiles.  Each telemetry object now also
feeds a fixed-bucket :class:`~repro.obs.metrics.Histogram` that rides the
snapshot (``latency_hist``): when every snapshot carries one, merged
percentiles come from the **exactly merged** histogram (error bounded by
one bucket width, never by window eviction); otherwise the pooled
sliding-window computation is preserved unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.obs.metrics import Histogram, merge_histograms, percentile_from_hist

__all__ = ["ServiceTelemetry", "merge_stats"]


class ServiceTelemetry:
    """Counters and quantiles for one :class:`~repro.service.TuningService`."""

    def __init__(self, latency_window: int = 4096) -> None:
        if latency_window < 1:
            raise ValueError(f"latency_window must be >= 1, got {latency_window}")
        self.requests_total = 0
        self.completed_total = 0
        self.failed_total = 0
        self.scored_candidates_total = 0
        self.degraded_total = 0
        self.shed_total = 0
        self._latencies: deque[float] = deque(maxlen=latency_window)
        # unbounded companion to the window: buckets never evict, so the
        # cluster merge stays exact over the full service lifetime
        self._latency_hist = Histogram()

    # -- recording -------------------------------------------------------------

    def record_request(self) -> None:
        """A request was accepted."""
        self.requests_total += 1

    def record_scored(self, num_candidates: int) -> None:
        """``num_candidates`` rows went through encode+score (cache misses)."""
        self.scored_candidates_total += num_candidates

    def record_completion(self, latency_s: float, failed: bool = False) -> None:
        """A request finished (successfully or not) after ``latency_s``."""
        if failed:
            self.failed_total += 1
        else:
            self.completed_total += 1
        self._latencies.append(float(latency_s))
        self._latency_hist.observe(latency_s)

    def record_degraded(self) -> None:
        """A request was answered by the degraded path (fallback/replay)."""
        self.degraded_total += 1

    def record_shed(self) -> None:
        """A request was refused at admission (queue over capacity)."""
        self.shed_total += 1

    # -- reporting -------------------------------------------------------------

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over the sliding window, in seconds."""
        return self.latency_percentiles((q,))[0]

    def latency_percentiles(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Several window percentiles from **one** materialization + pass."""
        if not self._latencies:
            return tuple(0.0 for _ in qs)
        window = np.fromiter(self._latencies, dtype=float)
        return tuple(float(v) for v in np.percentile(window, list(qs)))

    def window(self) -> tuple[float, ...]:
        """The raw sliding latency window, oldest first.

        This is what crosses the wire for cluster aggregation: merged
        percentiles must be computed over the pooled samples — percentiles
        of percentiles are not a thing.
        """
        return tuple(self._latencies)

    def snapshot(self) -> dict:
        """One dict with every headline number (for logs and benchmarks)."""
        p50, p99 = self.latency_percentiles((50, 99))
        return {
            "requests_total": self.requests_total,
            "completed_total": self.completed_total,
            "failed_total": self.failed_total,
            "scored_candidates_total": self.scored_candidates_total,
            "degraded_total": self.degraded_total,
            "shed_total": self.shed_total,
            "latency_p50_ms": p50 * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "latency_hist": self._latency_hist.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceTelemetry(requests={self.requests_total}, "
            f"scored={self.scored_candidates_total})"
        )


#: snapshot counters that merge by summation (telemetry + cache keys)
_SUMMED = (
    "requests_total",
    "completed_total",
    "failed_total",
    "scored_candidates_total",
    "degraded_total",
    "shed_total",
    "registry_corruption_detected_total",
    "registry_corruption_fallbacks_total",
    "cache_entries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "frames_corrupt_total",
    "frame_decode_bugs_total",
)


def merge_stats(
    snapshots: Sequence[dict],
    latency_windows: "Sequence[Sequence[float]] | None" = None,
) -> dict:
    """Fold per-worker ``service.stats()`` snapshots into one cluster view.

    * counters sum;
    * ``cache_hit_rate`` is recomputed over the summed lookups;
    * ``latency_p50_ms``/``latency_p99_ms``: when **every** snapshot
      carries a compatible ``latency_hist``, the histograms are merged
      exactly and percentiles read off the merged buckets (the merged
      dict also keeps ``latency_hist`` plus, when windows were supplied,
      the pooled values as ``latency_pooled_p50_ms``/``_p99_ms`` for
      cross-checking); otherwise they come from the **pooled** latency
      windows when provided (cluster-wide percentiles), else 0.

    >>> merged = merge_stats([
    ...     {"requests_total": 3, "cache_hits": 2, "cache_misses": 1},
    ...     {"requests_total": 1, "cache_hits": 0, "cache_misses": 1},
    ... ], [[0.1], [0.3]])
    >>> merged["requests_total"], merged["cache_misses"]
    (4, 2)
    >>> round(merged["cache_hit_rate"], 3)
    0.5

    A ``None`` snapshot stands for a worker that never produced stats —
    a socket dial that failed, a worker that died before answering a
    ``StatsRequest``.  Those workers are *counted* (``workers`` is the
    fleet size the caller asked about, ``missing_workers`` how many of
    them were silent) but contribute nothing to any aggregate:

    >>> merged = merge_stats([{"requests_total": 2}, None])
    >>> merged["workers"], merged["missing_workers"], merged["requests_total"]
    (2, 1, 2)
    """
    live = [s for s in snapshots if s is not None]
    merged: dict = {
        "workers": len(snapshots),
        "missing_workers": len(snapshots) - len(live),
    }
    for key in _SUMMED:
        merged[key] = sum(int(s.get(key, 0)) for s in live)
    lookups = merged["cache_hits"] + merged["cache_misses"]
    merged["cache_hit_rate"] = merged["cache_hits"] / lookups if lookups else 0.0
    pooled = (
        np.fromiter(
            (x for window in latency_windows if window for x in window),
            dtype=float,
        )
        if latency_windows is not None
        else np.empty(0)
    )
    hists = [s.get("latency_hist") for s in live]
    merged_hist: "dict | None" = None
    if hists and all(isinstance(h, dict) for h in hists):
        try:
            merged_hist = merge_histograms(hists)
        except (KeyError, TypeError, ValueError):
            merged_hist = None  # malformed/mismatched: fall back to pooling
    if merged_hist is not None and merged_hist["count"] > 0:
        merged["latency_hist"] = merged_hist
        merged["latency_p50_ms"] = percentile_from_hist(merged_hist, 50) * 1e3
        merged["latency_p99_ms"] = percentile_from_hist(merged_hist, 99) * 1e3
        if pooled.size:
            p50, p99 = np.percentile(pooled, [50, 99])
            merged["latency_pooled_p50_ms"] = float(p50) * 1e3
            merged["latency_pooled_p99_ms"] = float(p99) * 1e3
    else:
        if merged_hist is not None:
            merged["latency_hist"] = merged_hist
        for name, q in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
            merged[name] = (
                float(np.percentile(pooled, q)) * 1e3 if pooled.size else 0.0
            )
    return merged
