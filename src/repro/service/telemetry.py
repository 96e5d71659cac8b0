"""Service telemetry: request counters, scored rows and latency quantiles.

The tuning service records enough to answer the operational questions a
ranking service gets asked: how many requests, how many candidate rows
went through encode and score, how often the ranking cache answers without
re-encoding, and where the latency quantiles sit.  Latencies feed one
fixed-bucket :class:`~repro.obs.metrics.Histogram` over the service's
lifetime; a snapshot's p50/p99 are read off it, within one bucket width
(about 19%) of the exact sample percentiles.  Recent percentiles come
from histogram deltas between snapshots (:mod:`repro.obs.slo`).

A multi-process cluster has one telemetry object **per worker**;
:func:`merge_stats` folds those snapshots into one cluster view — summed
counters, a hit rate recomputed over the summed lookups (never an average
of per-worker rates, which would weight an idle worker like a busy one),
and cluster-wide latency percentiles read off the **exactly merged**
histograms (``latency_hist``).  The same estimator answers in process and
across the cluster: a one-worker merge reports the worker's own p50/p99.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.metrics import Histogram, merge_histograms, percentile_from_hist

__all__ = ["ServiceTelemetry", "merge_stats"]


class ServiceTelemetry:
    """Counters and quantiles for one :class:`~repro.service.TuningService`."""

    def __init__(self) -> None:
        self.requests_total = 0
        self.completed_total = 0
        self.failed_total = 0
        self.scored_candidates_total = 0
        self.degraded_total = 0
        self.shed_total = 0
        # buckets never evict, so the cluster merge stays exact over the
        # full service lifetime
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
        self._latency_hist.observe(latency_s)

    def record_degraded(self) -> None:
        """A request was answered by the degraded path (fallback/replay)."""
        self.degraded_total += 1

    def record_shed(self) -> None:
        """A request was refused at admission (queue over capacity)."""
        self.shed_total += 1

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> dict:
        """One dict with every headline number (for logs and benchmarks)."""
        hist = self._latency_hist.to_dict()
        return {
            "requests_total": self.requests_total,
            "completed_total": self.completed_total,
            "failed_total": self.failed_total,
            "scored_candidates_total": self.scored_candidates_total,
            "degraded_total": self.degraded_total,
            "shed_total": self.shed_total,
            "latency_p50_ms": percentile_from_hist(hist, 50) * 1e3,
            "latency_p99_ms": percentile_from_hist(hist, 99) * 1e3,
            "latency_hist": hist,
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


def merge_stats(snapshots: Sequence[dict]) -> dict:
    """Fold per-worker ``service.stats()`` snapshots into one cluster view.

    * counters sum;
    * ``cache_hit_rate`` is recomputed over the summed lookups;
    * ``latency_p50_ms``/``latency_p99_ms``: when **every** snapshot
      carries a compatible ``latency_hist``, the histograms are merged
      exactly and percentiles read off the merged buckets (the merged
      dict also keeps ``latency_hist``); a missing, malformed or
      mismatched histogram — stats from another process are outside
      input — reports 0 and no ``latency_hist``, never an exception.

    >>> merged = merge_stats([
    ...     {"requests_total": 3, "cache_hits": 2, "cache_misses": 1},
    ...     {"requests_total": 1, "cache_hits": 0, "cache_misses": 1},
    ... ])
    >>> merged["requests_total"], merged["cache_misses"]
    (4, 2)
    >>> round(merged["cache_hit_rate"], 3), merged["latency_p50_ms"]
    (0.5, 0.0)

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
    merged["latency_p50_ms"] = merged["latency_p99_ms"] = 0.0
    hists = [s.get("latency_hist") for s in live]
    if not hists or not all(isinstance(h, dict) for h in hists):
        return merged
    try:
        merged_hist = merge_histograms(hists)
        p50 = percentile_from_hist(merged_hist, 50)
        p99 = percentile_from_hist(merged_hist, 99)
    except (LookupError, TypeError, ValueError, ArithmeticError):
        return merged  # malformed/mismatched: no latency story to tell
    merged["latency_hist"] = merged_hist
    merged["latency_p50_ms"] = p50 * 1e3
    merged["latency_p99_ms"] = p99 * 1e3
    return merged
