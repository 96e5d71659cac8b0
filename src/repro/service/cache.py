"""The LRU ranking cache.

Ranking is deterministic given (instance, candidate set, model version), so
a service answering heavy traffic should never encode the same query twice:
the cache keys on process-stable content hashes — the instance fingerprint
(:func:`repro.stencil.execution.instance_hash`), a digest of the candidate
tunings, and the resolved model version — and stores the computed ordering
plus scores.  A hit is answered without touching the encoder or the model;
eviction is LRU so hot instances (the "millions of users re-tuning the same
kernels" scenario) stay resident.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.tuning.vector import TuningVector

__all__ = [
    "CachedRanking",
    "InternedCandidates",
    "RankingCache",
    "candidate_set_hash",
    "intern_candidates",
]

#: C-level attribute fetch for the hot per-request hashing loop
_CONTENT_KEY = operator.attrgetter("content_key")

#: int domain tag mixed into every set digest.  Deliberately *not* a string:
#: str hashes are randomized per process (PYTHONHASHSEED), while int and
#: tuple-of-int hashes are build-stable — and an interned digest computed in
#: a cluster parent must equal the digest its worker would compute for the
#: same content, or repeat requests would never share cache entries.
_SET_DOMAIN = 0x63616E6473  # "cands"


def candidate_set_hash(candidates: Sequence[TuningVector]) -> int:
    """Content digest of an *ordered* candidate set.

    Order matters: the service returns scores aligned with the caller's
    candidate order, so two permutations of the same set are distinct keys.
    Combines the vectors' precomputed ``content_key`` values with one tuple
    hash — this runs once per request on the service hot path, and for a
    preset-sized set it is ~50× cheaper than re-digesting every field.
    Every input to the digest is an int, so the value is stable across
    processes and PYTHONHASHSEED draws (pinned by
    ``tests/cluster/test_hash_properties.py``) — which is what lets
    :class:`InternedCandidates` cross the cluster wire carrying its digest.
    """
    return hash((_SET_DOMAIN, tuple(map(_CONTENT_KEY, candidates))))


@dataclass(frozen=True)
class InternedCandidates:
    """A candidate set hashed **once** and reused across requests.

    Clients that re-rank the same explicit candidate set for many instances
    (a compiler driving one tuning space over a kernel suite, a sweep over
    sizes) would otherwise pay :func:`candidate_set_hash` on every request.
    Interning moves that cost to construction time: the service recognizes
    the interned object and reuses the precomputed digest, exactly like its
    own default preset sets.  The tuple is shared, never copied — responses
    never mutate candidate lists.
    """

    candidates: tuple[TuningVector, ...]
    content_hash: int

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


def intern_candidates(candidates: Sequence[TuningVector]) -> InternedCandidates:
    """Intern an ordered candidate set for repeated service requests."""
    if isinstance(candidates, InternedCandidates):
        return candidates
    frozen = tuple(candidates)
    return InternedCandidates(frozen, candidate_set_hash(frozen))


@dataclass(frozen=True)
class CachedRanking:
    """A memoized ranking answer.

    ``order[j]`` is the index (into the request's candidate list) of the
    ``j``-th best candidate; ``scores`` stays aligned with the candidate
    list.  Both are stored read-only so cache hits can share arrays safely.
    ``ranked`` optionally carries the materialized best-first candidate
    list: entries are value-identical for every request sharing this key
    (the key digests candidate content), so hits hand out shallow copies
    instead of rebuilding preset-sized lists.
    """

    order: np.ndarray
    scores: np.ndarray
    model_version: str
    ranked: "list[TuningVector] | None" = None

    def __post_init__(self) -> None:
        self.order.setflags(write=False)
        self.scores.setflags(write=False)

    def materialize(self, candidates: Sequence[TuningVector]) -> list[TuningVector]:
        """The full best-first list, built on first demand and memoized.

        Entries created by top-k-only requests skip materializing the full
        ranking; a later full-ranking request for the same key pays the
        list build once, here, and every subsequent hit shares it.
        """
        if self.ranked is None:
            object.__setattr__(
                self, "ranked", [candidates[i] for i in self.order.tolist()]
            )
        return self.ranked


class RankingCache:
    """LRU cache keyed by (instance hash, candidate-set hash, model version)."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: OrderedDict[tuple[int, int, str], CachedRanking] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: entries dropped by LRU pressure or version invalidation — the
        #: cluster telemetry watches this to spot undersized worker caches
        self.evictions = 0

    @staticmethod
    def key(
        instance: StencilInstance,
        candidates: Sequence[TuningVector],
        model_version: str,
    ) -> tuple[int, int, str]:
        """The cache key for one ranking query (content-based, stable)."""
        return (instance_hash(instance), candidate_set_hash(candidates), model_version)

    def get(self, key: tuple[int, int, str]) -> "CachedRanking | None":
        """Look up a key, counting the hit/miss and refreshing recency."""
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple[int, int, str], value: CachedRanking) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate_version(self, model_version: str) -> int:
        """Drop every entry computed by ``model_version``; returns the count."""
        stale = [k for k in self._data if k[2] == model_version]
        for k in stale:
            del self._data[k]
        self.evictions += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._data.clear()

    def snapshot(self) -> dict:
        """Cache statistics for telemetry reports."""
        return {
            "cache_entries": len(self._data),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_rate": self.hit_rate,
            "cache_evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankingCache({len(self._data)}/{self.max_entries} entries, "
            f"hit_rate={self.hit_rate:.2f})"
        )
