"""Graceful degradation: what the coordinator answers when workers cannot.

A deadline-missed request has two honest endings.  The *strict* one is an
exception; the *degraded* one — opted into with
``ResilienceConfig(degraded_answers=True)`` — is a coordinator-side answer
carrying an explicit ``degraded=True`` flag, produced without any worker:

1. :class:`FallbackStore` — an LRU of full rankings the coordinator
   remembers from successful worker replies.  A hit replays the exact
   bytes a worker served for the same (instance, candidate set), possibly
   under a model version that has since moved on — stale but correct for
   the version it names, which is precisely what the ``degraded`` flag
   communicates.
2. :class:`FallbackScorer` — an in-coordinator encode+score identical to
   the workers' pipeline (same encoder rows, same ``X @ w``, same stable
   argsort), used when the store has never seen the query.  It runs on
   the monitor thread with no ranking cache, and is therefore a last
   resort, but bit-identical to what a healthy worker would answer.

Degradation is answer-shaped load shedding; queue-shaped shedding is
:class:`ClusterOverloadedError`, raised by ``submit()`` when the cluster's
undispatched backlog exceeds ``max_queue_depth`` — deterministic
backpressure at the front door instead of a collapse under an unbounded
queue.  :class:`DeadlineExceededError` is the strict ending: the request's
time budget ran out and degradation was off (or also failed).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.features.encoder import FeatureEncoder
from repro.service.cache import InternedCandidates, candidate_set_hash
from repro.service.registry import ModelRegistry
from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.tuning.vector import TuningVector

__all__ = [
    "ClusterOverloadedError",
    "DeadlineExceededError",
    "FallbackAnswer",
    "FallbackScorer",
    "FallbackStore",
]


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed with no worker answer (strict mode)."""


class ClusterOverloadedError(RuntimeError):
    """Submission refused: the cluster's backlog is past ``max_queue_depth``."""


@dataclass(frozen=True)
class FallbackAnswer:
    """One coordinator-produced answer (cache replay or local scoring)."""

    #: full best-first candidate list (callers slice for top-k)
    ranked: list[TuningVector]
    #: full score array aligned with the request's candidate order
    #: (None when the remembered reply never carried scores)
    scores: "np.ndarray | None"
    model_version: str
    #: True when replayed from the store, False when scored locally
    cached: bool


def _candidates_key(
    dims: int,
    candidates: "Sequence[TuningVector] | InternedCandidates | None",
) -> "tuple[object, ...]":
    """A stable digest of a request's candidate set, preset-aware.

    Preset requests (``candidates=None``) key on the dimensionality alone —
    every worker serves the identical preset list for one ``dims``, so the
    coordinator never needs the materialized set to match them.  Interned
    sets reuse their precomputed hash; explicit lists pay one
    :func:`~repro.service.cache.candidate_set_hash` (only on the
    degradation paths, never on the normal dispatch path).
    """
    if candidates is None:
        return ("preset", dims)
    if isinstance(candidates, InternedCandidates):
        return ("explicit", candidates.content_hash)
    return ("explicit", candidate_set_hash(list(candidates)))


class FallbackStore:
    """LRU of full rankings remembered from successful worker replies.

    Keyed on (instance fingerprint, candidate-set key) — deliberately
    *not* on model version: a degraded answer's contract is "the best
    ranking the coordinator has", and the stored ``model_version`` tells
    the caller exactly which model that was.  Thread-safe: replies arrive
    on per-worker reader threads while the monitor thread consumes.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: "OrderedDict[tuple, FallbackAnswer]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        instance: StencilInstance,
        candidates: "Sequence[TuningVector] | InternedCandidates | None",
    ) -> tuple:
        return (instance_hash(instance), _candidates_key(instance.dims, candidates))

    def remember(
        self,
        instance: StencilInstance,
        candidates: "Sequence[TuningVector] | InternedCandidates | None",
        ranked: "Sequence[TuningVector]",
        scores: "np.ndarray | None",
        model_version: str,
    ) -> None:
        """Record one *full* ranking (top-k replies are not remembered —
        a truncated list cannot answer an arbitrary later request)."""
        answer = FallbackAnswer(
            ranked=list(ranked),
            scores=None if scores is None else np.asarray(scores),
            model_version=model_version,
            cached=True,
        )
        with self._lock:
            key = self.key(instance, candidates)
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = answer
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def lookup(
        self,
        instance: StencilInstance,
        candidates: "Sequence[TuningVector] | InternedCandidates | None",
    ) -> "FallbackAnswer | None":
        key = self.key(instance, candidates)
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class FallbackScorer:
    """In-coordinator scoring, bit-identical to a worker's pipeline.

    Owns its encoder and a small LRU of loaded models; every call is
    serialized under one lock (degradation is the rare path — simplicity
    over concurrency).  Raises whatever the registry or encoder raises:
    the cluster treats a scorer failure as "degradation also failed" and
    falls through to the strict error.
    """

    def __init__(self, registry_root: str, max_cached_models: int = 4) -> None:
        self.registry = ModelRegistry(registry_root)
        self.encoder = FeatureEncoder()
        self.max_cached_models = max_cached_models
        self._models: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.scored = 0

    def score(
        self,
        instance: StencilInstance,
        candidates: Sequence[TuningVector],
        model_ref: str,
    ) -> FallbackAnswer:
        """Resolve, encode and score one query exactly as a worker would."""
        with self._lock:
            version = self.registry.resolve(model_ref)
            model = self._models.get(version)
            if model is None:
                model = self.registry.load(
                    version, expect_fingerprint=self.encoder.fingerprint()
                )
                self._models[version] = model
                while len(self._models) > self.max_cached_models:
                    self._models.popitem(last=False)
            else:
                self._models.move_to_end(version)
            candidates = list(candidates)
            X = self.encoder.encode_many([(instance, candidates)])
            scores = model.decision_function(X)
            self.scored += 1
        order = np.argsort(-scores, kind="stable")
        return FallbackAnswer(
            ranked=[candidates[i] for i in order.tolist()],
            scores=np.asarray(scores),
            model_version=version,
            cached=False,
        )
