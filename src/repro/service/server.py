"""The asynchronous tuning service front-end.

``TuningService`` turns the trained ranker into ranking-as-a-service: an
asyncio front-end accepting ``(instance, candidate set, model ref)``
queries and answering with the model's best-first ordering.  Each request
is served inline, in the order requests arrive:

1. **Versioned models** — requests may name a registry version or tag;
   the ref is resolved on every request, so publishing a new version and
   moving a tag **hot-swaps** the model for the very next request, with no
   restart and no dropped requests.  Loaded models are validated against
   the service encoder's fingerprint and memoized per version.
2. **Ranking cache** — answers are memoized per (instance fingerprint,
   candidate-set hash, model version); repeat queries return without
   re-encoding (:class:`~repro.service.cache.RankingCache`).
3. **Scoring** — a miss is encoded by ``FeatureEncoder.encode_many`` into
   one resident scratch buffer and scored with one ``decision_function``
   call over the request's own candidates.

An answer is the stable order of ``X @ w`` over one instance's own
candidates, so nothing in it depends on any other request.  There is one
scoring path: float64 encoder rows, ``model.decision_function``, then a
stable argsort.  Answers are therefore bit-identical to
:meth:`OrdinalAutotuner.rank_candidates` for the same model version: the
same encoder rows, the same ``X @ w`` scoring, the same tie-breaking.

Scoring runs inline on the event loop — it is a NumPy matrix product that
releases the GIL, so handing it to a thread pool would cost more than it
saves.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.features.encoder import FeatureEncoder
from repro.obs.trace import Span, TraceContext
from repro.learn.ranksvm import RankSVM
from repro.service.cache import (
    CachedRanking,
    InternedCandidates,
    RankingCache,
    candidate_set_hash,
)
from repro.service.registry import LATEST, ModelRegistry
from repro.service.telemetry import ServiceTelemetry
from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.tuning.presets import preset_candidates
from repro.tuning.vector import TuningVector

__all__ = ["RankingResponse", "TuningService"]


@dataclass(frozen=True)
class RankingResponse:
    """One answered ranking query."""

    #: candidates best-first, exactly as ``rank_candidates`` would order them
    #: (truncated to ``top_k`` entries when the request asked for top-k only)
    ranked: list[TuningVector]
    #: model scores aligned with the *request's* candidate order
    scores: np.ndarray
    #: the concrete model version that produced the answer
    model_version: str
    #: whether the answer came from the ranking cache
    cached: bool
    #: arrival-to-answer latency in seconds
    latency_s: float
    #: stage spans for a traced request (None when the request carried no
    #: trace context — the no-op fast path allocates nothing)
    spans: "tuple[Span, ...] | None" = None
    #: full best-first order as positions into the request's candidate
    #: list (read-only, shared with the cache entry).  This is the compact
    #: form cluster workers ship instead of re-pickling candidate objects.
    order: "np.ndarray | None" = None

    @property
    def best(self) -> TuningVector:
        """The top-ranked configuration."""
        return self.ranked[0]


class TuningService:
    """Async ranking service over a model registry.

    Usage::

        service = TuningService(registry)
        async with service:
            response = await service.rank(instance)
            best = response.best
    """

    def __init__(
        self,
        registry: ModelRegistry,
        encoder: "FeatureEncoder | None" = None,
        default_model: str = LATEST,
        cache_entries: int = 4096,
        max_cached_models: int = 8,
    ) -> None:
        if max_cached_models < 1:
            raise ValueError(f"max_cached_models must be >= 1, got {max_cached_models}")
        self.registry = registry
        self.encoder = encoder or FeatureEncoder()
        self.default_model = default_model
        self.cache = RankingCache(cache_entries)
        self.telemetry = ServiceTelemetry()
        self.max_cached_models = max_cached_models
        #: resident encode buffer reused across requests, grown to the
        #: largest candidate set served (a preset miss would otherwise fault
        #: in a fresh multi-MB matrix every time)
        self._encode_scratch: "np.ndarray | None" = None
        #: LRU of loaded models — a long-lived worker hot-swaps through
        #: many promotions, and retired versions must not accumulate
        self._models: OrderedDict[str, RankSVM] = OrderedDict()
        #: dims -> (shared preset list, its content hash), computed once
        self._default_sets: dict[int, tuple[list[TuningVector], int]] = {}
        #: observers called with (instance, candidates, response) per answer
        self._response_hooks: list[
            Callable[[StencilInstance, Sequence[TuningVector], RankingResponse], None]
        ] = []
        #: exceptions swallowed from response hooks (serving never breaks)
        self.hook_errors = 0
        self.last_hook_error: "Exception | None" = None
        #: span ``process`` label for traced requests (the cluster worker
        #: overrides this with its worker identity)
        self.trace_process = "service"
        self._running = False

    @classmethod
    def from_worker_config(cls, registry: ModelRegistry, config) -> "TuningService":
        """Build a service from a cluster :class:`~repro.service.worker.WorkerConfig`.

        Every worker entry point — the forked pipe worker, the loopback
        socket worker, a remote worker host accepting a ``Hello`` — maps
        the coordinator's config to a service through this one
        constructor, so a new serving knob cannot silently apply to one
        transport and not another.
        """
        return cls(
            registry,
            default_model=config.default_model,
            cache_entries=config.cache_entries,
            max_cached_models=config.max_cached_models,
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start accepting requests (idempotent)."""
        self._running = True

    async def stop(self) -> None:
        """Stop accepting requests (every accepted one is already answered)."""
        self._running = False

    async def __aenter__(self) -> "TuningService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        """Whether the service is accepting requests."""
        return self._running

    # -- request API -----------------------------------------------------------

    async def rank(
        self,
        instance: StencilInstance,
        candidates: "Sequence[TuningVector] | InternedCandidates | None" = None,
        model: "str | None" = None,
        top_k: "int | None" = None,
        trace: "TraceContext | None" = None,
    ) -> RankingResponse:
        """Rank a candidate set for an instance (defaults: presets, default model).

        The request is answered inline: resolve the model ref, probe the
        ranking cache, and on a miss encode and score this one candidate
        set.  The response carries the ordering, scores, serving model
        version and whether the ranking cache answered.

        ``candidates`` may be a pre-interned set (see
        :func:`~repro.service.cache.intern_candidates`) so repeat clients
        pay the content hash once instead of per request.  ``top_k``
        requests only the k best candidates in ``response.ranked`` — the
        scoring work is identical, but a preset-sized best-first list is
        never materialized; scores stay complete and aligned with the
        request's candidate order.  Top-k and full-ranking requests share
        cache entries (the key ignores ``top_k``; the entry stores the full
        order).

        ``trace`` attaches a :class:`~repro.obs.trace.TraceContext`: the
        answer's ``response.spans`` then carries the request's stage spans
        (resolve and cache probe, encode, score, finish — or the cache
        path).  Untraced requests (the default) do no span work whatsoever.
        """
        if not self.running:
            raise RuntimeError("TuningService is not running; call start() first")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if candidates is None:
            candidates, candidates_hash = self._default_candidates(instance.dims)
        elif isinstance(candidates, InternedCandidates):
            candidates, candidates_hash = candidates.candidates, candidates.content_hash
        else:
            candidates, candidates_hash = list(candidates), None
        self.telemetry.record_request()
        arrived = time.monotonic()
        stamps = None
        try:
            version = self.registry.resolve(model or self.default_model)
            if candidates_hash is None:
                candidates_hash = candidate_set_hash(candidates)
            key = (instance_hash(instance), candidates_hash, version)
            entry = self.cache.get(key)
            if entry is None:
                entry, stamps = self._score(instance, candidates, version)
                self.cache.put(key, entry)
        except Exception:
            self.telemetry.record_completion(time.monotonic() - arrived, failed=True)
            raise
        response = self._respond(candidates, entry, top_k, trace, arrived, stamps)
        for hook in self._response_hooks:
            try:
                hook(instance, candidates, response)
            except Exception as exc:
                self.hook_errors += 1
                self.last_hook_error = exc
        return response

    # -- feedback hooks --------------------------------------------------------

    def add_response_hook(
        self,
        hook: Callable[
            [StencilInstance, Sequence[TuningVector], RankingResponse], None
        ],
    ) -> None:
        """Register an observer called for every *successful* answer.

        Hooks receive ``(instance, candidates, response)`` — candidates in
        the request's order, aligned with ``response.scores`` — and run
        synchronously on the serving loop, so they must be cheap (append to
        a buffer; measure later).  This is the attachment point for the
        continual-learning :class:`~repro.online.feedback.FeedbackCollector`.
        A raising hook is counted (``hook_errors``) and detached from the
        request path's outcome: serving never fails because observability
        did.
        """
        self._response_hooks.append(hook)

    def remove_response_hook(self, hook: Callable) -> None:
        """Unregister a previously added response hook (no-op if absent)."""
        try:
            self._response_hooks.remove(hook)
        except ValueError:
            pass

    def _default_candidates(self, dims: int) -> tuple[list[TuningVector], int]:
        """The paper's preset set for ``dims``, with its hash, memoized.

        The list is shared across requests (responses never mutate it), so
        default-candidate traffic pays neither preset regeneration nor
        per-request content hashing.
        """
        cached = self._default_sets.get(dims)
        if cached is None:
            presets = preset_candidates(dims)
            cached = (presets, candidate_set_hash(presets))
            self._default_sets[dims] = cached
        return cached

    def is_default_set(self, dims: int, candidates: Sequence[TuningVector]) -> bool:
        """Whether ``candidates`` *is* this service's shared preset list.

        An identity check against the memo (never generating presets), so
        observers on the response-hook path — the cluster worker's feedback
        streamer — can tell "preset request" from "explicit set" in O(1)
        and keep preset-sized payloads off the wire.
        """
        cached = self._default_sets.get(dims)
        return cached is not None and candidates is cached[0]

    def set_default_model(self, ref: str) -> None:
        """Repoint the service default (tag or version) — a hot swap."""
        self.registry.resolve(ref)  # fail fast on unknown refs
        self.default_model = ref

    def stats(self) -> dict:
        """Telemetry + cache counters in one flat dict."""
        return {**self.telemetry.snapshot(), **self.cache.snapshot()}

    # -- scoring ---------------------------------------------------------------

    def _score(
        self,
        instance: StencilInstance,
        candidates: Sequence[TuningVector],
        version: str,
    ) -> "tuple[CachedRanking, tuple[float, float, float]]":
        """Encode and score one candidate set; returns the entry and stamps.

        The stamps ``(start, encoded, scored)`` feed a traced request's
        ``encode``/``score`` spans.
        """
        model = self._model(version)
        t_start = time.monotonic()
        X = self.encoder.encode_many(
            [(instance, candidates)], out=self._scratch(len(candidates))
        )
        t_encoded = time.monotonic()
        scores = model.decision_function(X)
        t_scored = time.monotonic()
        self.telemetry.record_scored(len(X))
        entry = CachedRanking(
            order=np.argsort(-scores, kind="stable"),
            scores=scores,
            model_version=version,
        )
        return entry, (t_start, t_encoded, t_scored)

    def _scratch(self, rows: int) -> np.ndarray:
        """The reusable encode buffer, grown (never shrunk) to ``rows``."""
        if self._encode_scratch is None or self._encode_scratch.shape[0] < rows:
            self._encode_scratch = np.empty((rows, self.encoder.num_features))
        return self._encode_scratch

    def _model(self, version: str) -> RankSVM:
        """The memoized model for a concrete version (fingerprint-checked).

        Memoization is LRU-bounded: when a version is evicted (a worker
        that has hot-swapped through many promotions), its ranking-cache
        entries go with it — they are only reachable by requests pinning
        that retired version, and keeping them would let every promotion
        permanently grow the worker's footprint.
        """
        model = self._models.get(version)
        if model is None:
            model = self.registry.load(
                version, expect_fingerprint=self.encoder.fingerprint()
            )
            self._models[version] = model
            while len(self._models) > self.max_cached_models:
                evicted, _ = self._models.popitem(last=False)
                self.cache.invalidate_version(evicted)
        else:
            self._models.move_to_end(version)
        return model

    # -- completion ------------------------------------------------------------

    def _build_spans(
        self,
        trace: TraceContext,
        rows: int,
        arrived: float,
        stamps: "tuple[float, float, float] | None",
        now: float,
    ) -> tuple[Span, ...]:
        """The traced request's stage spans (partitioning its wall time).

        A scored request gets queue → encode → score → finish, where the
        queue stage is ref resolution and the cache probe.  A cache-path
        answer is all queue plus a zero-width ``cache`` marker.
        """

        def span(name: str, start: float, end: float, attrs: "dict | None" = None) -> Span:
            return Span(
                trace_id=trace.trace_id,
                name=name,
                start_s=start,
                duration_s=max(0.0, end - start),
                process=self.trace_process,
                req_id=trace.req_id,
                attrs=attrs,
            )

        if stamps is not None:
            t_start, t_encoded, t_scored = stamps
            return (
                span("service-queue", arrived, t_start),
                span("encode", t_start, t_encoded, {"rows": rows, "slab_rows": rows}),
                span("score", t_encoded, t_scored, {"slab_rows": rows}),
                span("service-finish", t_scored, now),
            )
        return (
            span("service-queue", arrived, now),
            span("cache", now, now, {"hit": True}),
        )

    def _respond(
        self,
        candidates: Sequence[TuningVector],
        entry: CachedRanking,
        top_k: "int | None",
        trace: "TraceContext | None",
        arrived: float,
        stamps: "tuple[float, float, float] | None",
    ) -> RankingResponse:
        """Build the response; ``stamps`` is None for a ranking-cache hit."""
        now = time.monotonic()
        latency = now - arrived
        self.telemetry.record_completion(latency)
        if top_k is not None:
            # top-k mode: never build the full list for this request —
            # slice the memoized one if present, else pick from the order
            ranked = (
                entry.ranked[:top_k]
                if entry.ranked is not None
                else [candidates[i] for i in entry.order[:top_k].tolist()]
            )
        else:
            # full ranking: materialize into the entry once, share after
            ranked = list(entry.materialize(candidates))
        return RankingResponse(
            ranked=ranked,
            scores=entry.scores,
            model_version=entry.model_version,
            cached=stamps is None,
            latency_s=latency,
            spans=(
                self._build_spans(trace, len(candidates), arrived, stamps, now)
                if trace is not None
                else None
            ),
            order=entry.order,
        )
