"""Multi-process serving: a cluster of tuning-service workers behind one registry.

A single :class:`~repro.service.server.TuningService` is one core of
encode+score.  :class:`ServiceCluster` is the scale-out unit the serving
docs promised: N worker processes, each running its own service (own event
loop, own :class:`~repro.service.cache.RankingCache`, own telemetry), all
reading the **same on-disk**
:class:`~repro.service.registry.ModelRegistry`.

::

     submit(instance, …)                     ┌───────────────────────────┐
          │   instance_hash ── ShardRouter ──▶ worker 0  TuningService   │
          │   (rendezvous,      │            │ worker 1  TuningService   │──┐
          ▼    affine)          └───────────▶│ worker …  (per-worker     │  │
     Future[ClusterResponse] ◀── replies ────│            cache+stats)   │  │
                                             └─────────────┬─────────────┘  │
                                                 ModelRegistry (shared root,│
                                                 tags.json re-resolved per  │
                                                 request → cluster-wide hot │
                                                 swap on one tag move) ◀────┘

Properties the ``tests/cluster/`` suites pin:

* **bit-identical rankings** — every worker loads the same archive bytes
  and runs the same encode + ``X @ w`` + stable argsort, so a
  cluster answer equals ``OrdinalAutotuner.rank_candidates`` exactly, for
  any worker count;
* **instance affinity** — routing is rendezvous hashing over the alive
  set (:class:`~repro.service.routing.ShardRouter`), so one instance
  always hits one worker and per-worker caches stay hot;
* **atomic hot swap** — a promotion is one atomic tag write; each worker
  re-resolves tags per request, so every in-flight answer is computed
  end-to-end by exactly one version (old or new, never a mixture);
* **crash containment** — a killed worker's unanswered requests are
  requeued to the surviving shards (ranking is pure, so re-execution is
  safe), the router stops sending it traffic, and (by default) a
  replacement process is spawned; the registry and the other workers'
  caches are untouched;
* **feedback rides the wire** — with ``feedback_every >= 1`` each worker
  streams every Nth successful answer back as a
  :class:`~repro.service.ipc.FeedbackRecord`; the parent rehydrates
  preset candidate sets from its own memo and fans records out to
  :meth:`add_feedback_listener` observers, which is how one
  coordinator-side continual-learning collector (one probing budget, one
  drift monitor) sees the whole cluster's traffic.

A SIGKILL is the *easy* failure (the pipe EOFs and everyone knows).  The
resilience layer (``tests/cluster/test_resilience.py``) covers the
partial ones:

* **deadlines + bounded retry** — ``submit(..., deadline_s=…)`` gives a
  request a total time budget; an attempt that outlives its per-dispatch
  timeout is re-dispatched to another worker with jittered exponential
  backoff (deterministic per request: the jitter is hashed from the
  request id), at most ``ResilienceConfig.max_retries`` times.  A hung
  worker can therefore delay a request, never strand it.
* **health-state routing** — a per-worker
  :class:`~repro.service.health.CircuitBreaker` (healthy → suspect →
  quarantined) is fed by attempt timeouts, corrupted reply frames,
  crashes, and heartbeat silence (workers beat from their event loop, so
  a blocked loop goes quiet — the slow-loris signature).  Dispatch
  prefers healthy workers, tolerates suspects as a last resort, and
  unroutes quarantined ones entirely (their pending work is requeued).
  Quarantined workers are probed with
  :class:`~repro.service.ipc.Ping`; a :class:`~repro.service.ipc.Pong`
  readmits them — shard and warm cache restored.
* **graceful degradation** — with ``degraded_answers=True``, a request no
  healthy worker can answer before its deadline is answered by the
  coordinator itself (a remembered full ranking, else an in-coordinator
  scorer that is bit-identical to a worker) with an explicit
  ``degraded=True``; past ``max_queue_depth`` undispatched requests,
  ``submit`` sheds deterministically with
  :class:`~repro.service.degrade.ClusterOverloadedError`.

The parent API is thread-friendly: ``submit`` returns a
``concurrent.futures.Future``, which asyncio applications await through
``asyncio.wrap_future``.

**Transports.**  Workers attach over one of three links, all speaking the
same :mod:`~repro.service.ipc` frames (so everything above — routing,
health, retries, chaos — is transport-blind):

* ``"pipe"`` (default) — a forked process on a duplex pipe;
* ``"socket"`` — a forked process that dials back into a coordinator
  loopback listener and talks the length-prefixed frame codec
  (:mod:`~repro.service.frames`): the cross-host wire, exercised
  locally.  ``tests/cluster/test_socket_transport.py`` pins that its
  answers are *bit-identical* to pipe answers;
* ``remote_workers=["host:port", ...]`` — workers on other machines
  behind a :class:`~repro.service.remote.RemoteWorkerHost`; the
  coordinator dials out, opens with :class:`~repro.service.ipc.Hello`,
  and a failed dial parks the worker in ``missing_workers`` instead of
  failing the cluster.

``worker_weights`` feeds the router's weighted rendezvous election: a
weight-2 host takes ~2× the shards of a weight-1 host, weight 0 drains.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.obs.audit import AuditJournal
from repro.obs.trace import ROOT_SPAN, Span, TraceConfig, TraceContext, Tracer, write_jsonl
from repro.service.cache import InternedCandidates
from repro.service.chaos import ChaosConfig
from repro.service.degrade import (
    ClusterOverloadedError,
    DeadlineExceededError,
    FallbackScorer,
    FallbackStore,
)
from repro.service.health import CircuitBreaker, HealthState, ResilienceConfig
from repro.service.ipc import (
    CorruptFrameError,
    ErrorReply,
    FeedbackRecord,
    Heartbeat,
    Hello,
    Ping,
    Pong,
    RankReply,
    RankRequest,
    ReplyBatch,
    Shutdown,
    StatsReply,
    StatsRequest,
    recv_frame,
)
from repro.service.registry import LATEST
from repro.service.routing import ShardRouter
from repro.service.telemetry import merge_stats
from repro.service.transport import accept_connection, dial, listen
from repro.service.worker import WorkerConfig, socket_worker_main, worker_main
from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.tuning.presets import preset_candidates
from repro.tuning.vector import TuningVector
from repro.util.rng import hash_bits

__all__ = ["ClusterResponse", "ServiceCluster"]

def _settle(future: "concurrent.futures.Future", value=None, error: "Exception | None" = None) -> None:
    """Resolve a future, tolerating a client cancelling it concurrently.

    ``submit()`` hands out plain futures, so a caller may ``cancel()``
    one at any moment — including between a ``done()`` check and the
    ``set_result`` call.  The resulting ``InvalidStateError`` must never
    escape into a reader thread: a dead reader would leave its worker
    routed but unread, hanging the whole shard.  (It also makes duplicate
    settles benign — a request that was retried *and* then answered by
    its first, written-off worker keeps the first settle and drops the
    straggler.)
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
    except concurrent.futures.InvalidStateError:
        pass  # cancelled (or already settled) by the caller: drop the answer


@dataclass(frozen=True)
class ClusterResponse:
    """One answered cluster query."""

    #: candidates best-first (truncated to ``top_k`` when requested)
    ranked: list[TuningVector]
    #: full score array aligned with the request's candidate order
    #: (None when the request set ``include_scores=False``; a degraded
    #: answer may also lack scores when the remembered reply had none)
    scores: "np.ndarray | None"
    #: the concrete model version that produced the answer
    model_version: str
    #: whether the owning worker's ranking cache answered
    cached: bool
    #: parent-observed submit-to-answer latency, in seconds
    latency_s: float
    #: queue-to-answer latency inside the worker's service
    service_latency_s: float
    #: which worker answered (affinity: stable per instance; -1 = the
    #: coordinator itself answered, which only happens when degraded)
    worker_id: int
    #: how many times the request was (re)dispatched (1 = no crash or
    #: timeout on its path)
    attempts: int
    #: True when no healthy worker could answer in time and the
    #: coordinator served a fallback (cache replay or local scoring);
    #: ``model_version`` still names exactly the model that computed it
    degraded: bool = False

    @property
    def best(self) -> TuningVector:
        """The top-ranked configuration."""
        return self.ranked[0]

    def release(self) -> None:
        """A no-op, kept so callers may release every answer unconditionally.

        ``scores`` is always an ordinary owned array (or None): there is
        nothing to hand back, and it stays readable after this call.
        """


@dataclass
class _PendingReq:
    """A dispatched request awaiting its reply (or a re-dispatch)."""

    req_id: int
    instance: StencilInstance
    candidates: "Sequence[TuningVector] | InternedCandidates | None"
    model_ref: str
    top_k: "int | None"
    include_scores: bool
    future: "concurrent.futures.Future[ClusterResponse]"
    submitted_at: float
    attempts: int = 0
    #: absolute monotonic deadline (None = no time budget)
    deadline_at: "float | None" = None
    #: per-dispatch timeout before the monitor retries elsewhere
    attempt_timeout_s: "float | None" = None
    #: timeout-triggered re-dispatches so far (crash requeues not counted)
    retries: int = 0
    #: current dispatch target and when it was sent there
    worker_id: "int | None" = None
    attempt_started: "float | None" = None
    #: earliest monotonic time the next retry may dispatch (backoff gate)
    not_before: float = 0.0
    #: workers that already timed this request out (avoided while any
    #: other worker can take it)
    excluded: set = field(default_factory=set)
    #: trace identity when this request is sampled (None: untraced)
    trace_ctx: "TraceContext | None" = None
    #: monotonic submit time (root-span clock; submitted_at is perf_counter)
    submitted_mono: float = 0.0
    #: monotonic time the current dispatch's pipe write returned
    sent_at: "float | None" = None
    #: monotonic time this request entered the retry backoff queue
    backoff_queued_at: "float | None" = None


class _RemoteProcess:
    """A process-shaped stub for a worker living on another host.

    The coordinator does not own a remote worker's process — it owns a
    *connection* to it — but every lifecycle path (stop, crash reap,
    restart bookkeeping) is written against the ``mp.Process`` surface.
    This stub answers that surface with no-ops: ``join`` returns at once,
    ``is_alive`` is False (there is nothing to terminate locally), and
    the signal methods do nothing — severing the link is how a remote
    worker is "killed" (see :meth:`ServiceCluster.kill_worker`).
    """

    def __init__(self, address: str) -> None:
        self.address = address
        self.pid: "int | None" = None

    def is_alive(self) -> bool:
        return False

    def join(self, timeout: "float | None" = None) -> None:
        pass

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_RemoteProcess(address={self.address!r})"


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    worker_id: int
    process: "mp.process.BaseProcess"
    conn: object  # multiprocessing.connection.Connection
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    pending: "dict[int, _PendingReq]" = field(default_factory=dict)
    stats_pending: "dict[int, concurrent.futures.Future]" = field(default_factory=dict)
    reader: "threading.Thread | None" = None
    dead: bool = False
    restarts: int = 0


class ServiceCluster:
    """Instance-affine, crash-tolerant multi-process tuning service.

    Usage::

        with ServiceCluster(registry_root, n_workers=4) as cluster:
            future = cluster.submit(instance)          # thread-friendly
            best = future.result().best
    """

    def __init__(
        self,
        registry_root: "str | Path",
        n_workers: int = 4,
        default_model: str = LATEST,
        start_method: "str | None" = None,
        restart_workers: bool = True,
        max_restarts: int = 3,
        cache_entries: int = 4096,
        max_cached_models: int = 8,
        feedback_every: int = 0,
        resilience: "ResilienceConfig | None" = None,
        chaos: "ChaosConfig | dict[int, ChaosConfig] | None" = None,
        trace: "TraceConfig | None" = None,
        audit: "AuditJournal | None" = None,
        transport: "str | dict[int, str]" = "pipe",
        worker_weights: "dict[int, float] | None" = None,
        remote_workers: "Sequence[str] | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if feedback_every < 0:
            raise ValueError(f"feedback_every must be >= 0, got {feedback_every}")
        named = (
            transport.values() if isinstance(transport, dict) else (transport,)
        )
        for kind in named:
            if kind not in ("pipe", "socket"):
                raise ValueError(
                    f"transport must be 'pipe' or 'socket', got {kind!r}"
                )
        self.registry_root = str(registry_root)
        self.n_workers = n_workers
        #: local transport selection: one kind for every forked worker, or
        #: a {worker_id: kind} map (unlisted ids default to "pipe") — the
        #: mixed-fleet posture the conformance suite exercises
        self._transport: "str | dict[int, str]" = (
            dict(transport) if isinstance(transport, dict) else transport
        )
        #: remote workers take the ids *after* the local ones, so local
        #: routing/health/chaos indexing is unchanged by adding remotes
        self._remote_addrs: dict[int, str] = {
            n_workers + i: str(addr)
            for i, addr in enumerate(remote_workers or ())
        }
        #: fleet size: local forked workers + configured remote addresses
        self.n_total = n_workers + len(self._remote_addrs)
        #: workers with no live connection because their dial (or re-dial)
        #: failed: reported via ``stats()['missing_workers']`` and merged
        #: as None snapshots — a dead address degrades, never raises
        self._dial_failed: dict[int, str] = {}
        self.restart_workers = restart_workers
        self.max_restarts = max_restarts
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: per-worker fault injections for chaos drills: one config for
        #: every worker, or a {worker_id: config} map for targeted faults
        self._chaos: "dict[int, ChaosConfig]" = (
            dict(chaos)
            if isinstance(chaos, dict)
            else {w: chaos for w in range(self.n_total)}
            if chaos is not None
            else {}
        )
        self.config = WorkerConfig(
            default_model=default_model,
            cache_entries=cache_entries,
            max_cached_models=max_cached_models,
            feedback_every=feedback_every,
            heartbeat_interval_s=self.resilience.heartbeat_interval_s,
        )
        self._ctx = _context(start_method)
        self.router = ShardRouter(range(self.n_total), weights=worker_weights)
        for worker_id in range(self.n_total):  # routable only once spawned
            self.router.mark_dead(worker_id)
        self._workers: dict[int, _WorkerHandle] = {}
        self._lock = threading.RLock()
        # data-plane ids are pure submission ordinals: control-plane
        # traffic (stats, probes) draws from a disjoint high range so
        # timing-dependent probe counts never shift request numbering —
        # the audit journal's req_id→version replay stays run-stable
        self._req_ids = iter(range(1, 1 << 62)).__next__
        self._ctl_ids = iter(range(1 << 62, 1 << 63)).__next__
        self._started = False
        self._stopping = False
        #: worker exits observed outside a clean stop
        self.crashes = 0
        #: chronological worker lifecycle events
        #: (spawn/exit/restart/quarantine/readmit)
        self.events: list[dict] = []
        #: per-worker health state machines (kept across restarts; reset
        #: when a replacement process takes the worker id over)
        self._health: dict[int, CircuitBreaker] = {
            w: CircuitBreaker.from_config(self.resilience)
            for w in range(self.n_total)
        }
        #: monotonic receipt time of the last frame heard per worker.
        #: Written lock-free from reader threads (dict stores are atomic
        #: under the GIL); the monitor tolerates a one-tick-stale read.
        self._last_heard: dict[int, float] = {}
        self._spawned_at: dict[int, float] = {}
        #: workers currently past heartbeat_stale_s (monitor-thread only;
        #: makes the suspect penalty fire once per silence, not per tick)
        self._hb_flagged: set[int] = set()
        #: timeout-retried requests waiting out their backoff
        self._retry_queue: list[_PendingReq] = []
        self._monitor: "threading.Thread | None" = None
        self._monitor_stop = threading.Event()
        #: coordinator-side fallback machinery (degraded answers)
        self._fallback_store: "FallbackStore | None" = (
            FallbackStore(self.resilience.fallback_cache_entries)
            if self.resilience.degraded_answers
            else None
        )
        self._fallback_scorer: "FallbackScorer | None" = None
        #: resilience counters
        self.timeouts = 0
        self.retries_scheduled = 0
        self.degraded_served = 0
        self.shed_requests = 0
        self.corrupted_frames = 0
        #: inbound frames whose *payload code* raised while materializing
        #: — bugs surfaced, not frame loss (see ipc.CorruptFrameError)
        self.frame_decode_bugs = 0
        self.quarantines = 0
        self.readmissions = 0
        #: observers called with (instance, candidates, record) per
        #: worker-streamed FeedbackRecord — the cluster-level analogue of
        #: TuningService.add_response_hook
        self._feedback_listeners: list[
            Callable[[StencilInstance, Sequence[TuningVector], FeedbackRecord], None]
        ] = []
        #: FeedbackRecords received from workers (all listeners included)
        self.feedback_received = 0
        #: exceptions swallowed from feedback listeners (serving never breaks)
        self.feedback_errors = 0
        self.last_feedback_error: "Exception | None" = None
        #: dims -> regenerated preset list for candidates=None records
        #: (same content the workers serve, regenerated once per parent)
        self._preset_sets: dict[int, list[TuningVector]] = {}
        #: distributed tracing (None: fully off — submit/dispatch/reply
        #: paths pay only ``None`` checks).  Sampled requests carry a
        #: TraceContext over the wire; workers return their stage spans on
        #: the reply and the coordinator merges them into this recorder,
        #: synthesizing the two transport stages from same-host monotonic
        #: timestamps.
        self.tracer: "Tracer | None" = (
            Tracer(trace, process="coordinator") if trace is not None else None
        )
        #: model-lifecycle / fleet-health audit journal (None: fully off —
        #: every audit point pays only a ``None`` check).  Fleet events
        #: (spawn/worker-exit/quarantine/readmit/shed/degrade, breaker
        #: transitions) and per-request ``answer`` events land here with
        #: the trace ids in flight at event time.
        self.audit: "AuditJournal | None" = audit
        if audit is not None:
            for worker_id, breaker in self._health.items():
                breaker.on_transition = self._breaker_auditor(worker_id)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServiceCluster":
        """Spawn the worker processes and the health monitor (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._stopping = False
            self._started = True
        for worker_id in range(self.n_total):
            self._spawn(worker_id)
        self._monitor_stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain every accepted request, then stop all workers."""
        with self._lock:
            if not self._started:
                return
            self._stopping = True
            handles = list(self._workers.values())
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in handles:
            try:
                with handle.send_lock:
                    handle.conn.send(Shutdown())
            except (BrokenPipeError, OSError, TypeError, ValueError):
                pass
        deadline = time.monotonic() + timeout_s
        for handle in handles:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():  # pragma: no cover - hung worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            # the dead process's pipe EOF wakes the reader; joining it
            # before closing the connection keeps close() and recv() from
            # ever running concurrently
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        with self._lock:
            stranded = [
                p for h in self._workers.values() for p in h.pending.values()
            ]
            stranded += self._retry_queue
            self._retry_queue = []
            self._workers.clear()
            for worker_id in self.router.alive():
                self.router.mark_dead(worker_id)
            self._started = False
        for pending in stranded:
            _settle(
                pending.future,
                error=RuntimeError("cluster stopped before the request was answered"),
            )

    def __enter__(self) -> "ServiceCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the cluster is accepting requests."""
        return self._started and not self._stopping

    def alive_workers(self) -> tuple[int, ...]:
        """Worker ids currently routable (quarantined workers excluded)."""
        return self.router.alive()

    def worker_health(self, worker_id: int) -> HealthState:
        """The health state of one worker."""
        return self._health[worker_id].state

    # -- request API -----------------------------------------------------------

    def submit(
        self,
        instance: StencilInstance,
        candidates: "Sequence[TuningVector] | InternedCandidates | None" = None,
        model: "str | None" = None,
        top_k: "int | None" = None,
        include_scores: bool = True,
        deadline_s: "float | None" = None,
    ) -> "concurrent.futures.Future[ClusterResponse]":
        """Route one ranking query to its shard; returns a future.

        ``candidates=None`` uses the owning worker's preset set (nothing
        preset-sized crosses the wire); an
        :class:`~repro.service.cache.InternedCandidates` set ships its
        precomputed digest, which stays valid across the process boundary.

        ``deadline_s`` caps the request's total wall time (default:
        ``ResilienceConfig.default_deadline_s``).  A deadlined request
        whose worker attempt stalls is retried on another shard (bounded,
        jitter-backed-off); at the deadline it either degrades (when
        ``degraded_answers`` is on) or fails with
        :class:`~repro.service.degrade.DeadlineExceededError`.  Raises
        :class:`~repro.service.degrade.ClusterOverloadedError` *here* —
        not on the future — when the backlog is past ``max_queue_depth``:
        shed load fails fast at the front door.
        """
        if not self.running:
            raise RuntimeError("ServiceCluster is not running; call start() first")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        resil = self.resilience
        if resil.max_queue_depth is not None:
            with self._lock:
                depth = self._queue_depth_locked()
            if depth >= resil.max_queue_depth:
                self.shed_requests += 1
                if self.tracer is not None:
                    self.tracer.record_event("shed", attrs={"depth": depth})
                if self.audit is not None:
                    self.audit.record(
                        "shed", {"depth": depth}, self._inflight_trace_ids()
                    )
                raise ClusterOverloadedError(
                    f"cluster backlog ({depth}) at max_queue_depth "
                    f"({resil.max_queue_depth}); request shed"
                )
        effective_deadline = (
            deadline_s if deadline_s is not None else resil.default_deadline_s
        )
        attempt_timeout = resil.attempt_timeout_s
        if attempt_timeout is None and effective_deadline is not None:
            # split the budget so every allowed retry fits inside it
            attempt_timeout = effective_deadline / (resil.max_retries + 1)
        req_id = self._req_ids()
        pending = _PendingReq(
            req_id=req_id,
            instance=instance,
            candidates=candidates,
            model_ref=model or self.config.default_model,
            top_k=top_k,
            include_scores=include_scores,
            future=concurrent.futures.Future(),
            submitted_at=time.perf_counter(),
            deadline_at=(
                time.monotonic() + effective_deadline
                if effective_deadline is not None
                else None
            ),
            attempt_timeout_s=attempt_timeout,
            trace_ctx=(
                self.tracer.context_for(req_id) if self.tracer is not None else None
            ),
            submitted_mono=time.monotonic(),
        )
        self._dispatch(pending)
        return pending.future

    # -- feedback stream -------------------------------------------------------

    def add_feedback_listener(
        self,
        listener: Callable[
            [StencilInstance, Sequence[TuningVector], FeedbackRecord], None
        ],
    ) -> None:
        """Register an observer for worker-streamed feedback records.

        Listeners receive ``(instance, candidates, record)`` — candidates
        in the request's order, aligned with ``record.scores`` (preset
        requests are rehydrated from the parent's memo, so the list is
        always concrete).  They run on the owning worker's reader thread
        and must be cheap and thread-safe (append to an intake queue;
        process later) — this is the attachment point for
        :class:`~repro.online.feedback.ClusterFeedbackCollector`.  A
        raising listener is counted (``feedback_errors``) and never
        disturbs the reply path.

        The stream only carries records when the cluster was built with
        ``feedback_every >= 1`` — listeners on a cluster that never armed
        worker-side streaming observe nothing.
        """
        self._feedback_listeners.append(listener)

    def remove_feedback_listener(self, listener: Callable) -> None:
        """Unregister a previously added feedback listener (no-op if absent)."""
        try:
            self._feedback_listeners.remove(listener)
        except ValueError:
            pass

    def _on_feedback(self, record: FeedbackRecord) -> None:
        """Rehydrate one streamed record and fan it out to the listeners.

        Runs on the owning worker's reader thread: counters are guarded
        by the cluster lock (a bare ``+=`` would lose increments between
        concurrent readers), listeners are called outside it.
        """
        with self._lock:
            self.feedback_received += 1
        candidates = (
            self._presets(record.instance.dims)
            if record.candidates is None
            else record.candidates
        )
        for listener in list(self._feedback_listeners):
            try:
                listener(record.instance, candidates, record)
            except Exception as exc:
                with self._lock:
                    self.feedback_errors += 1
                    self.last_feedback_error = exc

    def _presets(self, dims: int) -> list[TuningVector]:
        """The preset candidate list for ``dims``, regenerated + memoized.

        Bit-identical to every worker's own preset set (both sides call
        :func:`~repro.tuning.presets.preset_candidates`), so a record that
        shipped ``candidates=None`` grades against exactly the list the
        worker scored.
        """
        cached = self._preset_sets.get(dims)
        if cached is None:
            # no lock: two reader threads racing here both generate the
            # identical list; setdefault keeps one winner and the loser's
            # copy is content-equal anyway
            cached = self._preset_sets.setdefault(dims, preset_candidates(dims))
        return cached

    # -- telemetry -------------------------------------------------------------

    def stats(self, timeout_s: float = 10.0) -> dict:
        """Aggregated cluster telemetry plus each worker's own snapshot.

        ``cluster`` merges every worker's counters (summed totals, merged
        hit rate, cluster-wide p50/p99 read off the exactly merged latency
        histograms — see :func:`repro.service.telemetry.merge_stats`);
        ``workers`` maps worker id to its raw ``service.stats()``.

        Every non-dead worker is asked — including quarantined ones (a
        hung worker simply will not answer).  Workers that miss the
        shared ``timeout_s`` are listed in ``missing_workers``, their
        orphaned stats futures are cleaned up (not leaked), and the merge
        proceeds over the answers that did arrive — partial stats beat no
        stats during an incident.  ``health`` carries each worker's
        circuit-breaker snapshot; ``resilience`` the coordinator's
        failure-handling counters.
        """
        requests: "list[tuple[int, _WorkerHandle, int, concurrent.futures.Future]]" = []
        with self._lock:
            # workers whose dial failed never produced a connection to
            # ask; they are missing by construction, and merge as None
            # snapshots so the aggregate still counts the whole fleet
            never_connected = sorted(self._dial_failed)
            for handle in self._workers.values():
                if handle.dead:
                    continue
                req_id = self._ctl_ids()
                fut: concurrent.futures.Future = concurrent.futures.Future()
                handle.stats_pending[req_id] = fut
                requests.append((handle.worker_id, handle, req_id, fut))
        for worker_id, handle, req_id, fut in requests:
            try:
                with handle.send_lock:
                    handle.conn.send(StatsRequest(req_id=req_id))
            except (BrokenPipeError, OSError, TypeError, ValueError):
                with self._lock:
                    handle.stats_pending.pop(req_id, None)
                _settle(fut, error=RuntimeError("worker pipe closed"))
        deadline = time.monotonic() + timeout_s
        replies: dict[int, StatsReply] = {}
        missing: list[int] = list(never_connected)
        for worker_id, handle, req_id, fut in requests:
            try:
                replies[worker_id] = fut.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except Exception:  # dead or hung mid-question
                # clean up the orphaned future so a worker that answers
                # *after* the timeout finds nothing to resolve (and the
                # handle's stats_pending map does not grow forever)
                with self._lock:
                    handle.stats_pending.pop(req_id, None)
                missing.append(worker_id)
        merged = merge_stats(
            [r.stats for r in replies.values()] + [None] * len(never_connected)
        )
        with self._lock:
            health = {w: b.snapshot() for w, b in sorted(self._health.items())}
            resilience = {
                "timeouts": self.timeouts,
                "retries_scheduled": self.retries_scheduled,
                "degraded_served": self.degraded_served,
                "shed_requests": self.shed_requests,
                "corrupted_frames": self.corrupted_frames,
                "frame_decode_bugs": self.frame_decode_bugs,
                "quarantines": self.quarantines,
                "readmissions": self.readmissions,
                "retry_queue_depth": len(self._retry_queue),
                "fallback_cache_entries": (
                    len(self._fallback_store)
                    if self._fallback_store is not None
                    else 0
                ),
                "fallback_scored": (
                    self._fallback_scorer.scored
                    if self._fallback_scorer is not None
                    else 0
                ),
                "fallback_cache_hits": (
                    self._fallback_store.hits
                    if self._fallback_store is not None
                    else 0
                ),
                "fallback_cache_misses": (
                    self._fallback_store.misses
                    if self._fallback_store is not None
                    else 0
                ),
            }
            # trace-ring accounting: recorded vs honestly dropped spans
            # (the ring is bounded; silent loss would corrupt attribution)
            trace_ring = (
                {
                    "recorded": self.tracer.recorder.recorded,
                    "dropped": self.tracer.recorder.dropped,
                }
                if self.tracer is not None
                else {"recorded": 0, "dropped": 0}
            )
            # degraded answers and sheds happen in the coordinator, never
            # inside a worker — fold them into the first-class telemetry
            # counters so merged stats and resilience state agree
            merged["degraded_total"] = (
                merged.get("degraded_total", 0) + self.degraded_served
            )
            merged["shed_total"] = merged.get("shed_total", 0) + self.shed_requests
            # surface every coordinator counter in the merged dict under
            # exposition-friendly names, so ``exposition(stats["cluster"])``
            # exports the whole fleet story (no counter is scrape-invisible)
            merged["crashes_total"] = self.crashes
            merged["timeouts_total"] = self.timeouts
            merged["retries_scheduled_total"] = self.retries_scheduled
            merged["quarantines_total"] = self.quarantines
            merged["readmissions_total"] = self.readmissions
            merged["corrupted_frames_total"] = self.corrupted_frames
            # workers count decode bugs on their inbound direction too —
            # add, don't overwrite, so neither side's count disappears
            merged["frame_decode_bugs_total"] = (
                merged.get("frame_decode_bugs_total", 0) + self.frame_decode_bugs
            )
            merged["feedback_received_total"] = self.feedback_received
            merged["feedback_errors_total"] = self.feedback_errors
            merged["fallback_cache_hits_total"] = resilience["fallback_cache_hits"]
            merged["fallback_cache_misses_total"] = resilience["fallback_cache_misses"]
            merged["fallback_scored_total"] = resilience["fallback_scored"]
            merged["trace_spans_recorded_total"] = trace_ring["recorded"]
            merged["trace_spans_dropped_total"] = trace_ring["dropped"]
        return {
            "cluster": merged,
            "workers": {w: r.stats for w, r in sorted(replies.items())},
            "alive_workers": list(self.router.alive()),
            "crashes": self.crashes,
            "feedback_received": self.feedback_received,
            "feedback_errors": self.feedback_errors,
            "missing_workers": sorted(missing),
            "health": health,
            "resilience": resilience,
            "trace": trace_ring,
            "audit_entries": len(self.audit) if self.audit is not None else 0,
        }

    def trace_spans(self) -> "list[Span]":
        """Every span in the coordinator's recorder (worker spans merged).

        Empty when the cluster was built without a
        :class:`~repro.obs.trace.TraceConfig`.
        """
        return [] if self.tracer is None else self.tracer.spans()

    def dump_trace(self, path: "str | Path") -> int:
        """Write the merged span buffer as JSONL; returns spans written."""
        return write_jsonl(path, self.trace_spans())

    # -- audit journal ----------------------------------------------------------

    def _inflight_trace_ids(self, limit: int = 32) -> "tuple[str, ...]":
        """Trace ids of requests in flight right now (bounded, sorted).

        Stamped onto every audit entry: the join key from a fleet event
        to the requests it may have affected.  Empty without tracing.
        """
        if self.tracer is None:
            return ()
        ids: set[str] = set()
        with self._lock:
            for handle in self._workers.values():
                for pending in handle.pending.values():
                    if pending.trace_ctx is not None:
                        ids.add(pending.trace_ctx.trace_id)
            for pending in self._retry_queue:
                if pending.trace_ctx is not None:
                    ids.add(pending.trace_ctx.trace_id)
        return tuple(sorted(ids)[:limit])

    def _audit(self, event: str, attrs: "dict | None" = None) -> None:
        """Record one fleet event in the audit journal (no-op without one)."""
        if self.audit is not None:
            self.audit.record(event, attrs, self._inflight_trace_ids())

    def _breaker_auditor(self, worker_id: int):
        """An ``on_transition`` observer auditing one worker's breaker."""

        def observe(origin: str, to: str, reason: str) -> None:
            self._audit(
                "breaker-transition",
                {"worker": worker_id, "from": origin, "to": to, "reason": reason},
            )

        return observe

    # -- fault injection (tests and drills) ------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker — the crash-injection hook the test harness uses.

        A remote worker has no local process to signal; severing its
        connection is the same event from the coordinator's point of view
        (the reader EOFs and runs the crash path).
        """
        with self._lock:
            handle = self._workers.get(worker_id)
        if handle is None:
            raise KeyError(f"no such worker {worker_id}")
        if isinstance(handle.process, _RemoteProcess):
            handle.conn.close()
            return
        handle.process.kill()

    # -- internals -------------------------------------------------------------

    def _transport_for(self, worker_id: int) -> str:
        """Which link a worker attaches over: pipe, socket, or remote."""
        if worker_id in self._remote_addrs:
            return "remote"
        if isinstance(self._transport, dict):
            return self._transport.get(worker_id, "pipe")
        return self._transport

    def _spawn(self, worker_id: int, restarts: int = 0) -> "_WorkerHandle | None":
        """Start one worker process and register it for routing.

        The expensive part — forking/spawning the process — runs *outside*
        the cluster lock, so a restart never stalls the healthy shards'
        traffic; only the registration (worker map, router, events) is
        locked.  Returns None when the cluster stopped mid-spawn (the
        orphan process is torn down) — or, for a remote worker, when the
        dial failed (recorded, not raised; the fleet serves without it).
        """
        kind = self._transport_for(worker_id)
        if kind == "remote":
            return self._connect_remote(worker_id, restarts)
        config = self.config
        chaos = self._chaos.get(worker_id)
        if chaos is not None:
            config = dataclasses.replace(config, chaos=chaos)
        if kind == "socket":
            # the worker dials *back*: the coordinator listens on an
            # ephemeral loopback port and ships only the port number into
            # the child (an int survives any start method)
            listener = listen()
            port = listener.getsockname()[1]
            process = self._ctx.Process(
                target=socket_worker_main,
                args=(worker_id, self.registry_root, port, config),
                name=f"tuning-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            try:
                parent_conn = accept_connection(
                    listener,
                    timeout_s=max(self.resilience.dial_timeout_s, 30.0),
                )
            except OSError:
                # the child never dialed (died importing, wedged): there
                # is no link to serve on — reap it and surface the fault
                process.terminate()
                process.join(timeout=5.0)
                raise
            finally:
                listener.close()
        else:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, self.registry_root, child_conn, config),
                name=f"tuning-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            # the parent must drop its copy of the child end, or reads on
            # parent_conn would never see EOF when the worker dies
            child_conn.close()
        handle = _WorkerHandle(
            worker_id=worker_id, process=process, conn=parent_conn, restarts=restarts
        )
        handle.reader = threading.Thread(
            target=self._read_replies,
            args=(handle,),
            name=f"cluster-reader-{worker_id}",
            daemon=True,
        )
        with self._lock:
            if self._stopping or not self._started:
                parent_conn.close()
                process.terminate()
                process.join(timeout=5.0)
                return None
            self._workers[worker_id] = handle
            self.router.mark_alive(worker_id)
            # a fresh process takes the worker id over with a clean slate:
            # its predecessor's failures are not its own
            self._health[worker_id].reset()
            self._spawned_at[worker_id] = time.monotonic()
            self._last_heard.pop(worker_id, None)
            self._hb_flagged.discard(worker_id)
            self.events.append(
                {
                    "type": "spawn",
                    "worker": worker_id,
                    "restarts": restarts,
                    "pid": process.pid,
                }
            )
        # pid is run-specific provenance the replay fold ignores
        self._audit("spawn", {"worker": worker_id, "restarts": restarts})
        handle.reader.start()
        return handle

    def _connect_remote(
        self, worker_id: int, restarts: int = 0
    ) -> "_WorkerHandle | None":
        """Dial one remote worker host and register it for routing.

        A failed dial is an *operational* condition, not a programming
        error: the address may be down, partitioned, or not started yet.
        The worker is recorded in ``_dial_failed`` (surfaced through
        ``stats()['missing_workers']`` and merged as a None snapshot),
        an event/audit entry lands, and the cluster serves on without the
        shard — exactly how it treats a crashed-and-unrestartable local
        worker.
        """
        config = self.config
        chaos = self._chaos.get(worker_id)
        if chaos is not None:
            config = dataclasses.replace(config, chaos=chaos)
        address = self._remote_addrs[worker_id]
        try:
            conn = dial(address, timeout_s=self.resilience.dial_timeout_s)
            # the handshake names the worker and ships its config — the
            # remote host runs the same _serve loop a forked worker does
            conn.send(Hello(worker_id=worker_id, config=config))
        except OSError as exc:
            with self._lock:
                self._dial_failed[worker_id] = f"{type(exc).__name__}: {exc}"
                self.events.append(
                    {
                        "type": "dial-failed",
                        "worker": worker_id,
                        "address": address,
                    }
                )
            self._audit(
                "dial-failed", {"worker": worker_id, "address": address}
            )
            return None
        handle = _WorkerHandle(
            worker_id=worker_id,
            process=_RemoteProcess(address),
            conn=conn,
            restarts=restarts,
        )
        handle.reader = threading.Thread(
            target=self._read_replies,
            args=(handle,),
            name=f"cluster-reader-{worker_id}",
            daemon=True,
        )
        with self._lock:
            if self._stopping or not self._started:
                conn.close()
                return None
            self._dial_failed.pop(worker_id, None)
            self._workers[worker_id] = handle
            self.router.mark_alive(worker_id)
            self._health[worker_id].reset()
            self._spawned_at[worker_id] = time.monotonic()
            self._last_heard.pop(worker_id, None)
            self._hb_flagged.discard(worker_id)
            self.events.append(
                {
                    "type": "spawn",
                    "worker": worker_id,
                    "restarts": restarts,
                    "pid": None,
                    "address": address,
                }
            )
        self._audit(
            "spawn", {"worker": worker_id, "restarts": restarts, "remote": True}
        )
        handle.reader.start()
        return handle

    def _read_replies(self, handle: _WorkerHandle) -> None:
        """Reader thread: resolve futures for one worker until its pipe closes."""
        while True:
            try:
                msg = recv_frame(handle.conn)
            except (EOFError, OSError):
                break
            except TypeError:
                # CPython's Connection surfaces a concurrent close() from
                # another thread (stop(), or a crash handler reacting to a
                # failed send) as TypeError from the raw read — treat it
                # exactly like the EOF it is
                break
            except CorruptFrameError as exc:
                # the pipe still frames messages, so only this frame is
                # lost — but *why* it was lost matters.  Garbage bytes are
                # wire corruption: penalize the worker's breaker.  A
                # payload whose own reconstruction code raised is a bug in
                # that payload: surface it, and do not smear the worker.
                # Either way the answered request is recovered by its
                # attempt timeout (or by quarantine requeue).
                if exc.genuine_bug:
                    with self._lock:
                        self.frame_decode_bugs += 1
                    self._audit(
                        "frame-decode-bug",
                        {"worker": handle.worker_id, "cause": exc.cause_type},
                    )
                else:
                    with self._lock:
                        self.corrupted_frames += 1
                    self._note_failure(handle.worker_id, "corrupt-frame")
                continue
            self._last_heard[handle.worker_id] = time.monotonic()
            if isinstance(msg, ReplyBatch):
                for part in msg.messages:
                    self._handle_frame(handle, part)
            else:
                self._handle_frame(handle, msg)
        self._on_worker_exit(handle)

    def _handle_frame(self, handle: _WorkerHandle, msg: object) -> None:
        """Process one worker frame (possibly unpacked from a ReplyBatch)."""
        if isinstance(msg, (RankReply, ErrorReply)):
            with self._lock:
                pending = handle.pending.pop(msg.req_id, None)
                # any reply proves the loop is serving: heal a suspect
                self._health[handle.worker_id].record_success()
            if pending is None:
                # a late reply for a request already retried, expired or
                # requeued: nobody will consume it
                return
            if isinstance(msg, ErrorReply):
                _settle(pending.future, error=msg.error)
            else:
                ranked = self._materialize_ranked(pending, msg)
                if self._fallback_store is not None and pending.top_k is None:
                    self._fallback_store.remember(
                        pending.instance,
                        pending.candidates,
                        ranked,
                        msg.scores,
                        msg.model_version,
                    )
                if self.tracer is not None and pending.trace_ctx is not None:
                    self._record_reply_trace(pending, msg)
                if self.audit is not None:
                    # the request's own trace id only — answer events
                    # are per-request, not fleet-wide, and must stay
                    # off the lock (one per reply)
                    self.audit.record(
                        "answer",
                        {
                            "req_id": pending.req_id,
                            "model_version": msg.model_version,
                            "worker": msg.worker_id,
                            "cached": msg.cached,
                            "attempts": pending.attempts,
                            "why": "routed",
                        },
                        (pending.trace_ctx.trace_id,)
                        if pending.trace_ctx is not None
                        else (),
                    )
                _settle(
                    pending.future,
                    ClusterResponse(
                        ranked=ranked,
                        scores=msg.scores,
                        model_version=msg.model_version,
                        cached=msg.cached,
                        latency_s=time.perf_counter() - pending.submitted_at,
                        service_latency_s=msg.service_latency_s,
                        worker_id=msg.worker_id,
                        attempts=pending.attempts,
                    ),
                )
        elif isinstance(msg, Heartbeat):
            pass  # receipt time (recorded by the reader) is the signal
        elif isinstance(msg, Pong):
            self._on_pong(handle)
        elif isinstance(msg, StatsReply):
            with self._lock:
                fut = handle.stats_pending.pop(msg.req_id, None)
            if fut is not None:
                _settle(fut, msg)
        elif isinstance(msg, FeedbackRecord):
            self._on_feedback(msg)

    def _reply_candidates(self, pending: _PendingReq) -> "Sequence[TuningVector]":
        """The candidate list a reply's indices point into.

        The coordinator always holds it: explicit lists ride the pending
        entry, interned sets carry their tuple, and preset requests
        (``candidates=None``) rehydrate from the parent memo —
        bit-identical to the worker's own preset set.
        """
        candidates = pending.candidates
        if candidates is None:
            return self._presets(pending.instance.dims)
        if isinstance(candidates, InternedCandidates):
            return candidates.candidates
        return candidates

    def _materialize_ranked(
        self, pending: _PendingReq, msg: RankReply
    ) -> "list[TuningVector]":
        """Turn a wire reply into its best-first candidate list.

        ``ranked_idx`` replies are rehydrated against the coordinator's
        own candidate list.
        """
        if msg.ranked_idx is not None:
            candidates = self._reply_candidates(pending)
            return [candidates[i] for i in msg.ranked_idx.tolist()]
        return list(msg.ranked or ())

    def _record_reply_trace(self, pending: _PendingReq, msg: RankReply) -> None:
        """Merge a traced reply's worker spans and close the trace.

        All processes share the host's monotonic clock, so the two
        transport stages are synthesized from the gaps around the worker's
        span block: ``worker-ingress`` (pipe transit + inbox/loop wait
        before the service saw the request) and ``reply-egress`` (reply
        pickle + transit + this reader thread's wake-up).  Clock skew
        between processes is sub-microsecond but not zero; negative gaps
        clamp to zero inside :meth:`Tracer.span`.
        """
        ctx = pending.trace_ctx
        now = time.monotonic()
        spans = msg.spans or ()
        if spans:
            self.tracer.recorder.record_many(spans)
            first = min(s.start_s for s in spans)
            last = max(s.end_s for s in spans)
            if pending.sent_at is not None:
                self.tracer.span(
                    ctx,
                    "worker-ingress",
                    pending.sent_at,
                    first,
                    {"worker": msg.worker_id},
                )
            self.tracer.span(
                ctx, "reply-egress", last, now, {"worker": msg.worker_id}
            )
        self.tracer.span(
            ctx,
            ROOT_SPAN,
            pending.submitted_mono,
            now,
            {
                "worker": msg.worker_id,
                "attempts": pending.attempts,
                "cached": msg.cached,
            },
        )

    def _on_pong(self, handle: _WorkerHandle) -> None:
        """A probe round-tripped: close the breaker and readmit the shard."""
        with self._lock:
            breaker = self._health[handle.worker_id]
            was = breaker.state
            breaker.record_probe_ok()
            if was is HealthState.QUARANTINED and not handle.dead and not self._stopping:
                self.router.mark_alive(handle.worker_id)
                self._hb_flagged.discard(handle.worker_id)
                self.readmissions += 1
                self.events.append(
                    {"type": "readmit", "worker": handle.worker_id}
                )
                if self.tracer is not None:
                    self.tracer.record_event(
                        "readmit", attrs={"worker": handle.worker_id}
                    )
                self._audit("readmit", {"worker": handle.worker_id})

    def _note_failure(self, worker_id: int, kind: str) -> None:
        """Feed one failure to a worker's breaker; act on a trip."""
        requeue: list[_PendingReq] = []
        with self._lock:
            breaker = self._health.get(worker_id)
            if breaker is None:
                return
            was = breaker.state
            now = breaker.record_failure(kind)
            if now is HealthState.QUARANTINED and was is not HealthState.QUARANTINED:
                requeue = self._quarantine_locked(worker_id, kind)
        for pending in requeue:
            self._dispatch(pending)

    def _quarantine_locked(self, worker_id: int, reason: str) -> "list[_PendingReq]":
        """Unroute a quarantined worker and strip its pending work (caller
        holds the lock and re-dispatches the returned requests outside it)."""
        self.router.mark_dead(worker_id)
        self.quarantines += 1
        handle = self._workers.get(worker_id)
        orphans: list[_PendingReq] = []
        if handle is not None:
            orphans = list(handle.pending.values())
            handle.pending.clear()
        self.events.append(
            {
                "type": "quarantine",
                "worker": worker_id,
                "reason": reason,
                "requeued": len(orphans),
            }
        )
        self._audit(
            "quarantine",
            {"worker": worker_id, "reason": reason, "requeued": len(orphans)},
        )
        if self.tracer is not None:
            self.tracer.record_event(
                "quarantine",
                attrs={"worker": worker_id, "reason": reason, "requeued": len(orphans)},
            )
            now = time.monotonic()
            for p in orphans:
                if p.trace_ctx is not None:
                    self.tracer.span(
                        p.trace_ctx, "requeue", now, now, {"from_worker": worker_id}
                    )
        return orphans

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        """Crash path: unroute, requeue the dead worker's shard, maybe restart."""
        with self._lock:
            if handle.dead or self._stopping:
                return
            handle.dead = True
            self.crashes += 1
            self.router.mark_dead(handle.worker_id)
            self._health[handle.worker_id].record_failure("crash")
            self._hb_flagged.discard(handle.worker_id)
            orphans = list(handle.pending.values())
            handle.pending.clear()
            stats_orphans = list(handle.stats_pending.values())
            handle.stats_pending.clear()
            if self._workers.get(handle.worker_id) is handle:
                del self._workers[handle.worker_id]
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            restart = self.restart_workers and handle.restarts < self.max_restarts
            self.events.append(
                {
                    "type": "worker-exit",
                    "worker": handle.worker_id,
                    "requeued": len(orphans),
                    "restarted": restart,
                }
            )
        self._audit(
            "worker-exit",
            {
                "worker": handle.worker_id,
                "requeued": len(orphans),
                "restarted": restart,
            },
        )
        if self.tracer is not None:
            self.tracer.record_event(
                "worker-exit",
                attrs={
                    "worker": handle.worker_id,
                    "requeued": len(orphans),
                    "restarted": restart,
                },
            )
            now = time.monotonic()
            for p in orphans:
                if p.trace_ctx is not None:
                    self.tracer.span(
                        p.trace_ctx, "requeue", now, now, {"from_worker": handle.worker_id}
                    )
        handle.process.join(timeout=5.0)  # reap; already exited
        for fut in stats_orphans:
            _settle(fut, error=RuntimeError("worker died before answering stats"))
        if restart:  # outside the lock: a restart must not stall other shards
            self._spawn(handle.worker_id, restarts=handle.restarts + 1)
        # requeue after the replacement is routable: ranking is pure, so
        # re-executing an orphaned request on another shard is safe
        for pending in orphans:
            self._dispatch(pending)

    def _dispatch(self, pending: _PendingReq) -> None:
        """Route and send one request; crashes during send trigger requeue.

        Routing is health-aware and widens in rings: healthy workers the
        request has not timed out on, then any alive worker it has not
        timed out on (suspects as a last resort), then any alive worker
        at all (better a worker it already distrusts than nobody).
        Quarantined workers are not in the alive set and take no traffic.
        """
        pending.attempts += 1
        if pending.attempts > (
            self.n_workers + self.max_restarts + 1 + self.resilience.max_retries
        ):
            self._degrade_or_fail(  # pragma: no cover - repeated crashes
                pending,
                RuntimeError(
                    f"request gave up after {pending.attempts - 1} dispatch attempts"
                ),
            )
            return
        tracing = self.tracer is not None and pending.trace_ctx is not None
        t_route = time.monotonic() if tracing else 0.0
        if tracing and pending.backoff_queued_at is not None:
            # the jittered wait this retry just served, as a detour stage
            self.tracer.span(
                pending.trace_ctx,
                "retry-backoff",
                pending.backoff_queued_at,
                t_route,
                {"retry": pending.retries},
            )
            pending.backoff_queued_at = None
        key = instance_hash(pending.instance)
        with self._lock:
            alive = set(self.router.alive())
            healthy = {
                w for w in alive if self._health[w].state is HealthState.HEALTHY
            }
            worker_id: "int | None" = None
            for pool in (
                healthy - pending.excluded,
                alive - pending.excluded,
                alive,
            ):
                if pool:
                    worker_id = self.router.route(key, within=pool)
                    break
            if worker_id is None:  # nothing alive at all
                self._degrade_or_fail(
                    pending, RuntimeError("no alive workers to route to")
                )
                return
            handle = self._workers.get(worker_id)
            if handle is None:  # stop() won the race with this dispatch
                _settle(
                    pending.future,
                    error=RuntimeError("cluster stopped before the request was routed"),
                )
                return
            pending.worker_id = worker_id
            pending.attempt_started = time.monotonic()
            handle.pending[pending.req_id] = pending
        request = RankRequest(
            req_id=pending.req_id,
            instance=pending.instance,
            candidates=pending.candidates,
            model_ref=pending.model_ref,
            top_k=pending.top_k,
            include_scores=pending.include_scores,
            trace=pending.trace_ctx,
        )
        try:
            with handle.send_lock:
                handle.conn.send(request)
        except (BrokenPipeError, OSError, TypeError, ValueError):
            # the worker died under our pen: the crash path requeues
            # everything in its pending map, including this request.
            # TypeError/ValueError cover a concurrent close() nulling the
            # pipe handle between send()'s closed-check and the write.
            self._on_worker_exit(handle)
            return
        if tracing:
            pending.sent_at = time.monotonic()
            # route + pickle + pipe write, per attempt
            self.tracer.span(
                pending.trace_ctx,
                "dispatch",
                t_route,
                pending.sent_at,
                {"worker": worker_id, "attempt": pending.attempts},
            )

    # -- the monitor: deadlines, retries, heartbeats, probes -------------------

    def _monitor_loop(self) -> None:
        """The coordinator's failure-domain heartbeat, one small thread.

        Every tick: release backed-off retries whose time has come,
        expire attempts and deadlines, judge heartbeat silence, and probe
        unhealthy workers.  All decisions happen under the cluster lock;
        all resulting sends/dispatches happen outside it.
        """
        interval = self.resilience.monitor_interval_s
        while not self._monitor_stop.wait(interval):
            if self._stopping:
                return
            try:
                self._tick()
            except Exception:  # pragma: no cover - monitor must survive
                # a monitor crash would silently disable every deadline;
                # nothing it does is worth dying for
                continue

    def _tick(self) -> None:
        now = time.monotonic()
        self._release_retries(now)
        self._expire_attempts(now)
        self._judge_heartbeats(now)
        self._probe_unhealthy()

    def _release_retries(self, now: float) -> None:
        """Dispatch backed-off retries that are due; expire dead-on-arrival ones."""
        due: list[_PendingReq] = []
        expired: list[_PendingReq] = []
        with self._lock:
            if not self._retry_queue:
                return
            waiting: list[_PendingReq] = []
            for pending in self._retry_queue:
                if pending.deadline_at is not None and now >= pending.deadline_at:
                    expired.append(pending)
                elif now >= pending.not_before:
                    due.append(pending)
                else:
                    waiting.append(pending)
            self._retry_queue = waiting
        for pending in expired:
            self._degrade_or_fail(
                pending,
                DeadlineExceededError(
                    f"deadline exceeded after {pending.attempts} attempts"
                ),
            )
        for pending in due:
            self._dispatch(pending)

    def _expire_attempts(self, now: float) -> None:
        """Time out stalled dispatches; retry, degrade, or fail each one."""
        victims: "list[tuple[int, _PendingReq]]" = []
        with self._lock:
            for handle in self._workers.values():
                for pending in list(handle.pending.values()):
                    timeout = pending.attempt_timeout_s
                    started = pending.attempt_started
                    overdue = (
                        timeout is not None
                        and started is not None
                        and now - started > timeout
                    )
                    past_deadline = (
                        pending.deadline_at is not None
                        and now >= pending.deadline_at
                    )
                    if overdue or past_deadline:
                        handle.pending.pop(pending.req_id, None)
                        victims.append((handle.worker_id, pending))
        for worker_id, pending in victims:
            with self._lock:
                self.timeouts += 1
            # the stall is evidence against the worker regardless of what
            # happens to the request
            self._note_failure(worker_id, "timeout")
            if pending.deadline_at is not None and now >= pending.deadline_at:
                self._degrade_or_fail(
                    pending,
                    DeadlineExceededError(
                        f"deadline exceeded after {pending.attempts} attempts"
                    ),
                )
            elif pending.retries < self.resilience.max_retries:
                self._queue_retry(pending, worker_id, now)
            else:
                self._degrade_or_fail(
                    pending,
                    RuntimeError(
                        f"request timed out on {pending.attempts} dispatch attempts"
                    ),
                )

    def _queue_retry(self, pending: _PendingReq, timed_out_on: int, now: float) -> None:
        """Schedule a timed-out request for re-dispatch with jittered backoff.

        The jitter is hashed from (request id, retry ordinal) — spread
        like randomness, reproducible like everything else in this repo.
        """
        pending.retries += 1
        pending.excluded.add(timed_out_on)
        u = hash_bits("cluster-retry", pending.req_id, pending.retries)[0] / 2**64
        backoff = self.resilience.retry_backoff_s * (2 ** (pending.retries - 1))
        pending.not_before = now + backoff * (0.5 + u)
        if self.tracer is not None and pending.trace_ctx is not None:
            pending.backoff_queued_at = now  # closed by the next dispatch
        with self._lock:
            self.retries_scheduled += 1
            self._retry_queue.append(pending)

    def _judge_heartbeats(self, now: float) -> None:
        """Turn heartbeat silence into health state.

        Crossing ``heartbeat_stale_s`` costs one breaker failure (suspect);
        crossing twice that quarantines outright — a loop silent that long
        is hung, not busy.  Workers that have never spoken get
        ``boot_grace_s`` (model load + imports happen before the first
        beat).  Hearing the worker again clears the flag and heals a
        suspect.
        """
        if self.config.heartbeat_interval_s <= 0:
            return
        resil = self.resilience
        actions: "list[tuple[str, int]]" = []
        with self._lock:
            for worker_id, handle in self._workers.items():
                if handle.dead:
                    continue
                heard = self._last_heard.get(worker_id)
                if heard is None:
                    born = self._spawned_at.get(worker_id, now)
                    if now - born <= resil.boot_grace_s:
                        continue
                    silence = now - born
                else:
                    silence = now - heard
                breaker = self._health[worker_id]
                if silence > 2 * resil.heartbeat_stale_s:
                    if breaker.state is not HealthState.QUARANTINED:
                        breaker.quarantine("heartbeat")
                        actions.append(("quarantine", worker_id))
                elif silence > resil.heartbeat_stale_s:
                    if worker_id not in self._hb_flagged:
                        self._hb_flagged.add(worker_id)
                        was = breaker.state
                        state = breaker.record_failure("heartbeat")
                        if (
                            state is HealthState.QUARANTINED
                            and was is not HealthState.QUARANTINED
                        ):
                            actions.append(("quarantine", worker_id))
                elif worker_id in self._hb_flagged:
                    self._hb_flagged.discard(worker_id)
                    breaker.record_success()  # heard again: heal a suspect
            requeue: list[_PendingReq] = []
            for kind, worker_id in actions:
                requeue += self._quarantine_locked(worker_id, "heartbeat")
        for pending in requeue:
            self._dispatch(pending)

    def _probe_unhealthy(self) -> None:
        """Ping suspect/quarantined workers that are due for a probe."""
        probes: "list[tuple[_WorkerHandle, Ping]]" = []
        with self._lock:
            for worker_id, handle in self._workers.items():
                if handle.dead:
                    continue
                breaker = self._health[worker_id]
                if breaker.should_probe():
                    breaker.record_probe_sent()
                    probes.append((handle, Ping(req_id=self._ctl_ids())))
        for handle, ping in probes:
            try:
                with handle.send_lock:
                    handle.conn.send(ping)
            except (BrokenPipeError, OSError, TypeError, ValueError):
                pass  # the reader's EOF will run the crash path

    # -- degradation -----------------------------------------------------------

    def _degrade_or_fail(self, pending: _PendingReq, error: Exception) -> None:
        """The request's ending when no worker answered in time."""
        if self.resilience.degraded_answers:
            t_fallback = time.monotonic()
            response = self._fallback_response(pending)
            if response is not None:
                with self._lock:
                    self.degraded_served += 1
                if self.audit is not None:
                    why = "degraded-cache" if response.cached else "degraded-scored"
                    self.audit.record(
                        "answer",
                        {
                            "req_id": pending.req_id,
                            "model_version": response.model_version,
                            "worker": -1,
                            "cached": response.cached,
                            "attempts": pending.attempts,
                            "why": why,
                            "degraded": True,
                        },
                        (pending.trace_ctx.trace_id,)
                        if pending.trace_ctx is not None
                        else (),
                    )
                    self.audit.record(
                        "degrade",
                        {"req_id": pending.req_id, "why": why},
                        self._inflight_trace_ids(),
                    )
                if self.tracer is not None and pending.trace_ctx is not None:
                    now = time.monotonic()
                    self.tracer.span(
                        pending.trace_ctx,
                        "degraded-score",
                        t_fallback,
                        now,
                        {"cached": response.cached},
                    )
                    self.tracer.span(
                        pending.trace_ctx,
                        ROOT_SPAN,
                        pending.submitted_mono,
                        now,
                        {"worker": -1, "attempts": pending.attempts, "degraded": True},
                    )
                _settle(pending.future, response)
                return
        _settle(pending.future, error=error)

    def _fallback_response(self, pending: _PendingReq) -> "ClusterResponse | None":
        """A coordinator-side answer: remembered ranking, else local scoring."""
        answer = None
        if self._fallback_store is not None:
            answer = self._fallback_store.lookup(pending.instance, pending.candidates)
        if answer is None:
            try:
                candidates = pending.candidates
                if candidates is None:
                    candidates = self._presets(pending.instance.dims)
                elif isinstance(candidates, InternedCandidates):
                    candidates = list(candidates.candidates)
                answer = self._scorer().score(
                    pending.instance, candidates, pending.model_ref
                )
            except Exception:
                return None  # degradation also failed: the strict error stands
        ranked = (
            answer.ranked[: pending.top_k]
            if pending.top_k is not None
            else list(answer.ranked)
        )
        return ClusterResponse(
            ranked=ranked,
            scores=answer.scores if pending.include_scores else None,
            model_version=answer.model_version,
            cached=answer.cached,
            latency_s=time.perf_counter() - pending.submitted_at,
            service_latency_s=0.0,
            worker_id=-1,
            attempts=pending.attempts,
            degraded=True,
        )

    def _scorer(self) -> FallbackScorer:
        """The lazily built in-coordinator scorer (first degradation pays)."""
        with self._lock:
            if self._fallback_scorer is None:
                self._fallback_scorer = FallbackScorer(self.registry_root)
            return self._fallback_scorer

    def _queue_depth_locked(self) -> int:
        """Requests accepted but not yet answered (dispatched + backed off)."""
        return (
            sum(len(h.pending) for h in self._workers.values())
            + len(self._retry_queue)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceCluster({self.registry_root!r}, "
            f"alive={self.router.alive()}, crashes={self.crashes})"
        )


#: whether this process's (interpreter-wide) forkserver was asked to
#: preload the worker module.  ``mp.get_context("forkserver")`` returns a
#: process-global singleton, so the preload is configured exactly once —
#: and only if the forkserver has not already been started by earlier
#: code, in which case a late preload request would be silently ignored
#: and workers would simply pay the numpy/scipy import themselves.
_forkserver_preload_requested = False


def _context(start_method: "str | None") -> "mp.context.BaseContext":
    """The multiprocessing context to spawn workers with.

    Default is ``forkserver`` (clean children — no inherited threads or
    event loops — forked from a preloaded server, so per-worker startup
    does not pay the numpy/scipy import) with the worker module preloaded;
    platforms without it fall back to ``spawn``.  ``fork`` remains
    selectable for tests that want millisecond spawns.
    """
    global _forkserver_preload_requested
    if start_method is not None:
        return mp.get_context(start_method)
    try:
        ctx = mp.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return mp.get_context("spawn")
    if not _forkserver_preload_requested:
        _forkserver_preload_requested = True
        try:
            ctx.set_forkserver_preload(["repro.service.worker"])
        except Exception:  # pragma: no cover - server already running
            pass
    return ctx
