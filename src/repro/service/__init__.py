"""Ranking-as-a-service: the serving layer over the trained tuner.

The paper's headline property — ranking a candidate set is one
matrix-vector product — makes the trained model a natural *service*.  This
package provides the production pieces around it:

* :mod:`repro.service.server` — :class:`TuningService`, the asyncio
  front-end that answers each request as it arrives: ranking-cache probe,
  then ``encode_many`` + ``decision_function`` on a miss;
* :mod:`repro.service.cache` — the LRU :class:`RankingCache` keyed by
  (instance fingerprint, candidate-set hash, model version);
* :mod:`repro.service.registry` — the versioned, tagged
  :class:`ModelRegistry` with atomic writes and fingerprint validation;
* :mod:`repro.service.telemetry` — request/cache/latency counters,
  plus :func:`merge_stats` for cluster-wide aggregation;
* :mod:`repro.service.cluster` — :class:`ServiceCluster`, the
  multi-process scale-out: instance-affine
  (:class:`~repro.service.routing.ShardRouter`) worker processes behind
  the shared registry, with crash rerouting and merged telemetry;
* :mod:`repro.service.worker` / :mod:`repro.service.ipc` — the worker
  entry point and the pickle wire protocol between parent and workers;
* :mod:`repro.service.frames` / :mod:`repro.service.transport` /
  :mod:`repro.service.remote` — the cross-host layer: the
  length-prefixed frame codec, :class:`SocketConnection` (a TCP link
  that duck-types a worker pipe), and :class:`RemoteWorkerHost` (the
  per-machine listener a coordinator dials with
  ``ServiceCluster(remote_workers=[...])``);
* :mod:`repro.service.health` / :mod:`repro.service.degrade` /
  :mod:`repro.service.chaos` — the resilience layer: per-worker circuit
  breakers fed by timeouts, corrupt frames and heartbeat silence
  (healthy → suspect → quarantined, probe-readmitted); coordinator-side
  degraded answers and deterministic load shedding; and the fault
  injections the chaos drills run against all of it.

See ``docs/serving.md`` for the architecture and ``examples/serve_tuner.py``
/ ``examples/serve_cluster.py`` for runnable end-to-end sessions.
"""

from repro.service.cache import (
    CachedRanking,
    InternedCandidates,
    RankingCache,
    candidate_set_hash,
    intern_candidates,
)
from repro.service.chaos import ChaosConfig
from repro.service.cluster import ClusterResponse, ServiceCluster
from repro.service.degrade import (
    ClusterOverloadedError,
    DeadlineExceededError,
    FallbackScorer,
    FallbackStore,
)
from repro.service.health import CircuitBreaker, HealthState, ResilienceConfig
from repro.service.registry import ModelRegistry
from repro.service.remote import RemoteWorkerHost
from repro.service.routing import ShardRouter
from repro.service.server import RankingResponse, TuningService
from repro.service.telemetry import ServiceTelemetry, merge_stats
from repro.service.transport import SocketConnection
from repro.service.worker import WorkerConfig

__all__ = [
    "CachedRanking",
    "ChaosConfig",
    "CircuitBreaker",
    "ClusterOverloadedError",
    "ClusterResponse",
    "DeadlineExceededError",
    "FallbackScorer",
    "FallbackStore",
    "HealthState",
    "InternedCandidates",
    "ModelRegistry",
    "RankingCache",
    "RankingResponse",
    "RemoteWorkerHost",
    "ResilienceConfig",
    "SocketConnection",
    "ServiceCluster",
    "ServiceTelemetry",
    "ShardRouter",
    "TuningService",
    "WorkerConfig",
    "candidate_set_hash",
    "intern_candidates",
    "merge_stats",
]
