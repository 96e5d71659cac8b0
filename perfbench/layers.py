"""Per-layer timings for the traced run, taken from outside ``src/``.

Two kinds of numbers:

* **call timings during the run** — :class:`CallTimer` wraps bound
  methods on live objects (the cluster's router during the timed cycles,
  the pipelines' trainer, evaluator, collector and policy during the
  promotion episodes) and records each call's wall time;
* **layer probes after the workload** — :func:`probe_layers` calls each
  layer's public functions directly on fixed inputs and reports medians.

Worker-side stages cannot be wrapped from here (they run in other
processes); the cluster's own ``TraceConfig`` spans cover them.
"""

from __future__ import annotations

import asyncio
import pickle
import statistics
import tempfile
import threading
import time

import numpy as np

from repro.learn.ranksvm import RankSVM
from repro.service import ServiceCluster, TuningService
from repro.service.cache import RankingCache, CachedRanking, candidate_set_hash
from repro.service.frames import FrameDecoder, encode_frame
from repro.service.ipc import RankReply, decode_frame_payload
from repro.service.registry import ModelRegistry
from repro.service.transport import accept_connection, dial, listen
from repro.stencil.execution import instance_hash
from repro.tuning.presets import preset_candidates

from workloads import TOP_K, hot_pool, post_shift_requests


class CallTimer:
    """Records the wall time of every call to the methods it wraps."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.ends: list[float] = []
        self._wrapped: list = []

    def wrap(self, obj, name: str) -> None:
        """Replace ``obj.name`` with a timed pass-through."""
        original = getattr(obj, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.durations.append(t1 - t0)
                self.ends.append(t1)

        setattr(obj, name, timed)
        self._wrapped.append((obj, name, original))

    def restore(self) -> None:
        for obj, name, original in reversed(self._wrapped):
            setattr(obj, name, original)
        self._wrapped.clear()

    def take(self) -> list[float]:
        """The durations recorded so far, which are then forgotten."""
        durations = self.durations
        self.durations, self.ends = [], []
        return durations

    def median(self, scale: float = 1.0) -> float:
        return scale * statistics.median(self.durations) if self.durations else 0.0


def _median_time(fn, reps: int, scale: float) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return scale * statistics.median(times)


def _socket_rtt_us(payload: bytes, reps: int) -> float:
    """Median round trip of one reply-sized frame over loopback TCP."""
    listener = listen()
    port = listener.getsockname()[1]
    box: dict = {}

    def echo() -> None:
        conn = accept_connection(listener)
        box["conn"] = conn
        try:
            while True:
                conn.send_bytes(conn.recv_bytes())
        except (EOFError, OSError):
            pass

    server = threading.Thread(target=echo, name="rtt-echo", daemon=True)
    server.start()
    client = dial(("127.0.0.1", port))
    try:
        for _ in range(20):
            client.send_bytes(payload)
            client.recv_bytes()
        rtt = _median_time(
            lambda: (client.send_bytes(payload), client.recv_bytes()), reps, 1e6
        )
    finally:
        client.close()
        server.join(timeout=5.0)
        if "conn" in box:
            box["conn"].close()
        listener.close()
    return rtt


def _hit_rtt_ms(cluster, instance, reps: int) -> float:
    """Median submit→answer time of one cached preset request at a time."""
    submit = lambda: cluster.submit(  # noqa: E731
        instance, top_k=TOP_K, include_scores=False
    ).result(timeout=60)
    for _ in range(5):
        submit()
    return _median_time(submit, reps, 1e3)


async def _service_hit_ms(registry, instance, reps: int) -> float:
    async with TuningService(registry, default_model="prod") as service:
        await service.rank(instance, top_k=TOP_K)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            await service.rank(instance, top_k=TOP_K)
            times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probe_layers(fleet, seed: int, work_dir: str) -> dict:
    """Direct timings of each layer's public functions on fixed inputs."""
    tuner, registry = fleet.tuner, fleet.registry
    encoder, model = tuner.encoder, tuner.model
    q3, q2 = hot_pool()[0], next(q for q in hot_pool() if q.dims == 2)
    p3, p2 = preset_candidates(3), preset_candidates(2)
    small = post_shift_requests(seed, 300_000, 1)[0]
    out: dict = {}
    out["presets.build_ms"] = _median_time(lambda: preset_candidates(3), 3, 1e3)
    out["cache.set_hash_us"] = _median_time(
        lambda: candidate_set_hash(small.candidates), 200, 1e6
    )
    # a resident output buffer, as the serving encode path uses
    scratch = np.empty((len(p3), encoder.num_features))
    out["encoder.encode3d_ms"] = _median_time(
        lambda: encoder.encode_many([(q3, p3)], out=scratch), 5, 1e3
    )
    out["encoder.encode2d_ms"] = _median_time(
        lambda: encoder.encode_many([(q2, p2)], out=scratch), 5, 1e3
    )
    out["encoder.encode32_us"] = _median_time(
        lambda: encoder.encode_many([(small.instance, small.candidates)]), 200, 1e6
    )
    X3 = encoder.encode_many([(q3, p3)])
    out["ranksvm.score3d_ms"] = _median_time(lambda: model.decision_function(X3), 10, 1e3)
    out["ranksvm.fit_s"] = _median_time(
        lambda: RankSVM(tuner.config).fit(fleet.offline.data), 3, 1.0
    )
    s3 = model.decision_function(X3)
    out["autotuner.order_ms"] = _median_time(
        lambda: np.argsort(-s3, kind="stable")[:TOP_K], 20, 1e3
    )
    out["autotuner.rank3d_ms"] = _median_time(
        lambda: tuner.rank_candidates(q3, p3), 5, 1e3
    )
    cache = RankingCache(16)
    key = (instance_hash(q3), candidate_set_hash(p3), "v0001")
    order = np.argsort(-s3, kind="stable")
    cache.put(key, CachedRanking(order=order, scores=s3, model_version="v0001"))
    out["cache.get_us"] = _median_time(lambda: cache.get(key), 1000, 1e6)
    out["server.hit_ms"] = asyncio.run(_service_hit_ms(registry, q3, 30))

    reply = RankReply(
        req_id=1,
        ranked=None,
        scores=None,
        model_version="v0001",
        cached=True,
        service_latency_s=1e-3,
        worker_id=0,
        ranked_idx=order[:TOP_K].astype(np.int32),
    )
    frame = encode_frame(reply)
    out["frames.reply_bytes"] = float(len(frame))
    out["frames.encode_us"] = _median_time(lambda: encode_frame(reply), 1000, 1e6)

    def decode() -> None:
        decoder = FrameDecoder()
        decoder.feed(frame)
        decode_frame_payload(decoder.next_payload())

    out["frames.decode_us"] = _median_time(decode, 1000, 1e6)
    out["transport.socket_rtt_us"] = _socket_rtt_us(pickle.dumps(reply), 500)

    out["registry.resolve_us"] = _median_time(lambda: registry.resolve("prod"), 500, 1e6)
    version = registry.resolve("prod")
    out["registry.load_ms"] = _median_time(lambda: registry.load(version), 10, 1e3)
    with tempfile.TemporaryDirectory(dir=work_dir) as scratch:
        scratch_registry = ModelRegistry(scratch)
        out["registry.publish_ms"] = _median_time(
            lambda: scratch_registry.publish(model, tuner.fingerprint()), 5, 1e3
        )

    out["cluster.hit_rtt_ms.pipe"] = _hit_rtt_ms(fleet.cluster, q3, 50)
    with ServiceCluster(
        fleet.root, n_workers=1, default_model="prod", transport="socket"
    ) as socket_cluster:
        out["cluster.hit_rtt_ms.socket"] = _hit_rtt_ms(socket_cluster, q3, 50)
    return out
