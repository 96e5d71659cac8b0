"""One benchmark run: set-up, timed phases, promotions, oracle check."""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import statistics
import tempfile
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.training import TrainingSet, TrainingSetBuilder
from repro.machine.budget import BudgetedMachine
from repro.machine.executor import SimulatedMachine
from repro.obs.trace import TraceConfig, stage_breakdown
from repro.online import (
    ContinualConfig,
    ContinualLearningPipeline,
    DriftMonitor,
    FeedbackCollector,
    IncrementalTrainer,
    PromotionPolicy,
    ShadowEvaluator,
    family_kernels,
)
from repro.ranking.kendall import kendall_tau
from repro.service import ModelRegistry, ServiceCluster
from repro.stencil.execution import instance_hash

import drive
from layers import CallTimer, probe_layers
from oracle import Oracle
from workloads import (
    PHASE1,
    ColdPopulation,
    Request,
    hot_pool,
    hot_requests,
    poisson_times,
    post_shift_requests,
    stream_digest,
)

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_REPS = 3
OFFLINE_POINTS = 840
#: share of ``--seconds`` spent in the open-loop phase (rest: closed loop)
OPEN_SHARE = 0.6
#: the window alternates open- and closed-loop parts this many times, so
#: both phases sample the whole window; latency, throughput and CPU cost
#: are medians over the cycles, so a stall moves one cycle only
SEGMENTS = 8
#: generator p99 lateness beyond this marks the run invalid
LATENESS_BOUND_MS = 10.0
#: post-shift requests whose served rankings are graded against truth
TAU_PROBES = 128
#: requests per wave of a promotion episode
WAVE = 24
#: measured feedback records the loop keeps (and retrains from)
MEASURED_WINDOW = 192
MAX_EPISODE_WAVES = 60
#: untimed retrain→promote episodes between two cycles
EPISODES_PER_CYCLE = 2
TRACE_SAMPLE_RATE = 0.25
#: span ring of the traced cluster: holds one cycle's spans at hot rates
TRACE_RING = 1 << 17
#: seed of the simulated machine that grades answers (fixed: truth is
#: part of the benchmark, not of the generated traffic)
TRUTH_SEED = 11

#: per workload: open-loop rate (1/s, about 30% of the cold fleet's
#: capacity, a fifth of the hot one's), closed-loop window, and
#: closed-loop requests planned per second (more are drawn if they run out)
SPECS = {
    "hot-preset": {"rate": 1000.0, "window": 32, "closed_plan": 8000},
    "cold-preset": {"rate": 25.0, "window": 8, "closed_plan": 200},
}


@dataclass
class Fleet:
    """Everything set-up produces: the model, its registry and the cluster."""

    tuner: OrdinalAutotuner
    offline: TrainingSet
    registry: ModelRegistry
    root: str
    cluster: ServiceCluster


def fleet_size() -> int:
    """``nproc``: the cores this process may run on."""
    return len(os.sched_getaffinity(0))


def set_up(workload: str, seed: int, work_dir, trace: bool) -> Fleet:
    """Offline training, publish, fleet spawn and warm-up."""
    builder = TrainingSetBuilder(SimulatedMachine(seed=7), seed=7)
    offline = builder.build(OFFLINE_POINTS, kernels=family_kernels(PHASE1))
    tuner = OrdinalAutotuner().train(offline)
    root = tempfile.mkdtemp(dir=work_dir)
    registry = ModelRegistry(root)
    registry.publish(tuner.model, tuner.fingerprint(), tags=("prod",))
    cluster = ServiceCluster(
        root,
        n_workers=fleet_size(),
        default_model="prod",
        trace=(
            TraceConfig(sample_rate=TRACE_SAMPLE_RATE, ring_size=TRACE_RING)
            if trace
            else None
        ),
    ).start()
    fleet = Fleet(tuner, offline, registry, root, cluster)
    if workload == "hot-preset":
        warm = hot_pool()
    else:
        warm = ColdPopulation(seed).warm_instances(12)
    for out in drive.run_wave(cluster, [Request(q, None) for q in warm], "warm"):
        if not out.ok:
            tear_down(fleet)
            raise RuntimeError(f"warm-up request failed: {out.error}")
    return fleet


def tear_down(fleet: Fleet) -> None:
    fleet.cluster.stop()
    shutil.rmtree(fleet.root, ignore_errors=True)


def make_pipeline(fleet: Fleet) -> ContinualLearningPipeline:
    """The continual loop, fed by hand so record order is deterministic.

    A high τ threshold makes the loop retrain on post-shift traffic; a
    bounded measured window keeps each retrain's work comparable; the
    policy promotes every retrain with enough held-out records — the
    benchmark times promotion, not the gate's judgement.
    """
    tuner = fleet.tuner
    collector = FeedbackCollector(
        BudgetedMachine(SimulatedMachine(seed=TRUTH_SEED)),
        probe_size=16,
        probe_mode="uniform",
        dedupe=False,
        max_measured=MEASURED_WINDOW,
    )
    return ContinualLearningPipeline(
        service=fleet.cluster,
        collector=collector,
        monitor=DriftMonitor(
            tuner.encoder, window=48, tau_threshold=0.9, shift_threshold=1.2
        ).fit_reference(fleet.offline),
        trainer=IncrementalTrainer(fleet.offline, tuner.encoder, max_feedback=128),
        evaluator=ShadowEvaluator(tuner.encoder),
        policy=PromotionPolicy(
            fleet.registry, tag="prod", min_records=4, min_improvement=-2.0
        ),
        config=ContinualConfig(
            measure_per_step=16,
            min_feedback_to_train=16,
            retrain_cooldown_steps=6,
            gc_keep_last=None,
        ),
    )


def _owned(response) -> types.SimpleNamespace:
    """A scores-owning stand-in for a response, whose slab slot is released."""
    scored = types.SimpleNamespace(
        scores=np.array(response.scores), model_version=response.model_version
    )
    response.release()
    return scored


class Promotions:
    """Runs retrain→shadow→promote episodes and times each to visibility.

    A promotion is visible once every alive worker has answered a fresh
    request from the new version; probe requests come from a pool made
    up front, so generating them is not timed.  With ``timers`` (traced
    runs) every pipeline's trainer, evaluator, collector and policy calls
    are timed.
    """

    def __init__(self, fleet: Fleet, seed: int, timers: "dict[str, CallTimer]") -> None:
        self.fleet, self.seed, self.timers = fleet, seed, timers
        self.episodes: list[dict] = []
        self.outcomes: list[drive.Outcome] = []
        self._probes = itertools.cycle(post_shift_requests(seed, 200_000, 256))
        self._episode_start = 0

    def _new_pipeline(self) -> ContinualLearningPipeline:
        pipeline = make_pipeline(self.fleet)
        if self.timers:
            self.timers["train"].wrap(pipeline.trainer, "train")
            self.timers["evaluate"].wrap(pipeline.evaluator, "evaluate")
            self.timers["measure"].wrap(pipeline.collector, "measure_pending")
            self.timers["consider"].wrap(pipeline.policy, "consider")
        return pipeline

    def _visibility(self, version: str) -> "list[drive.Outcome]":
        cluster = self.fleet.cluster
        outcomes: list[drive.Outcome] = []
        pending = set(cluster.alive_workers())
        for _ in range(16):
            chosen: dict[int, Request] = {}
            for req in itertools.islice(self._probes, 256):
                worker = cluster.router.route(instance_hash(req.instance))
                if worker in pending and worker not in chosen:
                    chosen[worker] = req
            outs = drive.run_wave(cluster, list(chosen.values()), "visible")
            for worker, out in zip(chosen, outs):
                if out.ok:
                    if out.version == version:
                        pending.discard(worker)
                    out.response.release()
            outcomes += outs
            if not pending:
                return outcomes
        raise RuntimeError(f"workers {sorted(pending)} never served {version}")

    def episode(self) -> None:
        """A fresh loop fed post-shift waves by hand until it promotes."""
        pipeline = self._new_pipeline()
        for _ in range(MAX_EPISODE_WAVES):
            outs = drive.run_wave(
                self.fleet.cluster,
                post_shift_requests(self.seed, self._episode_start, WAVE),
                "episode",
            )
            self._episode_start += WAVE
            self.outcomes += outs
            for out in outs:
                if out.ok:
                    pipeline.collector.hook(
                        out.req.instance, out.req.candidates, _owned(out.response)
                    )
            t0 = time.perf_counter()
            pipeline.step()
            if pipeline.promotion_count:
                break
        else:
            raise RuntimeError("no promotion within the episode")
        version = self.fleet.registry.resolve("prod")
        outs = self._visibility(version)
        self.outcomes += outs
        visible = max(o.done for o in outs)
        episode = {"version": version, "retrain_promote_s": visible - t0}
        if self.timers:  # from the tag move to the last worker's answer
            episode["visible_ms"] = 1e3 * (visible - self.timers["consider"].ends[-1])
        self.episodes.append(episode)


def tau_post_shift(fleet: Fleet, seed: int) -> "tuple[float, list[drive.Outcome]]":
    """Mean Kendall τ of served rankings against truth on post-shift probes."""
    outs = drive.run_wave(
        fleet.cluster, post_shift_requests(seed, 100_000, TAU_PROBES), "tau"
    )
    machine = SimulatedMachine(seed=TRUTH_SEED)
    taus = []
    for out in outs:
        if out.ok:
            truth = machine.true_times_batch(out.req.instance, out.req.candidates)
            taus.append(kendall_tau(-np.asarray(out.response.scores), truth))
            out.response.release()
    return float(np.mean(taus)) if taus else float("nan"), outs


def planned(first: list, more) -> Iterator:
    """The pre-generated requests, then ``more(n)`` batches if they run out."""
    yield from first
    while True:
        yield from more(256)


def plan(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    """Every timed request, generated before the window from the seed.

    The window is ``SEGMENTS`` cycles of an open-loop part then a
    closed-loop part, so both phases sample the whole window.  Each
    cycle's open-loop traffic is a [(offset_s, request)] schedule.
    """
    open_s = OPEN_SHARE * seconds / SEGMENTS
    closed_s = (1.0 - OPEN_SHARE) * seconds / SEGMENTS
    closed_n = int(spec["closed_plan"] * closed_s * SEGMENTS)
    rng = np.random.default_rng([seed, 1])
    if workload == "hot-preset":
        take = lambda n: hot_requests(rng, n)  # noqa: E731
    else:
        population = ColdPopulation(seed)
        take = lambda n: population.requests(rng, n)  # noqa: E731
    cycles = []
    for _ in range(SEGMENTS):
        times = poisson_times(rng, spec["rate"], open_s)
        cycles.append(list(zip(times, take(len(times)))))
    return {
        "cycles": cycles,
        # the hot working set, asked again after each promotion
        "rewarm": [Request(q, None) for q in hot_pool()] if workload == "hot-preset" else [],
        "digest": stream_digest([item for schedule in cycles for item in schedule]),
        "closed": planned(take(closed_n), take),
        "closed_s": closed_s,
    }


@dataclass
class Cycle:
    """One open-loop part then one closed-loop part of the window."""

    open_rows: "tuple[int, int]"
    closed_rows: "tuple[int, int]"
    closed_t0: float
    #: (coordinator, workers) CPU seconds at the cycle's start and end
    cpu0: "tuple[float, float]"
    cpu1: "tuple[float, float]"
    #: host steal ticks (all CPUs) during the cycle
    steal: int
    #: cluster stats at the cycle's start and end, so counters leave out
    #: the promotion traffic between cycles
    stats: "tuple[dict, dict]"


class CycleTrace:
    """The traced run's spans and route calls, kept for the cycles only.

    Both are drained at each cycle's start (dropping what the promotion
    episodes and probes between cycles recorded) and at its end (keeping
    what the cycle's own traffic recorded).
    """

    def __init__(self, cluster: ServiceCluster) -> None:
        self.recorder = cluster.tracer.recorder
        self.router = CallTimer()
        self.router.wrap(cluster.router, "route")
        self.spans: list = []
        self.route_s: list[float] = []

    def begin(self) -> None:
        self.recorder.drain()
        self.router.take()

    def end(self) -> None:
        self.spans += self.recorder.drain()
        self.route_s += self.router.take()


def serve(fleet, promotions, traffic: dict, spec: dict, trace: "CycleTrace | None"):
    """The timed window: per cycle, an open-loop part then a closed loop.

    Promotion episodes run between cycles.  Returns the request log and
    the cycles.
    """
    cluster = fleet.cluster
    log = drive.Log()
    cycles: list[Cycle] = []
    for schedule in traffic["cycles"]:
        if trace is not None:
            trace.begin()
        stats0 = cluster.stats()
        cpu0, steal0 = drive.cpu_seconds(cluster), drive.steal_ticks()
        open_rows = drive.open_loop(cluster, log, schedule)
        closed_rows, t0 = drive.closed_loop(
            cluster, log, traffic["closed"], spec["window"], traffic["closed_s"]
        )
        cpu1, steal1 = drive.cpu_seconds(cluster), drive.steal_ticks()
        cycles.append(
            Cycle(open_rows, closed_rows, t0, cpu0, cpu1, steal1 - steal0,
                  (stats0, cluster.stats()))
        )
        if trace is not None:
            trace.end()
        # untimed, between cycles: retrain→promote episodes on a fleet
        # still warm from serving, then the new version's ranking cache is
        # refilled so cycles start alike
        for _ in range(EPISODES_PER_CYCLE):
            promotions.episode()
        promotions.outcomes += drive.run_wave(cluster, traffic["rewarm"], "rewarm")
    return log, cycles


def cycle_metrics(timed: "list[drive.Outcome]", cycles, closed_s: float) -> dict:
    """Per-cycle open-loop latency, throughput and CPU cost."""
    rows = {"p50_ms": [], "p95_ms": [], "sat_rps": [], "coord_ms": [], "worker_ms": []}
    for c in cycles:
        opened = [o for o in timed[slice(*c.open_rows)] if o.ok]
        closed = [o for o in timed[slice(*c.closed_rows)] if o.ok]
        latencies = [1e3 * o.latency_s for o in opened]
        if latencies:  # a short run's cycle may see no arrival
            rows["p50_ms"].append(float(np.median(latencies)))
            rows["p95_ms"].append(float(np.percentile(latencies, 95)))
        rows["sat_rps"].append(
            sum(o.done - c.closed_t0 <= closed_s for o in closed) / closed_s
        )
        answered = len(opened) + len(closed)
        rows["coord_ms"].append(1e3 * (c.cpu1[0] - c.cpu0[0]) / answered)
        rows["worker_ms"].append(1e3 * (c.cpu1[1] - c.cpu0[1]) / answered)
    return rows


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)


def counters(cycles: "list[Cycle]") -> dict:
    """Cluster counters summed over the cycles' (before, after) stats."""
    out = dict.fromkeys(
        ("cache_hits", "cache_misses", "encode_cache_hits", "encode_cache_misses",
         "batches_total", "batched", "retries_scheduled", "degraded_served"),
        0.0,
    )
    for c in cycles:
        before, after = c.stats
        b, a = before["cluster"], after["cluster"]
        for key in ("cache_hits", "cache_misses", "encode_cache_hits",
                    "encode_cache_misses", "batches_total"):
            out[key] += _delta(a, b, key)
        out["batched"] += a.get("mean_batch_size", 0) * a.get("batches_total", 0) - b.get(
            "mean_batch_size", 0
        ) * b.get("batches_total", 0)
        for key in ("retries_scheduled", "degraded_served"):
            out[key] += _delta(after["resilience"], before["resilience"], key)
    return out


def encode_score_s(spans) -> float:
    """Worker time in encode and score passes, from the workers' own spans.

    A pass serves a fused slab of requests, and every traced request in it
    records the whole pass; each is charged its own rows' share of the
    slab, and the sum is scaled up by the sampling rate.
    """
    share = {
        s.trace_id: s.attrs["rows"] / s.attrs["slab_rows"]
        for s in spans
        if s.name == "encode" and s.attrs and s.attrs.get("slab_rows")
    }
    charged = sum(
        s.duration_s * share[s.trace_id]
        for s in spans
        if s.name in ("encode", "score") and s.trace_id in share
    )
    return charged / TRACE_SAMPLE_RATE


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir) -> dict:
    """Set up ``SETUP_REPS`` times, keep the last fleet, measure, tear down."""
    spec = SPECS[workload]
    setup_times: list[float] = []
    fleet = None
    for _ in range(SETUP_REPS):
        if fleet is not None:
            tear_down(fleet)
        t0 = time.perf_counter()
        fleet = set_up(workload, seed, work_dir, trace)
        setup_times.append(time.perf_counter() - t0)
    try:
        return measure(fleet, workload, seed, seconds, trace, spec, work_dir, setup_times)
    finally:
        tear_down(fleet)


def measure(fleet, workload, seed, seconds, trace, spec, work_dir, setup_times) -> dict:
    cluster = fleet.cluster
    timers: dict[str, CallTimer] = {}
    cycle_trace = None
    if trace:
        timers = {name: CallTimer() for name in ("train", "evaluate", "measure", "consider")}
        cycle_trace = CycleTrace(cluster)
    promotions = Promotions(fleet, seed, timers)

    traffic = plan(workload, seed, seconds, spec)
    # set-up objects (preset lists, corpora, models, the planned traffic)
    # leave the cyclic collector's view: collection pauses in the window
    # then scale with what serving allocates, not with what set-up made
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    log, cycles = serve(fleet, promotions, traffic, spec, cycle_trace)
    window_s = time.perf_counter() - t0
    rss = drive.rss_mb(cluster)

    # -- off the clock: quality probes, layer probes, oracle -------------------
    tau, tau_outs = tau_post_shift(fleet, seed)
    layer_values = probe_layers(fleet, seed, work_dir) if trace else {}
    if trace:
        cycle_trace.router.restore()
    for timer in timers.values():
        timer.restore()

    timed = log.outcomes()
    open_outs = [o for o in timed if o.phase == "open"]
    closed_outs = [o for o in timed if o.phase == "closed"]
    outcomes = timed + promotions.outcomes + tau_outs
    oracle = Oracle(fleet.registry, fleet.tuner.encoder)
    errors = [o for o in outcomes if not o.ok]
    mismatches = [o for o in outcomes if o.ok and not oracle.check(o)]
    failed = len(errors) + len(mismatches)

    cycle_rows = cycle_metrics(timed, cycles, traffic["closed_s"])
    per_cycle = {name: statistics.median(v) for name, v in cycle_rows.items()}
    late_p99 = float(np.percentile([1e3 * (o.sent - o.due) for o in open_outs], 99))
    valid = late_p99 <= LATENESS_BOUND_MS
    beyond = sum(1e3 * o.latency_s > per_cycle["p95_ms"] for o in open_outs if o.ok)
    worker_cpu = sum(c.cpu1[1] - c.cpu0[1] for c in cycles)
    repeat_share = 1.0 - len({o.req.key() for o in timed}) / len(timed)
    setup_s = statistics.median(setup_times)

    count = counters(cycles)
    hits, misses = count["cache_hits"], count["cache_misses"]
    enc_hits, enc_misses = count["encode_cache_hits"], count["encode_cache_misses"]
    spans = cycle_trace.spans if trace else []
    stages = stage_breakdown(spans) if trace else None

    if not trace:
        values = {
            "setup_s": setup_s,
            "p50_ms": per_cycle["p50_ms"],
            "p95_ms": per_cycle["p95_ms"],
            "sat_rps": per_cycle["sat_rps"],
            "cpu_ms_per_req": per_cycle["coord_ms"] + per_cycle["worker_ms"],
            "rss_mb": rss,
            "retrain_promote_s": statistics.median(
                e["retrain_promote_s"] for e in promotions.episodes
            ),
            "tau_post_shift": tau,
        }
        kind = "end_to_end"
    else:
        stage_ms = lambda name: stages["stages"].get(name, {}).get("mean_ms", 0.0)  # noqa: E731
        values = {
            **layer_values,
            "cache.hit_ratio": _ratio(hits, hits + misses),
            "cache.encode_hit_ratio": _ratio(enc_hits, enc_hits + enc_misses),
            "batch.mean_size": _ratio(count["batched"], count["batches_total"]),
            "routing.route_us": 1e6 * statistics.median(cycle_trace.route_s),
            "cluster.submit_us": 1e6 * statistics.median(o.submit_s for o in timed),
            "cluster.coord_cpu_ms_per_req": per_cycle["coord_ms"],
            "cluster.worker_cpu_ms_per_req": per_cycle["worker_ms"],
            "cluster.retries": count["retries_scheduled"],
            "cluster.degraded": count["degraded_served"],
            "worker.encode_score_share": _ratio(encode_score_s(spans), worker_cpu),
            "trainer.retrain_s": timers["train"].median(),
            "shadow.eval_ms": timers["evaluate"].median(1e3),
            "promotion.visible_ms": statistics.median(
                e["visible_ms"] for e in promotions.episodes
            ),
            "feedback.measure_ms": timers["measure"].median(1e3),
            "stage.dispatch_ms": stage_ms("dispatch"),
            "stage.worker_ingress_ms": stage_ms("worker-ingress"),
            "stage.reply_egress_ms": stage_ms("reply-egress"),
            "trace.coverage": stages["coverage_mean"],
            "traced.p50_ms": per_cycle["p50_ms"],
            "traced.sat_rps": per_cycle["sat_rps"],
        }
        kind = "per_layer"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC_FILE.read_text())[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    report = [
        f"workload {workload}  seed {seed}  n_workers {cluster.n_workers}  "
        f"cpu_count {os.cpu_count()}  seconds {seconds}  trace {int(trace)}",
        f"stream digest {traffic['digest']}  open-loop {len(open_outs)} requests "
        f"at {spec['rate']:g}/s  closed-loop {len(closed_outs)} requests, "
        f"window {spec['window']}",
        f"window {window_s:.2f} s  setup median {setup_s:.3f} s of {SETUP_REPS}  "
        f"promotions {len(promotions.episodes)}",
        f"latency p50 {per_cycle['p50_ms']:.3f} ms  p95 {per_cycle['p95_ms']:.3f} ms "
        f"(medians of {SEGMENTS} cycles; {beyond} of {len(open_outs)} open-loop "
        f"samples beyond p95)  "
        f"generator lateness p99 {late_p99:.3f} ms (bound {LATENESS_BOUND_MS} ms) "
        f"-> {'valid' if valid else 'INVALID'}",
        f"cache hit ratio {_ratio(hits, hits + misses):.4f}  repeat share "
        f"{repeat_share:.4f}  encode-cache hits {enc_hits:.0f}",
        f"error_rate {_ratio(failed, len(outcomes)):.6f}  attempted {len(outcomes)} "
        f"failed {failed} (errors {len(errors)}, oracle mismatches {len(mismatches)})",
    ] + [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "n_workers": cluster.n_workers,
        "stream_digest": traffic["digest"],
        "valid": valid,
        "generator_lateness_p99_ms": late_p99,
        "open_loop_samples": len(open_outs),
        "p95_samples_beyond": beyond,
        "repeat_share": repeat_share,
        "setup_times_s": setup_times,
        "promotions": promotions.episodes,
        "errors": [o.error for o in errors][:20],
        "stage_breakdown": stages,
        "cycles": {**cycle_rows, "steal_ticks": [c.steal for c in cycles]},
        "report": report,
        "result": {
            # a run whose generator fell behind its schedule did not send
            # the open-loop traffic it claims: its latencies are not valid
            "correct": failed == 0 and valid,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": metrics,
        },
    }
