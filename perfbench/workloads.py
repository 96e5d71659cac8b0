"""Seeded request streams for the serving workloads.

Everything the program under test receives is generated here from the
``--seed`` argument: instances, candidate sets, arrival times and the
closed-loop request order.  The program sees only these inputs.

``Request`` is one ranking query as the benchmark submits it.  Preset
requests carry ``candidates=None`` (the worker uses its own preset set,
nothing preset-sized crosses the wire) and remember their dimensionality
so the oracle can rebuild the identical list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.online import DriftingWorkload
from repro.service.cache import candidate_set_hash
from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.stencil.kernel import StencilKernel
from repro.stencil.shapes import TRAINING_SHAPES
from repro.stencil.suite import TEST_BENCHMARKS

TOP_K = 8
#: the offline corpus covers these families; the post-shift traffic that
#: drives retraining (and grades it) comes from PHASE2
PHASE1 = ("line", "laplacian")
PHASE2 = ("hypercube", "hyperplane")
#: distinct instances the cold workload draws from, and its Zipf exponent:
#: with ~1k draws per run most requests are first touches
COLD_POPULATION = 50_000
COLD_ZIPF_S = 0.8


@dataclass(frozen=True)
class Request:
    """One ranking query: instance, explicit candidates or presets, top-k."""

    instance: StencilInstance
    #: explicit candidate list, or None for the worker's preset set
    candidates: "list | None"
    top_k: "int | None" = TOP_K
    include_scores: bool = False

    def key(self) -> str:
        """Content digest of the query (instance, candidate set, shape)."""
        cands = (
            f"preset{self.instance.dims}"
            if self.candidates is None
            else str(candidate_set_hash(self.candidates))
        )
        return f"{instance_hash(self.instance)}:{cands}:{self.top_k}:{int(self.include_scores)}"


def stream_digest(schedule: "list[tuple[float, Request]]") -> str:
    """sha256 over (due time in µs, query digest) of a planned schedule."""
    h = hashlib.sha256()
    for due, req in schedule:
        h.update(f"{round(due * 1e6)}|{req.key()}\n".encode())
    return h.hexdigest()[:16]


def poisson_times(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate``/s over ``duration`` s."""
    n = int(rate * duration * 1.5) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return times[times < duration]


# -- hot-preset -----------------------------------------------------------------


def hot_pool() -> list[StencilInstance]:
    """The 16 Fig. 4 instances every hot request is drawn from."""
    return list(TEST_BENCHMARKS[:16])


def hot_requests(rng: np.random.Generator, n: int) -> list[Request]:
    pool = hot_pool()
    return [Request(pool[int(i)], None) for i in rng.integers(len(pool), size=n)]


# -- cold-preset ----------------------------------------------------------------


def cold_instance(seed: int, k: int) -> StencilInstance:
    """Population member ``k``: a distinct instance, one quarter of them 2-D."""
    rng = np.random.default_rng([seed, 0xC01D, k])
    families = sorted(TRAINING_SHAPES)
    family = families[int(rng.integers(len(families)))]
    dims = 2 if rng.random() < 0.25 else 3
    radius = int(rng.integers(1, 4))
    dtype = ("float", "double")[int(rng.integers(2))]
    kernel = StencilKernel(
        f"{family}-cold-{dims}d-r{radius}-{dtype}",
        (TRAINING_SHAPES[family](dims, radius),),
        dtype=dtype,
        space_dims=dims,
    )
    if dims == 3:
        size = tuple(int(v) for v in 16 + 4 * rng.integers(0, 124, size=3))
    else:
        size = (*(int(v) for v in 64 + 16 * rng.integers(0, 252, size=2)), 1)
    return StencilInstance(kernel, size)


class ColdPopulation:
    """Zipf draws over a large seeded population of distinct instances."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        weights = 1.0 / np.arange(1, COLD_POPULATION + 1) ** COLD_ZIPF_S
        self._cdf = np.cumsum(weights / weights.sum())
        self._memo: dict[int, StencilInstance] = {}

    def instance(self, k: int) -> StencilInstance:
        if k not in self._memo:
            self._memo[k] = cold_instance(self.seed, k)
        return self._memo[k]

    def requests(self, rng: np.random.Generator, n: int) -> list[Request]:
        ranks = np.searchsorted(self._cdf, rng.random(n), side="right")
        ranks = np.minimum(ranks, COLD_POPULATION - 1)
        return [Request(self.instance(int(k)), None) for k in ranks]

    def warm_instances(self, count: int) -> list[StencilInstance]:
        """Members past the Zipf population: never drawn by timed traffic."""
        return [self.instance(COLD_POPULATION + i) for i in range(count)]


# -- promotion episodes and quality probes --------------------------------------


def post_shift_requests(seed: int, start: int, n: int) -> list[Request]:
    """Phase-2 drift requests with scores (episode feedback and τ probes)."""
    workload = DriftingWorkload(shift_at=0, phase1=PHASE1, phase2=PHASE2, seed=seed)
    return [
        Request(q, c, top_k=None, include_scores=True)
        for q, c in (workload.request(i) for i in range(start, start + n))
    ]
