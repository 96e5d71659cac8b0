"""The simulated machine: measurement front-end over the cost model.

:class:`SimulatedMachine` is the single entry point every other component
uses to "run" a stencil variant.  It mirrors how the paper's testbed is
used by the autotuners:

* ``measure()`` performs a full autotuning **evaluation** — several timed
  runs of one compiled variant — returning the median; it increments the
  evaluation counter that search budgets are charged against;
* ``measure_batch()`` / ``true_times_batch()`` evaluate *n* tunings of one
  instance through the vectorized cost pipeline
  (:meth:`~repro.machine.cost.CostModel.sweep_costs_batch`) — one NumPy
  pass instead of ``n`` scalar model walks.  Budgets are charged
  identically to ``n`` scalar calls (``evaluations += n``, per-execution
  wall-clock accrued), and noise is drawn from the same per-(execution,
  repeat) streams, so batch and scalar measurements are interchangeable;
* ``wall_clock_cost()`` returns the simulated wall-clock seconds such an
  evaluation would have consumed on the real machine (process setup plus
  the timed sweeps), which feeds the time-to-solution accounting of Fig. 5
  and Table II;
* noise-free "true" times are available for analysis (``true_time``) so
  ranking quality can be evaluated against ground truth.

**When to use scalar vs. batch**: anything that evaluates one variant at a
time (interactive inspection, one-off probes) uses the
scalar calls; anything holding a population, candidate set or training
corpus for one instance should use the batch calls — training-set
generation, preset ranking and the population-based searches all do.

**Caching semantics**: sweep costs are cached per execution *stable hash*
(64-bit, process-stable) — the cost model is deterministic, so repeated
queries are free, mirroring how a real harness caches binaries.  Scalar
and batch paths share the caches: a time computed by either path is
returned verbatim by the other, so mixed usage stays exactly consistent.
The cache is FIFO-bounded (``max_cache_entries``) so corpus-scale training
runs cannot grow it without bound; evicted entries are simply recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.machine.cost import CostModel, SweepCost
from repro.machine.noise import NoiseModel
from repro.machine.spec import MachineSpec, XEON_E5_2680_V3
from repro.stencil.execution import StencilExecution, execution_hashes
from repro.stencil.instance import StencilInstance
from repro.tuning.vector import TuningVector

__all__ = ["BatchMeasurement", "FifoCache", "Measurement", "SimulatedMachine"]


class FifoCache:
    """A dict-backed cache with optional max-entries FIFO eviction.

    Python dicts preserve insertion order, so the oldest entry is simply
    the first key.  ``max_entries=None`` means unbounded.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: dict = {}

    def get(self, key, default=None):
        return self._data.get(key, default)

    def put(self, key, value) -> None:
        if key in self._data:
            self._data[key] = value
            return
        if self.max_entries is not None and len(self._data) >= self.max_entries:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class Measurement:
    """Result of one autotuning evaluation (several timed runs)."""

    execution: StencilExecution
    times: tuple[float, ...]

    @property
    def time(self) -> float:
        """Median run time in seconds — the value autotuners compare."""
        return float(np.median(self.times))

    @property
    def best(self) -> float:
        """Fastest observed run."""
        return float(min(self.times))

    @property
    def gflops(self) -> float:
        """Sustained GFlop/s at the median time."""
        return self.execution.instance.flops / self.time / 1e9

    def __repr__(self) -> str:
        return (
            f"Measurement({self.execution.instance.label()}, "
            f"t={self.time * 1e3:.3f}ms, {self.gflops:.2f} GFlop/s)"
        )


@dataclass(frozen=True)
class BatchMeasurement:
    """Result of ``n`` autotuning evaluations of one instance.

    ``times`` is an ``(n, repeats)`` array; row ``i`` holds the timed runs
    of ``tunings[i]`` and matches what ``n`` scalar :class:`Measurement`
    calls would have observed.
    """

    instance: StencilInstance
    tunings: tuple[TuningVector, ...]
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.tunings)

    @property
    def medians(self) -> np.ndarray:
        """Median run time per tuning — what autotuners compare."""
        return np.median(self.times, axis=1)

    @property
    def best(self) -> np.ndarray:
        """Fastest observed run per tuning."""
        return self.times.min(axis=1)

    @property
    def gflops(self) -> np.ndarray:
        """Sustained GFlop/s per tuning at the median time."""
        return self.instance.flops / self.medians / 1e9

    def measurements(self) -> Iterator[Measurement]:
        """Scalar :class:`Measurement` views (compat with scalar consumers)."""
        for tuning, row in zip(self.tunings, self.times):
            yield Measurement(
                StencilExecution(self.instance, tuning),
                tuple(float(t) for t in row),
            )

    def __repr__(self) -> str:
        return (
            f"BatchMeasurement({self.instance.label()}, n={len(self.tunings)}, "
            f"repeats={self.times.shape[1] if self.times.size else 0})"
        )


class SimulatedMachine:
    """Measurement provider shared by training, search and experiments."""

    #: fixed per-evaluation process/setup overhead on the simulated testbed
    SETUP_SECONDS = 0.05
    #: timed sweeps per run (kernels are run repeatedly and averaged)
    SWEEPS_PER_RUN = 5
    #: default FIFO bound on the cost caches (corpus-scale training stays
    #: far below this; the cap only exists so long-lived machines cannot
    #: grow without bound)
    DEFAULT_CACHE_ENTRIES = 262_144

    def __init__(
        self,
        spec: MachineSpec = XEON_E5_2680_V3,
        noise: NoiseModel | None = None,
        seed: int = 0,
        max_cache_entries: int | None = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        self.spec = spec
        self.noise = NoiseModel(seed=seed) if noise is None else noise
        self.cost_model = CostModel(spec)
        #: stable_hash -> SweepCost (scalar path's full breakdowns)
        self._cost_cache = FifoCache(max_cache_entries)
        #: stable_hash -> total_s (shared by scalar and batch paths)
        self._time_cache = FifoCache(max_cache_entries)
        self.evaluations = 0
        self.simulated_wall_s = 0.0

    # -- core measurement API ------------------------------------------------

    def sweep_cost(self, execution: StencilExecution) -> SweepCost:
        """Cached noise-free cost breakdown."""
        key = execution.stable_hash()
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self.cost_model.sweep_cost(execution)
            self._cost_cache.put(key, cost)
            self._time_cache.put(key, cost.total_s)
        return cost

    def true_time(self, execution: StencilExecution) -> float:
        """Noise-free seconds per sweep (ground truth for rank evaluation)."""
        t = self._time_cache.get(execution.stable_hash())
        if t is not None:
            return t
        return self.sweep_cost(execution).total_s

    def run_time(self, execution: StencilExecution, repeat: int = 0) -> float:
        """One noisy run (does not charge the evaluation budget)."""
        base = self.true_time(execution)
        return base * self.noise.factor(execution.stable_hash(), repeat)

    def measure(self, execution: StencilExecution, repeats: int = 3) -> Measurement:
        """One autotuning evaluation: ``repeats`` timed runs, median reported.

        Charges one unit of evaluation budget and accumulates the simulated
        wall-clock the evaluation would have cost on the real testbed.
        """
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        times = tuple(self.run_time(execution, r) for r in range(repeats))
        self.evaluations += 1
        self.simulated_wall_s += self.wall_clock_cost(execution, repeats)
        return Measurement(execution, times)

    def measure_tuning(
        self,
        instance: StencilInstance,
        tuning: TuningVector,
        repeats: int = 3,
    ) -> Measurement:
        """Convenience: measure ``instance`` under ``tuning``."""
        return self.measure(StencilExecution(instance, tuning), repeats)

    def wall_clock_cost(self, execution: StencilExecution, repeats: int = 3) -> float:
        """Simulated testbed seconds for one evaluation of ``execution``."""
        per_run = self.true_time(execution) * self.SWEEPS_PER_RUN
        return self.SETUP_SECONDS + repeats * per_run

    # -- batch measurement API -------------------------------------------------

    def true_times_batch(
        self,
        instance: StencilInstance,
        tunings: Sequence[TuningVector],
        hashes: "Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Noise-free times for ``n`` tunings of one instance, one model pass.

        Cache-aware per tuning: hits (from either the scalar or a previous
        batch path) are returned verbatim; only the misses go through the
        vectorized cost model, and their times are cached for both paths.
        """
        if hashes is None:
            hashes = execution_hashes(instance, tunings)
        out = np.empty(len(tunings))
        missing: list[int] = []
        for i, h in enumerate(hashes):
            t = self._time_cache.get(h)
            if t is None:
                cost = self._cost_cache.get(h)
                t = None if cost is None else cost.total_s
            if t is None:
                missing.append(i)
            else:
                out[i] = t
        if missing:
            batch = self.cost_model.sweep_costs_batch(
                instance, [tunings[i] for i in missing]
            )
            for i, total in zip(missing, batch.total_s):
                t = float(total)
                out[i] = t
                self._time_cache.put(hashes[i], t)
        return out

    def measure_batch(
        self,
        instance: StencilInstance,
        tunings: Sequence[TuningVector],
        repeats: int = 3,
        hashes: "Sequence[int] | None" = None,
    ) -> BatchMeasurement:
        """``n`` autotuning evaluations in one vectorized pass.

        Budgets are charged exactly as ``n`` scalar :meth:`measure` calls:
        ``evaluations`` grows by ``n`` and the simulated wall-clock accrues
        setup plus timed sweeps per execution.  Noise is seeded per
        (execution hash, repeat), so ``times[i]`` equals the scalar
        measurement of ``tunings[i]``.  ``hashes`` may carry precomputed
        :func:`execution_hashes` to avoid re-digesting in hot loops.
        """
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if hashes is None:
            hashes = execution_hashes(instance, tunings)
        base = self.true_times_batch(instance, tunings, hashes=hashes)
        factors = self.noise.factors(hashes, repeats)
        times = base[:, np.newaxis] * factors
        self.evaluations += len(tunings)
        per_run = base * self.SWEEPS_PER_RUN
        self.simulated_wall_s += float(
            np.sum(self.SETUP_SECONDS + repeats * per_run)
        )
        return BatchMeasurement(instance, tuple(tunings), times)

    def wall_clock_costs(
        self,
        instance: StencilInstance,
        tunings: Sequence[TuningVector],
        repeats: int = 3,
        hashes: "Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Per-execution simulated testbed seconds for a batch of tunings."""
        per_run = (
            self.true_times_batch(instance, tunings, hashes=hashes)
            * self.SWEEPS_PER_RUN
        )
        return self.SETUP_SECONDS + repeats * per_run

    # -- derived conveniences --------------------------------------------------

    def gflops(self, execution: StencilExecution) -> float:
        """Noise-free sustained GFlop/s."""
        return execution.instance.flops / self.true_time(execution) / 1e9

    def true_times(
        self, instance: StencilInstance, tunings: Sequence[TuningVector]
    ) -> np.ndarray:
        """Vector of noise-free times for many tunings of one instance."""
        return self.true_times_batch(instance, list(tunings))

    def best_tuning(
        self, instance: StencilInstance, tunings: Sequence[TuningVector]
    ) -> tuple[TuningVector, float]:
        """Ground-truth best tuning among candidates (oracle, for analysis)."""
        times = self.true_times(instance, tunings)
        idx = int(np.argmin(times))
        return tunings[idx], float(times[idx])

    # -- budget accounting -------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the evaluation counter and simulated wall clock."""
        self.evaluations = 0
        self.simulated_wall_s = 0.0

    def fork(self) -> "SimulatedMachine":
        """A fresh machine sharing spec/noise but with independent counters.

        Search-method comparisons give each algorithm its own fork so budget
        accounting never leaks between competitors, while the underlying
        deterministic timings stay identical (the cost caches are shared —
        the model is deterministic, so sharing is safe).
        """
        clone = SimulatedMachine(self.spec, self.noise)
        clone._cost_cache = self._cost_cache  # deterministic → shareable
        clone._time_cache = self._time_cache
        return clone

    def __repr__(self) -> str:
        return (
            f"SimulatedMachine({self.spec.name!r}, evaluations={self.evaluations})"
        )
