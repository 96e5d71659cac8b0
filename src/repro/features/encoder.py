"""The stencil-execution feature encoder (paper §III).

Layout of the encoded vector (all components in ``[0, 1]``):

1. **Pattern block** (optional, ``(2R+1)³`` entries, default R = 3 → 343):
   the dense access-count matrix, counts normalized by the maximum count.
   2-D patterns occupy the central z-plane, exactly as the paper maps both
   dimensionalities into one space.
2. **Instance scalars** (9): dimensionality flag, buffer count, dtype flag,
   log-normalized sizes, radius, distinct points, reads per point.
3. **Tuning block** (19): log-normalized block sizes, linear unroll, log
   chunk, log block volume, per-axis block/size fit ratios, no-unroll flag,
   plus *squared* block/unroll/chunk/volume terms and block-product cross
   terms.  The quadratic basis matters: a linear scorer over monotone
   features can only prefer the smallest or largest block, while real
   blocking landscapes have interior optima — ``a·by + b·by²`` can place a
   peak anywhere.
4. **Interaction block** (optional, 19 × 14 = 266): outer product of the
   tuning block with a compact instance descriptor.  Products of ``[0, 1]``
   features stay in ``[0, 1]``.

Batch encoding is vectorized: the per-instance parts are computed once and
broadcast, so ranking 8640 candidate tunings costs one numpy pass (this is
what makes model-based ranking "less than 1 ms per query" — Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.features.normalize import lin_norm, log_norm
from repro.stencil.execution import StencilExecution
from repro.stencil.instance import StencilInstance
from repro.tuning.vector import TuningVector

__all__ = ["FeatureEncoder"]

# normalization bounds shared by all encoders (library-wide constants)
_SIZE_LO, _SIZE_HI = 16.0, 4096.0
_BLOCK_LO, _BLOCK_HI = 1.0, 1024.0
_VOLUME_LO, _VOLUME_HI = 1.0, 2.0**30
_UNROLL_HI = 8.0
_CHUNK_LO, _CHUNK_HI = 1.0, 16.0
_MAX_POINTS = 128.0
_MAX_READS = 128.0
_MAX_BUFFERS = 4.0
_MAX_RADIUS = 3.0


@dataclass(frozen=True)
class FeatureEncoder:
    """Encodes instances × tunings into feature matrices.

    >>> from repro.stencil import benchmark_by_id
    >>> from repro.tuning import TuningVector
    >>> enc = FeatureEncoder()
    >>> inst = benchmark_by_id("laplacian-128x128x128")
    >>> x = enc.encode(inst, TuningVector(64, 8, 8, 2, 1))
    >>> x.shape == (enc.num_features,)
    True
    >>> bool((x >= 0).all() and (x <= 1).all())
    True
    """

    max_radius: int = 3
    include_pattern: bool = True
    interactions: bool = True
    _pattern_cells: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.max_radius < 1:
            raise ValueError(f"max_radius must be >= 1, got {self.max_radius}")
        side = 2 * self.max_radius + 1
        object.__setattr__(
            self, "_pattern_cells", side**3 if self.include_pattern else 0
        )

    # -- layout ---------------------------------------------------------------

    N_INSTANCE = 9
    N_TUNING = 19
    N_DESCRIPTOR = 14

    @property
    def num_features(self) -> int:
        """Total encoded dimensionality."""
        n = self._pattern_cells + self.N_INSTANCE + self.N_TUNING
        if self.interactions:
            n += self.N_TUNING * self.N_DESCRIPTOR
        return n

    def fingerprint(self) -> str:
        """Stable id of the feature layout.

        Persisted with every trained model and training set so a model can
        never silently be paired with a mismatched encoder — the single
        source of truth for the id format (tuner, training builder, model
        registry and tuning service all delegate here).

        >>> FeatureEncoder().fingerprint()
        'r3-p1-i1-d637'
        """
        return (
            f"r{self.max_radius}-p{int(self.include_pattern)}-"
            f"i{int(self.interactions)}-d{self.num_features}"
        )

    def feature_names(self) -> list[str]:
        """Human-readable name per feature index (diagnostics, model dumps)."""
        names: list[str] = []
        r = self.max_radius
        if self.include_pattern:
            for dx in range(-r, r + 1):
                for dy in range(-r, r + 1):
                    for dz in range(-r, r + 1):
                        names.append(f"pat[{dx},{dy},{dz}]")
        names += [
            "inst.is3d",
            "inst.buffers",
            "inst.dtype",
            "inst.log_sx",
            "inst.log_sy",
            "inst.log_sz",
            "inst.radius",
            "inst.points",
            "inst.reads",
        ]
        tuning_names = [
            "tune.bx",
            "tune.by",
            "tune.bz",
            "tune.unroll",
            "tune.chunk",
            "tune.volume",
            "tune.fit_x",
            "tune.fit_y",
            "tune.fit_z",
            "tune.no_unroll",
            "tune.bx2",
            "tune.by2",
            "tune.bz2",
            "tune.unroll2",
            "tune.chunk2",
            "tune.volume2",
            "tune.bxby",
            "tune.bybz",
            "tune.bxbz",
        ]
        names += tuning_names
        if self.interactions:
            desc_names = [
                "one",
                "log_sx",
                "log_sy",
                "log_sz",
                "is3d",
                "radius",
                "points",
                "reads",
                "dtype",
                "buffers",
                "zplanes",
                "yplanes",
                "xspan",
                "mem_intensity",
            ]
            for t in tuning_names:
                for d in desc_names:
                    names.append(f"{t}*{d}")
        assert len(names) == self.num_features
        return names

    # -- per-part encoders ---------------------------------------------------

    def pattern_features(self, instance: StencilInstance) -> np.ndarray:
        """Dense normalized pattern block (empty if disabled)."""
        if not self.include_pattern:
            return np.empty(0)
        pattern = instance.kernel.pattern
        if pattern.radius > self.max_radius:
            raise ValueError(
                f"kernel {instance.kernel.name!r} radius {pattern.radius} exceeds "
                f"encoder max_radius {self.max_radius}"
            )
        dense = pattern.to_dense(self.max_radius).astype(float)
        peak = dense.max()
        if peak > 0:
            dense /= peak
        return dense.ravel()

    def instance_features(self, instance: StencilInstance) -> np.ndarray:
        """The 9 instance scalars."""
        k = instance.kernel
        sx, sy, sz = instance.size
        return np.array(
            [
                1.0 if k.dims == 3 else 0.0,
                lin_norm(k.num_buffers, 0, _MAX_BUFFERS),
                k.dtype.feature,
                log_norm(sx, _SIZE_LO, _SIZE_HI),
                log_norm(sy, _SIZE_LO, _SIZE_HI),
                log_norm(max(sz, 1), 1.0, _SIZE_HI) if sz > 1 else 0.0,
                lin_norm(k.radius, 0, _MAX_RADIUS),
                lin_norm(k.pattern.num_points, 0, _MAX_POINTS),
                lin_norm(k.reads_per_point, 0, _MAX_READS),
            ]
        )

    def instance_descriptor(self, instance: StencilInstance) -> np.ndarray:
        """Compact descriptor used in the interaction block."""
        k = instance.kernel
        sx, sy, sz = instance.size
        p = k.pattern
        rows_per_plane = p.planes(axis=1)
        xmin, xmax = p.axis_span(0)
        mem_intensity = lin_norm(
            k.bytes_per_point / max(k.flops_per_point, 1), 0.0, 2.0
        )
        return np.array(
            [
                1.0,
                log_norm(sx, _SIZE_LO, _SIZE_HI),
                log_norm(sy, _SIZE_LO, _SIZE_HI),
                log_norm(max(sz, 1), 1.0, _SIZE_HI) if sz > 1 else 0.0,
                1.0 if k.dims == 3 else 0.0,
                lin_norm(k.radius, 0, _MAX_RADIUS),
                lin_norm(p.num_points, 0, _MAX_POINTS),
                lin_norm(k.reads_per_point, 0, _MAX_READS),
                k.dtype.feature,
                lin_norm(k.num_buffers, 0, _MAX_BUFFERS),
                lin_norm(p.planes(axis=2), 0, 7),
                lin_norm(rows_per_plane, 0, 7),
                lin_norm(xmax - xmin, 0, 7),
                mem_intensity,
            ]
        )

    def tuning_features(
        self, instance: StencilInstance, tunings: Sequence[TuningVector]
    ) -> np.ndarray:
        """Vectorized ``(n, 19)`` tuning block for one instance."""
        raw = np.array([t.as_tuple() for t in tunings], dtype=float).reshape(-1, 5)
        sizes = np.array([instance.size], dtype=float)
        return self._tuning_block(raw, np.broadcast_to(sizes, (len(raw), 3)))

    def _tuning_block(self, raw: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The tuning block for ``(n, 5)`` raw tunings with per-row sizes.

        ``sizes`` is ``(n, 3)`` — rows may belong to *different* instances,
        which is what lets :meth:`encode_many` fuse whole request batches
        into one pass.
        """
        bx, by, bz, u, c = raw.T
        sx, sy, sz = sizes.T
        bx_n = log_norm(bx, _BLOCK_LO, _BLOCK_HI)
        by_n = log_norm(by, _BLOCK_LO, _BLOCK_HI)
        bz_n = log_norm(bz, _BLOCK_LO, _BLOCK_HI)
        u_n = lin_norm(u, 0.0, _UNROLL_HI)
        c_n = log_norm(c, _CHUNK_LO, _CHUNK_HI)
        vol_n = log_norm(bx * by * bz, _VOLUME_LO, _VOLUME_HI)
        cols = [
            bx_n,
            by_n,
            bz_n,
            u_n,
            c_n,
            vol_n,
            np.minimum(bx, sx) / sx,
            np.minimum(by, sy) / sy,
            np.minimum(bz, sz) / sz,
            (u == 0).astype(float),
            bx_n**2,
            by_n**2,
            bz_n**2,
            u_n**2,
            c_n**2,
            vol_n**2,
            bx_n * by_n,
            by_n * bz_n,
            bx_n * bz_n,
        ]
        return np.column_stack(cols)

    # -- public API -----------------------------------------------------------

    def encode_many(
        self,
        requests: Sequence[tuple[StencilInstance, Sequence[TuningVector]]],
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Encode several candidate sets of *different* instances at once.

        ``requests`` is a sequence of ``(instance, tunings)`` pairs; the
        result stacks their encodings row-contiguously — request ``i``
        occupies rows ``[sum(counts[:i]), sum(counts[:i+1]))`` where
        ``counts[i] = len(requests[i][1])``.  The per-instance parts
        (pattern, scalars, descriptor) are computed once per request and
        gathered; the tuning and interaction blocks run as **one** NumPy
        pass over all rows.  This is the cross-instance encode path that
        corpus-scale training builds and shadow evaluation need: the whole
        mixed batch becomes a single matrix ready for one stacked
        ``decision_function`` call.

        ``out`` optionally supplies a preallocated C-contiguous float64
        ``(>= total rows, num_features)`` buffer; the returned matrix is a
        view of its first rows, every cell overwritten.  The tuning
        service encodes each request into one resident buffer this way
        instead of faulting in a fresh preset-sized allocation per miss.
        """
        if not requests:
            return np.empty((0, self.num_features))
        counts = [len(tunings) for _, tunings in requests]
        total = sum(counts)
        flat = [t.as_tuple() for _, tunings in requests for t in tunings]
        raw = np.array(flat, dtype=float).reshape(-1, 5)
        row_of = np.repeat(np.arange(len(requests)), counts)
        sizes = np.array([q.size for q, _ in requests], dtype=float)
        tune = self._tuning_block(raw, sizes[row_of])
        # blocks are written straight into the preallocated result; the
        # per-instance parts broadcast one cached row per request slice
        # (reads stay L1-resident) instead of materializing row-gathered
        # temporaries — that keeps the fused path at encode_batch's
        # bytes-written-once memory traffic
        if out is None:
            out = np.empty((total, self.num_features))
        else:
            if out.ndim != 2 or out.shape[1] != self.num_features:
                raise ValueError(
                    f"out must be (rows, {self.num_features}), got {out.shape}"
                )
            if out.dtype != np.float64:
                raise ValueError(f"out must be float64, got {out.dtype}")
            if out.shape[0] < total:
                raise ValueError(
                    f"out has {out.shape[0]} rows, batch needs {total}"
                )
            if not out.flags.c_contiguous:
                raise ValueError("out must be C-contiguous")
            out = out[:total]
        col = 0
        if self.include_pattern:
            pats = [self.pattern_features(q) for q, _ in requests]
            block = out[:, col : col + self._pattern_cells]
            offset = 0
            for pat, count in zip(pats, counts):
                block[offset : offset + count] = pat
                offset += count
            col += self._pattern_cells
        insts = np.stack([self.instance_features(q) for q, _ in requests])
        out[:, col : col + self.N_INSTANCE] = insts[row_of]
        col += self.N_INSTANCE
        out[:, col : col + self.N_TUNING] = tune
        col += self.N_TUNING
        if self.interactions:
            descs = np.stack([self.instance_descriptor(q) for q, _ in requests])
            # write the outer products through a 3-D strided view of the
            # destination slice — no (n, 19, 14) temporary plus copy
            view = np.lib.stride_tricks.as_strided(
                out[:, col:],
                shape=(total, self.N_TUNING, self.N_DESCRIPTOR),
                strides=(out.strides[0], self.N_DESCRIPTOR * out.itemsize, out.itemsize),
            )
            np.multiply(tune[:, :, None], descs[row_of][:, None, :], out=view)
        return out

    def encode_batch(
        self, instance: StencilInstance, tunings: Sequence[TuningVector]
    ) -> np.ndarray:
        """Encode many tunings of one instance: ``(n, num_features)``."""
        n = len(tunings)
        tune = self.tuning_features(instance, tunings)
        parts = []
        if self.include_pattern:
            pat = self.pattern_features(instance)
            parts.append(np.broadcast_to(pat, (n, pat.size)))
        inst = self.instance_features(instance)
        parts.append(np.broadcast_to(inst, (n, inst.size)))
        parts.append(tune)
        if self.interactions:
            desc = self.instance_descriptor(instance)
            inter = np.einsum("nt,d->ntd", tune, desc).reshape(n, -1)
            parts.append(inter)
        return np.concatenate(parts, axis=1)

    def encode(
        self, instance: StencilInstance, tuning: TuningVector
    ) -> np.ndarray:
        """Encode one execution as a 1-D feature vector."""
        return self.encode_batch(instance, [tuning])[0]

    def encode_execution(self, execution: StencilExecution) -> np.ndarray:
        """Encode a :class:`StencilExecution` (convenience overload)."""
        return self.encode(execution.instance, execution.tuning)

    def encode_executions(
        self, executions: Sequence[StencilExecution]
    ) -> np.ndarray:
        """Encode a heterogeneous list of executions in one fused pass."""
        by_instance: dict[StencilInstance, list[int]] = {}
        for i, ex in enumerate(executions):
            by_instance.setdefault(ex.instance, []).append(i)
        requests = [
            (instance, [executions[i].tuning for i in idxs])
            for instance, idxs in by_instance.items()
        ]
        X = self.encode_many(requests)
        out = np.empty((len(executions), self.num_features))
        offset = 0
        for _, idxs in by_instance.items():
            out[idxs] = X[offset : offset + len(idxs)]
            offset += len(idxs)
        return out
