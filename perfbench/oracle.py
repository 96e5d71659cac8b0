"""The dense oracle: ``encode`` → ``X @ w`` → stable argsort.

Every answer is checked off the clock against the model version that
answered it.  A served top-k is accepted when it equals the oracle's
stable top-k, or when it differs only where oracle scores tie within a
few ulps (a fused pass may perturb a score's last ulp — see the
determinism caveat in ``docs/architecture.md``).
"""

from __future__ import annotations

import numpy as np

from repro.features.encoder import FeatureEncoder
from repro.tuning.presets import preset_candidates

#: relative score tolerance for order differences between near-tied scores
TIE_RTOL = 1e-12


def topk_valid(scores: np.ndarray, served: "list[int]", k: int) -> bool:
    """Whether ``served`` is a correct best-first top-``k`` under ``scores``."""
    k = min(k, len(scores))
    expected = np.argsort(-scores, kind="stable")[:k]
    if list(expected) == list(served):
        return True
    if len(served) != k or len(set(served)) != k:
        return False
    tol = TIE_RTOL * max(1.0, float(np.max(np.abs(scores))))
    s = scores[np.asarray(served)]
    if np.any(s[1:] > s[:-1] + tol):
        return False
    rest = np.delete(scores, served)
    return rest.size == 0 or s[-1] >= rest.max() - tol


class Oracle:
    """Checks answers against dense scoring, memoized per (query, version)."""

    def __init__(self, registry, encoder: "FeatureEncoder | None" = None) -> None:
        self.registry = registry
        self.encoder = encoder or FeatureEncoder()
        self._models: dict = {}
        self._presets: dict = {}
        self._scores: dict = {}

    def presets(self, dims: int) -> list:
        if dims not in self._presets:
            cands = preset_candidates(dims)
            index: dict = {}
            for i, tv in enumerate(cands):
                index.setdefault(tv.as_tuple(), []).append(i)
            self._presets[dims] = (cands, index)
        return self._presets[dims][0]

    def _weights(self, version: str) -> np.ndarray:
        if version not in self._models:
            self._models[version] = self.registry.load(version).w_
        return self._models[version]

    def scores(self, req, version: str) -> "tuple[np.ndarray, list[int]]":
        """Oracle scores and stable best-first order for (query, version)."""
        key = (req.key(), version)
        if key not in self._scores:
            cands = req.candidates or self.presets(req.instance.dims)
            X = self.encoder.encode_batch(req.instance, cands)
            scores = X @ self._weights(version)
            self._scores[key] = scores, np.argsort(-scores, kind="stable").tolist()
        return self._scores[key]

    def served_indices(self, req, ranked) -> "list[int]":
        """Positions of the served tunings (``as_tuple()`` values) in the
        request's candidate list; duplicates map to successive positions."""
        if req.candidates is None:
            self.presets(req.instance.dims)
            index = self._presets[req.instance.dims][1]
        else:
            index = {}
            for i, tv in enumerate(req.candidates):
                index.setdefault(tv.as_tuple(), []).append(i)
        used: set = set()
        out = []
        for key in ranked:
            free = [i for i in index.get(key, ()) if i not in used]
            if not free:
                return []
            used.add(free[0])
            out.append(free[0])
        return out

    def check(self, outcome) -> bool:
        """Whether one answered outcome matches the oracle."""
        req = outcome.req
        scores, order = self.scores(req, outcome.version)
        served = self.served_indices(req, outcome.ranked)
        k = req.top_k or len(scores)
        return served == order[:k] or topk_valid(scores, served, k)
