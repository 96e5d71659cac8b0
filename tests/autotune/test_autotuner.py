"""Tests for the standalone OrdinalAutotuner (§V-C)."""

import numpy as np
import pytest

from repro.autotune.autotuner import OrdinalAutotuner
from repro.features.encoder import FeatureEncoder
from repro.learn.ranksvm import RankSVMConfig
from repro.stencil.suite import benchmark_by_id
from repro.tuning.presets import preset_candidates
from repro.tuning.space import patus_space


@pytest.fixture(scope="module")
def trained(tiny_training_set):
    return OrdinalAutotuner(config=RankSVMConfig(seed=0)).train(tiny_training_set)


class TestTraining:
    def test_train_records_wall(self, trained):
        assert trained.last_train_seconds > 0

    def test_fingerprint_guard(self, tiny_training_set):
        tuner = OrdinalAutotuner(encoder=FeatureEncoder(interactions=False))
        with pytest.raises(ValueError, match="encoded with"):
            tuner.train(tiny_training_set)

    def test_untrained_refuses_inference(self):
        with pytest.raises(RuntimeError, match="no trained model"):
            OrdinalAutotuner().best(benchmark_by_id("blur-1024x768"))


class TestInference:
    def test_rank_candidates_permutation(self, trained):
        inst = benchmark_by_id("laplacian-128x128x128")
        cands = patus_space(3).random_vectors(50, rng=0)
        ranked = trained.rank_candidates(inst, cands)
        assert sorted(map(tuple, ranked)) == sorted(map(tuple, cands))

    def test_rank_matches_scores(self, trained):
        inst = benchmark_by_id("laplacian-128x128x128")
        cands = patus_space(3).random_vectors(50, rng=1)
        scores = trained.score_candidates(inst, cands)
        ranked = trained.rank_candidates(inst, cands)
        best = ranked[0]
        assert scores[cands.index(best)] == scores.max()

    def test_default_candidates_are_presets(self, trained):
        inst = benchmark_by_id("edge-512x512")
        pick = trained.best(inst)
        assert pick in set(preset_candidates(2))

    def test_top_k(self, trained):
        inst = benchmark_by_id("laplacian-128x128x128")
        top3 = trained.tune(inst, top_k=3)
        assert len(top3) == 3
        assert len(set(top3)) == 3

    @pytest.mark.parametrize("top_k", [0, -1, -5])
    def test_non_positive_top_k_rejected(self, trained, top_k):
        inst = benchmark_by_id("laplacian-128x128x128")
        with pytest.raises(ValueError, match="top_k"):
            trained.tune(inst, top_k=top_k)

    def test_rank_seconds_recorded(self, trained):
        inst = benchmark_by_id("laplacian-128x128x128")
        trained.score_candidates(inst, preset_candidates(3))
        assert 0 < trained.last_rank_seconds < 1.0

    def test_pick_not_in_worst_quartile(self, trained, session_machine):
        """Even the tiny ~500-point fixture model must avoid bad configs.

        (Strong quality claims — pick ≈ GA quality — are asserted by the
        integration tests and Fig. 4 bench, which train on larger sets.)
        """
        inst = benchmark_by_id("laplacian-256x256x256")
        cands = preset_candidates(3)
        pick = trained.best(inst)
        from repro.stencil.execution import StencilExecution

        pick_t = session_machine.true_time(StencilExecution(inst, pick))
        sample = cands[:: len(cands) // 200]
        times = session_machine.true_times(inst, sample)
        assert pick_t < np.percentile(times, 75)


class TestPersistence:
    def test_save_load_same_decisions(self, trained, tmp_path):
        path = str(tmp_path / "tuner.npz")
        trained.save(path)
        clone = OrdinalAutotuner().load(path)
        inst = benchmark_by_id("gradient-128x128x128")
        assert clone.best(inst) == trained.best(inst)

    def test_load_rejects_mismatched_encoder(self, trained, tmp_path):
        path = str(tmp_path / "tuner.npz")
        trained.save(path)
        other = OrdinalAutotuner(encoder=FeatureEncoder(interactions=False))
        with pytest.raises(ValueError, match="fingerprint"):
            other.load(path)
