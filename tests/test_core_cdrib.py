"""Tests for the CDRIB model, its ablation variants and the trainer."""

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer, make_ablation_config
from repro.core.variants import ABLATION_VARIANTS, variant_display_name
from repro.eval import LeaveOneOutEvaluator


@pytest.fixture
def model(tiny_scenario, fast_cdrib_config):
    return CDRIB(tiny_scenario, fast_cdrib_config)


@pytest.fixture
def trainer(model):
    return CDRIBTrainer(model)


class TestConfig:
    def test_variant_override(self):
        config = CDRIBConfig(beta1=1.0)
        changed = config.variant(beta1=2.0, num_layers=3)
        assert changed.beta1 == 2.0
        assert changed.num_layers == 3
        assert config.beta1 == 1.0  # original untouched

    def test_ablation_configs(self):
        base = CDRIBConfig()
        assert make_ablation_config(base, "full").use_contrastive
        assert not make_ablation_config(base, "wo_con").use_contrastive
        no_inib = make_ablation_config(base, "wo_inib_con")
        assert not no_inib.use_contrastive and not no_inib.use_in_domain_ib
        assert make_ablation_config(base, "deterministic").deterministic_encoder
        assert not make_ablation_config(base, "dot_contrast").use_discriminator
        with pytest.raises(ValueError):
            make_ablation_config(base, "bogus")

    def test_variant_display_names(self):
        assert variant_display_name("full") == "CDRIB"
        assert variant_display_name("wo_con") == "w/o Con"
        assert set(ABLATION_VARIANTS) >= {"full", "wo_con", "wo_inib_con"}


class TestModel:
    def test_embedding_tables_match_scenario(self, model, tiny_scenario):
        assert model.user_embedding_x.num_embeddings == tiny_scenario.domain_x.num_users
        assert model.item_embedding_y.num_embeddings == tiny_scenario.domain_y.num_items

    def test_encode_domains_keys(self, model, tiny_scenario):
        latents = model.encode_domains()
        assert set(latents) == {tiny_scenario.domain_x.name, tiny_scenario.domain_y.name}

    def test_training_loss_contains_all_terms(self, model, trainer):
        batches = trainer._build_batches()
        _, diagnostics = model.training_loss(batches)
        for key in ("minimality", "in_domain_x", "in_domain_y",
                    "cross_o2y", "cross_o2x", "contrastive", "total"):
            assert key in diagnostics

    def test_training_loss_with_empty_batches_is_minimality_only(self, model):
        _, diagnostics = model.training_loss({})
        assert set(diagnostics) == {"minimality", "total"}
        assert diagnostics["total"] == pytest.approx(diagnostics["minimality"])

    def test_contrastive_weight_scales_the_term(self, tiny_scenario, fast_cdrib_config):
        heavy = CDRIB(tiny_scenario, fast_cdrib_config.variant(contrastive_weight=1.0,
                                                               dropout=0.0))
        light = CDRIB(tiny_scenario, fast_cdrib_config.variant(contrastive_weight=0.1,
                                                               dropout=0.0))
        light.load_state_dict(heavy.state_dict())
        pairs = tiny_scenario.overlap_pairs
        heavy.eval()
        light.eval()
        _, heavy_terms = heavy.training_loss({"overlap": pairs})
        _, light_terms = light.training_loss({"overlap": pairs})
        assert light_terms["contrastive"] == pytest.approx(
            0.1 * heavy_terms["contrastive"], rel=1e-6
        )

    def test_ablation_flags_remove_terms(self, tiny_scenario, fast_cdrib_config):
        config = fast_cdrib_config.variant(use_contrastive=False, use_in_domain_ib=False)
        model = CDRIB(tiny_scenario, config)
        trainer = CDRIBTrainer(model)
        _, diagnostics = model.training_loss(trainer._build_batches())
        assert "contrastive" not in diagnostics
        assert "in_domain_x" not in diagnostics
        assert "cross_o2y" in diagnostics

    def test_state_dict_roundtrip_preserves_scores(self, tiny_scenario, fast_cdrib_config):
        model_a = CDRIB(tiny_scenario, fast_cdrib_config)
        model_b = CDRIB(tiny_scenario, fast_cdrib_config.variant(seed=99))
        model_b.load_state_dict(model_a.state_dict())
        split = tiny_scenario.x_to_y
        users = np.array([split.test[0].source_user] * 5)
        items = np.arange(5)
        model_a.refresh_eval_cache()
        model_b.refresh_eval_cache()
        np.testing.assert_allclose(
            model_a.cold_start_scores(split.source, split.target, users, items),
            model_b.cold_start_scores(split.source, split.target, users, items),
        )

    def test_cold_start_scores_shape(self, model, tiny_scenario):
        split = tiny_scenario.x_to_y
        users = np.zeros(7, dtype=np.int64)
        items = np.arange(7)
        scores = model.cold_start_scores(split.source, split.target, users, items)
        assert scores.shape == (7,)
        assert np.all(np.isfinite(scores))

    def test_cold_start_scores_rejects_unequal_lengths(self, model, tiny_scenario):
        """One user and three items used to broadcast into three scores."""
        split = tiny_scenario.x_to_y
        with pytest.raises(ValueError, match="pair up"):
            model.cold_start_scores(split.source, split.target,
                                    np.zeros(1, dtype=np.int64), np.arange(3))


class TestTrainer:
    def test_pools_built_for_all_groups(self, trainer):
        assert set(trainer._pools) == {"in_x", "in_y", "cross_x_to_y", "cross_y_to_x"}
        assert len(trainer._pools["in_x"]) > 0
        assert len(trainer._pools["cross_x_to_y"]) > 0

    def test_cross_pool_users_are_mapped_to_source_domain(self, trainer, tiny_scenario):
        pairs = {int(y): int(x) for x, y in tiny_scenario.overlap_pairs}
        pool = trainer._pools["cross_x_to_y"]
        for source_user, target_user, _ in pool.rows[:50]:
            assert pairs[int(target_user)] == int(source_user)

    def test_fit_reduces_loss(self, tiny_scenario, fast_cdrib_config):
        model = CDRIB(tiny_scenario, fast_cdrib_config.variant(epochs=6))
        trainer = CDRIBTrainer(model)
        result = trainer.fit()
        assert len(result.history) == 6
        assert result.history[-1].loss < result.history[0].loss

    def test_fit_with_validation_tracking(self, tiny_scenario, fast_cdrib_config):
        evaluator = LeaveOneOutEvaluator(tiny_scenario, num_negatives=20, seed=0)
        model = CDRIB(tiny_scenario, fast_cdrib_config.variant(epochs=4))
        trainer = CDRIBTrainer(model, evaluator=evaluator)
        result = trainer.fit(eval_every=2)
        assert result.best_validation_mrr is not None
        assert result.best_epoch in (2, 4)

    def test_validation_without_evaluator_raises(self, trainer):
        with pytest.raises(ValueError):
            trainer.validation_mrr()

    def test_make_scorer_is_pairwise(self, trainer, tiny_scenario):
        trainer.model.refresh_eval_cache()
        split = tiny_scenario.x_to_y
        scorer = trainer.make_scorer(split.source, split.target)
        scores = scorer(np.zeros(4, dtype=np.int64), np.arange(4))
        assert scores.shape == (4,)

    def test_steps_per_epoch_positive(self, trainer):
        assert trainer.steps_per_epoch() >= 1
