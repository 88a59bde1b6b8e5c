"""Exact-resume golden tests for the trainer checkpoint subsystem.

The acceptance contract of ``repro.io``: training 10 steps, saving,
rebuilding everything from disk (model + optimizer + every RNG stream) and
training 10 more must produce losses *bit-identical* to 20 uninterrupted
steps — for the fused and reference engines, at epoch boundaries and
mid-epoch.  These tests sit alongside ``test_core_trainer_golden.py``
and reuse its pinned scenario, so a resumed run is also pinned against the
seed implementation's trajectory.
"""

import json
import os

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBTrainer
from repro.data import SyntheticConfig, SyntheticCrossDomainGenerator, build_scenario
from repro.io import CheckpointError, load_checkpoint
from repro.io.checkpoint import MANIFEST_NAME

from test_core_trainer_golden import GOLDEN_LOSSES, PINNED_ATOL, golden_config


@pytest.fixture(scope="module")
def golden_scenario():
    config = SyntheticConfig(
        num_overlap_users=40, num_specific_users_x=25, num_specific_users_y=25,
        num_items_x=70, num_items_y=70, min_interactions=6, max_interactions=14,
        seed=11,
    )
    data = SyntheticCrossDomainGenerator(config).generate()
    return build_scenario(data.table_x, data.table_y, cold_start_ratio=0.2,
                          min_user_interactions=3, min_item_interactions=2,
                          seed=11)


def make_trainer(scenario, engine):
    return CDRIBTrainer(CDRIB(scenario, golden_config()), engine=engine)


class TestExactResume:
    @pytest.mark.parametrize("engine", CDRIBTrainer.ENGINES)
    @pytest.mark.parametrize("split_at", [10, 7])
    def test_resume_equals_uninterrupted(self, golden_scenario, tmp_path,
                                         engine, split_at):
        """10 + save + reload + 10 == 20 straight, bit for bit.

        ``split_at=10`` lands on an epoch boundary (10 steps/epoch on this
        scenario), ``split_at=7`` saves mid-epoch, exercising the presample
        replay of the fused engine.
        """
        straight = make_trainer(golden_scenario, engine).run_steps(20)

        first_half = make_trainer(golden_scenario, engine)
        before = first_half.run_steps(split_at)
        path = first_half.save_checkpoint(str(tmp_path / f"{engine}-{split_at}"))

        resumed = make_trainer(golden_scenario, engine)
        resumed.restore_checkpoint(path)
        after = resumed.run_steps(20 - split_at)

        assert before + after == straight  # exact float equality, no tolerance
        np.testing.assert_allclose(np.array(straight), GOLDEN_LOSSES,
                                   rtol=0, atol=PINNED_ATOL)

    def test_cross_engine_resume(self, golden_scenario, tmp_path):
        """A mid-epoch fused checkpoint resumes exactly on the reference
        engine (the engines draw identical batch streams)."""
        straight = make_trainer(golden_scenario, "reference").run_steps(20)
        fused = make_trainer(golden_scenario, "fused")
        before = fused.run_steps(7)
        path = fused.save_checkpoint(str(tmp_path / "cross"))

        reference = make_trainer(golden_scenario, "reference")
        reference.restore_checkpoint(path)
        after = reference.run_steps(13)
        np.testing.assert_allclose(np.array(before + after), np.array(straight),
                                   rtol=0, atol=1e-10)

    def test_checkpoint_naming_a_removed_engine_restores(self, golden_scenario,
                                                         tmp_path):
        """The recorded engine name is metadata only: a checkpoint whose
        manifest names an engine that no longer exists (``"subgraph"``)
        still resumes bit-exactly on the fused engine."""
        straight = make_trainer(golden_scenario, "fused").run_steps(20)
        first_half = make_trainer(golden_scenario, "fused")
        before = first_half.run_steps(7)
        path = first_half.save_checkpoint(str(tmp_path / "old-engine"))
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["engine"] == "fused"
        manifest["engine"] = "subgraph"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)

        resumed = make_trainer(golden_scenario, "fused")
        resumed.restore_checkpoint(path)
        after = resumed.run_steps(13)
        assert before + after == straight  # exact float equality, no tolerance

    def test_state_dict_round_trip_is_bit_identical(self, golden_scenario, tmp_path):
        trainer = make_trainer(golden_scenario, "fused")
        trainer.run_steps(5)
        path = trainer.save_checkpoint(str(tmp_path / "state"))

        other = make_trainer(golden_scenario, "fused")
        other.restore_checkpoint(path)
        for key, value in trainer.model.state_dict().items():
            np.testing.assert_array_equal(other.model.state_dict()[key], value)
        state_a = trainer.optimizer.state_dict()
        state_b = other.optimizer.state_dict()
        assert state_a["step_count"] == state_b["step_count"] == 5
        for m_a, m_b in zip(state_a["m"], state_b["m"]):
            np.testing.assert_array_equal(m_a, m_b)

        # Cold-start scores (the serving quantity) are bit-identical too.
        split = golden_scenario.x_to_y
        users = np.array([u.source_user for u in split.test[:3]])
        items = np.arange(users.shape[0])
        np.testing.assert_array_equal(
            trainer.model.cold_start_scores(split.source, split.target, users, items),
            other.model.cold_start_scores(split.source, split.target, users, items),
        )

    def test_manifest_records_training_state(self, golden_scenario, tmp_path):
        trainer = make_trainer(golden_scenario, "fused")
        trainer.run_steps(7)
        path = trainer.save_checkpoint(str(tmp_path / "manifest"),
                                       metrics={"loss": 1.0},
                                       provenance={"scenario": "golden",
                                                   "profile": "unit"})
        checkpoint = load_checkpoint(path, expect_kind="cdrib-trainer")
        assert checkpoint.manifest["engine"] == "fused"
        assert checkpoint.manifest["metrics"] == {"loss": 1.0}
        assert checkpoint.manifest["provenance"]["scenario"] == "golden"
        assert checkpoint.manifest["model"]["config"]["embedding_dim"] == 16
        assert checkpoint.scalar("trainer/global_step") == 7
        assert checkpoint.scalar("trainer/steps_into_epoch") == 7
        assert {"model", "trainer", "sampler_x", "sampler_y"} <= set(
            checkpoint.rng_states)

    def test_domain_mismatch_rejected(self, golden_scenario, tiny_scenario, tmp_path):
        trainer = make_trainer(golden_scenario, "fused")
        path = trainer.save_checkpoint(str(tmp_path / "dom"))
        other = CDRIBTrainer(CDRIB(tiny_scenario, golden_config()), engine="fused")
        with pytest.raises(CheckpointError, match="domains"):
            other.restore_checkpoint(path)

    def test_config_mismatch_rejected(self, golden_scenario, tmp_path):
        """Same shapes but a different batch_size would silently diverge."""
        trainer = make_trainer(golden_scenario, "fused")
        path = trainer.save_checkpoint(str(tmp_path / "cfg"))
        other_config = golden_config().variant(batch_size=32)
        other = CDRIBTrainer(CDRIB(golden_scenario, other_config), engine="fused")
        with pytest.raises(CheckpointError, match="batch_size"):
            other.restore_checkpoint(path)

    def test_best_rollback_checkpoint_is_publish_only(self, golden_scenario, tmp_path):
        """After fit() restores the best-validation state, the model no longer
        matches the optimizer/RNG trajectory — saving still works (for
        serving) but resuming from that artifact must be refused."""
        from repro.eval import LeaveOneOutEvaluator

        evaluator = LeaveOneOutEvaluator(golden_scenario, num_negatives=20,
                                         seed=0, max_users_per_direction=4)
        trainer = CDRIBTrainer(CDRIB(golden_scenario, golden_config()),
                               evaluator=evaluator, engine="fused")
        trainer.fit(epochs=2, eval_every=1)
        path = trainer.save_checkpoint(str(tmp_path / "published"))
        checkpoint = load_checkpoint(path)
        assert checkpoint.manifest["resumable"] is False
        with pytest.raises(CheckpointError, match="publish-only"):
            make_trainer(golden_scenario, "fused").restore_checkpoint(path)

    def test_save_over_existing_checkpoint_is_crash_safe(self, golden_scenario,
                                                         tmp_path):
        """Re-saving replaces the directory wholesale via a staged swap, so
        the previous checkpoint is never left half-truncated."""
        trainer = make_trainer(golden_scenario, "fused")
        trainer.run_steps(2)
        path = str(tmp_path / "rolling")
        trainer.save_checkpoint(path)
        first = load_checkpoint(path)
        trainer.run_steps(2)
        trainer.save_checkpoint(path)
        second = load_checkpoint(path)
        assert second.scalar("trainer/global_step") == 4
        assert second.scalar("trainer/global_step") != first.scalar(
            "trainer/global_step")
        assert not os.path.exists(path + ".saving")
        assert not os.path.exists(path + ".old")

    def test_fit_resume_continues_epoch_numbering(self, golden_scenario, tmp_path):
        straight = make_trainer(golden_scenario, "fused").fit(epochs=2)

        part = make_trainer(golden_scenario, "fused")
        part.fit(epochs=1, checkpoint_dir=str(tmp_path / "ckpts"))
        resumed = make_trainer(golden_scenario, "fused")
        result = resumed.fit(epochs=1,
                             resume_from=str(tmp_path / "ckpts" / "last"))

        assert [log.epoch for log in result.history] == [2]
        np.testing.assert_allclose(result.history[0].loss,
                                   straight.history[1].loss, rtol=0, atol=0)

    def test_fit_saves_best_checkpoint(self, golden_scenario, tmp_path):
        from repro.eval import LeaveOneOutEvaluator

        evaluator = LeaveOneOutEvaluator(golden_scenario, num_negatives=20,
                                         seed=0, max_users_per_direction=4)
        trainer = CDRIBTrainer(CDRIB(golden_scenario, golden_config()),
                               evaluator=evaluator, engine="fused")
        trainer.fit(epochs=2, eval_every=1, checkpoint_dir=str(tmp_path / "run"))
        best = load_checkpoint(str(tmp_path / "run" / "best"),
                               expect_kind="cdrib-trainer")
        last = load_checkpoint(str(tmp_path / "run" / "last"),
                               expect_kind="cdrib-trainer")
        assert best.manifest["metrics"]["best_validation_mrr"] is not None
        assert last.scalar("trainer/epochs_done") == 2
