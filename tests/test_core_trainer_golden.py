"""Golden-trajectory regression tests for the CDRIB training engines.

The fused training engine is only admissible because it is *faithful*:
with the same seed it must reproduce the seed implementation's loss
trajectory — same edge picks, same negative pools, same dropout masks and
reparameterisation noise, same optimizer arithmetic.  These tests pin a
20-step loss sequence of the reference (seed) path and require the fused
engine to match it, including across an epoch boundary and across
interrupted ``run_steps`` calls, and require it to be faster than the
reference path it replicates.
"""

import time

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer
from repro.data import SyntheticConfig, SyntheticCrossDomainGenerator, build_scenario
from repro.experiments import build_paper_scenario, get_profile

# 20 per-step losses of the reference engine on the scenario below
# (seed implementation semantics; regenerate only with a justified
# semantic change to the objective or the RNG streams).
GOLDEN_LOSSES = np.array([
    12.120351425632888,
    11.989285033737508,
    11.825840945474884,
    11.634427247853912,
    11.262054393317873,
    10.776201033928722,
    9.939424916360906,
    8.76162881315749,
    9.308297723071762,
    8.53763213397015,
    8.184010440345084,
    8.271106523022196,
    8.309914688462447,
    8.437208609586031,
    8.352673722757645,
    8.767890050340068,
    8.38520997092831,
    8.510258820136883,
    8.397479976256003,
    8.40315931080348,
])

# The engines must agree with the seed path essentially to round-off;
# 1e-10 is the contract, observed differences are ~1e-15.
ENGINE_ATOL = 1e-10
# The pinned constants additionally depend on the BLAS build's GEMM
# summation order, so they get a slightly looser (still far-sub-semantic)
# tolerance for portability across numpy builds.
PINNED_ATOL = 5e-9


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


def golden_config() -> CDRIBConfig:
    return CDRIBConfig(embedding_dim=16, num_layers=2, dropout=0.1,
                       batch_size=64, num_negatives=3, learning_rate=0.02,
                       seed=0)


def run_engine(scenario, engine: str, steps: int = 20):
    model = CDRIB(scenario, golden_config())
    trainer = CDRIBTrainer(model, engine=engine)
    return trainer, np.array(trainer.run_steps(steps))


class TestGoldenTrajectory:
    def test_reference_matches_pinned_losses(self, golden_scenario):
        """The reference engine *is* the seed path; its losses are pinned."""
        trainer, losses = run_engine(golden_scenario, "reference")
        assert trainer.steps_per_epoch() == 10  # the 20 steps span two epochs
        np.testing.assert_allclose(losses, GOLDEN_LOSSES, rtol=0, atol=PINNED_ATOL)

    def test_fused_engine_matches_seed_losses(self, golden_scenario):
        """Acceptance: fused-path losses equal the seed path to 1e-10."""
        _, reference = run_engine(golden_scenario, "reference")
        _, fused = run_engine(golden_scenario, "fused")
        np.testing.assert_allclose(fused, reference, rtol=0, atol=ENGINE_ATOL)
        np.testing.assert_allclose(fused, GOLDEN_LOSSES, rtol=0, atol=PINNED_ATOL)

    def test_interrupted_run_steps_is_stream_exact(self, golden_scenario):
        """Stopping mid-epoch must not desynchronise the presampled engine.

        run_steps(7) ends mid-epoch (10 steps per epoch); the fused engine
        has presampled the full epoch but must consume the leftovers before
        presampling again, keeping the RNG stream aligned with the lazy
        reference draws.
        """
        _, reference = run_engine(golden_scenario, "reference", steps=20)
        model = CDRIB(golden_scenario, golden_config())
        trainer = CDRIBTrainer(model, engine="fused")
        losses = trainer.run_steps(7) + trainer.run_steps(13)
        np.testing.assert_allclose(np.array(losses), reference,
                                   rtol=0, atol=ENGINE_ATOL)

    def test_fit_epoch_means_match_across_engines(self, golden_scenario):
        """fit() (epoch means, eval-cache refresh) agrees across engines."""
        results = {}
        for engine in CDRIBTrainer.ENGINES:
            model = CDRIB(golden_scenario, golden_config())
            trainer = CDRIBTrainer(model, engine=engine)
            results[engine] = trainer.fit(epochs=2)
        np.testing.assert_allclose(
            [log.loss for log in results["fused"].history],
            [log.loss for log in results["reference"].history],
            rtol=0, atol=ENGINE_ATOL,
        )

    def test_diagnostics_terms_match_across_engines(self, golden_scenario):
        """Per-term diagnostics (KL, reconstruction, contrastive) agree too."""
        diags = {}
        for engine in CDRIBTrainer.ENGINES:
            model = CDRIB(golden_scenario, golden_config())
            trainer = CDRIBTrainer(model, engine=engine)
            batches = trainer._next_batch()
            model.train()
            _, diag = model.training_loss(batches, fused=engine != "reference")
            diags[engine] = diag
        assert set(diags["fused"]) == set(diags["reference"])
        for key, value in diags["reference"].items():
            assert diags["fused"][key] == pytest.approx(value, rel=0, abs=ENGINE_ATOL)

    def test_engines_are_fused_and_reference(self):
        assert CDRIBTrainer.ENGINES == ("fused", "reference")

    def test_unknown_engine_rejected(self, golden_scenario):
        model = CDRIB(golden_scenario, golden_config())
        for engine in ("warp-speed", "subgraph"):
            with pytest.raises(ValueError, match="unknown engine"):
                CDRIBTrainer(model, engine=engine)


@pytest.fixture(scope="module")
def timed_engines():
    """Interleaved timing of both engines: (best block seconds, losses).

    Blocks of 15 steps per engine on ``game_video`` at the smoke profile;
    each engine's rate comes from its fastest of 5 blocks (ambient load
    only ever slows a block down).  The losses are those of the very
    steps being timed.
    """
    profile = get_profile("smoke")
    scenario = build_paper_scenario("game_video", profile)
    trainers = {engine: CDRIBTrainer(CDRIB(scenario, profile.cdrib),
                                     engine=engine)
                for engine in CDRIBTrainer.ENGINES}
    for trainer in trainers.values():
        trainer.run_steps(5)  # warm-up: caches, sampler, BLAS threads
    best = dict.fromkeys(trainers, float("inf"))
    losses = {engine: [] for engine in trainers}
    for _ in range(5):
        for engine, trainer in trainers.items():
            start = time.perf_counter()
            losses[engine].extend(trainer.run_steps(15))
            best[engine] = min(best[engine], time.perf_counter() - start)
    return best, losses


class TestTrainingThroughput:
    def test_fused_engine_faster_than_reference(self, timed_engines):
        """The fused engine earns its place: faster than the seed path.

        The gate is not a fixed multiple, since the margin depends on the
        core count and BLAS build; the ``train`` workload of
        ``python3 -m bench`` tracks the speed.
        """
        best, _ = timed_engines
        ratio = best["reference"] / best["fused"]
        assert ratio > 1.0, f"fused engine is {ratio:.2f}x the reference rate"


class TestTrainingFaithfulness:
    def test_timed_losses_match_seed_to_1e10(self, timed_engines):
        """The fused engine's losses equal the seed trajectory on the timed
        steps, so the speed gate cannot pass by trading correctness."""
        _, losses = timed_engines
        np.testing.assert_allclose(losses["fused"], losses["reference"],
                                   rtol=0, atol=ENGINE_ATOL)
