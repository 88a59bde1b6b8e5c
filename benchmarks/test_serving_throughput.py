"""Serving throughput benchmark: batched cold-start inference (``repro.serve``).

Acceptance gates for the serving subsystem are correctness gates:

* served top-K lists are identical to brute-force full ranking on the
  seeded scenario (tie-stable), and
* a batched request serves the same lists as one request per user.

Speed is tracked by the ``serve-hot`` / ``serve-cold`` workloads of
``bench/``, not by fixed multiples here.  Run with
``pytest benchmarks/test_serving_throughput.py -s`` to see the throughput
table.
"""

import numpy as np
import pytest

from repro.experiments import format_rows, run_serving_benchmark, train_cdrib
from repro.experiments.runners import build_paper_scenario
from repro.serve import ColdStartServer, brute_force_ranking

SCENARIO = "game_video"


@pytest.fixture(scope="module")
def throughput_rows(profile):
    rows = run_serving_benchmark(SCENARIO, batch_sizes=(1, 32, 256),
                                 top_k=10, profile=profile)
    print("\n" + format_rows(rows))
    return rows


@pytest.fixture(scope="module")
def served_setup(profile):
    """A trained checkpoint plus a server for the X -> Y direction."""
    scenario = build_paper_scenario(SCENARIO, profile)
    config = profile.cdrib.variant(epochs=min(profile.cdrib.epochs, 3))
    trainer = train_cdrib(scenario, config)
    split = scenario.x_to_y
    server = ColdStartServer(trainer.model, split.source, split.target,
                             top_k=10)
    return scenario, trainer.model, server


class TestServingThroughput:
    def test_row_schema(self, throughput_rows):
        assert {"batch_size", "users_per_sec", "speedup_vs_single",
                "mode"} <= set(throughput_rows[0])
        batched = [r for r in throughput_rows if r["mode"] == "batched"]
        assert [r["batch_size"] for r in batched] == [1, 32, 256]

        assert all(r["users_per_sec"] > 0 for r in throughput_rows)


class TestServingExactness:
    def test_topk_identical_to_brute_force(self, served_setup):
        """Acceptance: served lists == brute-force full ranking (tie-stable)."""
        scenario, _, server = served_setup
        users = [u.source_user for u in scenario.x_to_y.test][:16]
        recommendations = server.recommend(users, k=10)
        latents = server.user_latents(np.asarray(users, dtype=np.int64))
        for row, rec in enumerate(recommendations):
            full = brute_force_ranking(server.index.scores(latents[row])[0])
            assert np.array_equal(rec.items, full[:10])

    def test_batched_lists_equal_per_user_lists(self, served_setup):
        scenario, _, server = served_setup
        users = [u.source_user for u in scenario.x_to_y.test][:64]
        for user, rec in zip(users, server.recommend(users, k=10)):
            single = server.recommend_one(user, k=10)
            assert rec.user == single.user == user
            assert np.array_equal(rec.items, single.items)
            # BLAS picks different kernels for 1-row and n-row products.
            np.testing.assert_allclose(rec.scores, single.scores,
                                       rtol=1e-12, atol=1e-12)

    def test_full_ranking_agrees_with_pairwise_model_scorer(self, served_setup):
        scenario, model, server = served_setup
        split = scenario.x_to_y
        num_items = scenario.domain(split.target).num_items
        user = scenario.x_to_y.test[0].source_user
        pairwise = model.cold_start_scores(
            split.source, split.target,
            np.full(num_items, user, dtype=np.int64), np.arange(num_items),
        )
        rec = server.recommend_one(user, k=num_items)
        reference = brute_force_ranking(pairwise)
        if not np.array_equal(rec.items, reference):
            # Cross-path (matmul vs. pairwise) rankings may only disagree on
            # scores tied within float noise on some BLAS builds.
            np.testing.assert_allclose(pairwise[rec.items], pairwise[reference],
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(rec.scores, pairwise[rec.items],
                                   rtol=1e-9, atol=1e-12)
