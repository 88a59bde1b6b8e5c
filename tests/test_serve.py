"""Tests for the batched cold-start serving subsystem (``repro.serve``)."""

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig
from repro.serve import (
    ColdStartServer,
    ItemIndex,
    RequestBatcher,
    brute_force_ranking,
)
from repro.serve import item_index

#: Stands for the source domain's user count in parametrised user ids.
NUM_USERS = object()


def assert_rankings_equivalent(items_a, items_b, scores):
    """Rankings must match exactly, or disagree only within float noise.

    Cross-path comparisons (BLAS matmul vs. elementwise-sum scores) can land
    near-tied scores on opposite sides of the last bit on some BLAS builds;
    any positional disagreement must then be between float-noise-tied scores.
    """
    if np.array_equal(items_a, items_b):
        return
    np.testing.assert_allclose(scores[np.asarray(items_a)],
                               scores[np.asarray(items_b)],
                               rtol=1e-9, atol=1e-12)


@pytest.fixture(scope="module")
def trained_model(small_scenario):
    """A briefly trained CDRIB model (weights only need to be non-degenerate)."""
    from repro.core import CDRIBTrainer

    model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16, num_layers=2,
                                              epochs=2, batch_size=128,
                                              num_negatives=2, seed=0))
    CDRIBTrainer(model).fit()
    return model


@pytest.fixture(scope="module")
def server(trained_model, small_scenario):
    return ColdStartServer(
        trained_model,
        source=small_scenario.domain_x.name,
        target=small_scenario.domain_y.name,
        top_k=10,
    )


class TestEncodeBatchParity:
    """The serving encoders must match the eval-cache Tensor path exactly."""

    def test_users(self, trained_model, small_scenario):
        name = small_scenario.domain_x.name
        trained_model.refresh_eval_cache()
        reference = trained_model._eval_cache[name].users.deterministic().data
        # Full-table encoding runs the same-shaped GEMMs as the reference,
        # so equality is bitwise.
        assert np.array_equal(trained_model.encode_users_batch(name), reference)

    def test_items(self, trained_model, small_scenario):
        name = small_scenario.domain_y.name
        trained_model.refresh_eval_cache()
        reference = trained_model._eval_cache[name].items.deterministic().data
        assert np.array_equal(trained_model.encode_items(name), reference)

    def test_single_layer_model_parity(self, small_scenario):
        model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=8, num_layers=1, seed=1))
        name = small_scenario.domain_x.name
        model.refresh_eval_cache()
        reference = model._eval_cache[name].users.deterministic().data
        assert np.array_equal(model.encode_users_batch(name), reference)

    def test_unknown_domain_raises(self, trained_model):
        with pytest.raises(KeyError):
            trained_model.encode_users_batch("nope")


class TestItemIndex:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ItemIndex(np.zeros(4))
        with pytest.raises(ValueError):
            ItemIndex(np.zeros((3, 2))).top_k(np.zeros((1, 2)), k=0)

    def test_top_k_matches_full_ranking(self, rng):
        latents = rng.standard_normal((50, 8))
        index = ItemIndex(latents)
        users = rng.standard_normal((7, 8))
        items, scores = index.top_k(users, k=10)
        for row in range(7):
            full = brute_force_ranking(index.scores(users[row])[0])
            assert np.array_equal(items[row], full[:10])
            assert np.all(np.diff(scores[row]) <= 0)

    def test_tie_handling_matches_stable_ranking(self):
        # Duplicate item latents force exact score ties, including across the
        # top-K boundary; ties must resolve by ascending item index.
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        latents = np.concatenate([base, base, base, base])  # 12 items, 4-way ties
        index = ItemIndex(latents)
        user = np.array([[2.0, 1.0]])
        for k in range(1, 13):
            items, scores = index.top_k(user, k)
            full = brute_force_ranking(index.scores(user)[0])
            assert np.array_equal(items[0], full[:k]), f"tie mismatch at k={k}"
            assert np.array_equal(scores[0], index.scores(user)[0][items[0]])

    def test_all_equal_scores(self):
        index = ItemIndex(np.ones((9, 3)))
        items, _ = index.top_k(np.ones((1, 3)), k=4)
        assert np.array_equal(items[0], np.arange(4))

    def test_k_clamped_to_catalogue(self):
        index = ItemIndex(np.eye(5))
        items, _ = index.top_k(np.ones((1, 5)), k=50)
        assert items.shape == (1, 5)

    def test_exclude_removes_items(self, rng):
        index = ItemIndex(rng.standard_normal((20, 4)))
        user = rng.standard_normal((1, 4))
        items, _ = index.top_k(user, k=20)
        banned = items[0][:3].tolist()
        remaining, _ = index.top_k(user, k=5, exclude=[banned])
        assert not set(banned) & set(remaining[0].tolist())
        assert np.array_equal(remaining[0], items[0][3:8])

    def test_exclude_overflow_pads_instead_of_leaking(self, rng):
        # k exceeds the remaining candidates: excluded items must never be
        # returned; overflow slots carry the -1 / -inf padding sentinel.
        index = ItemIndex(rng.standard_normal((4, 3)))
        user = rng.standard_normal((1, 3))
        items, scores = index.top_k(user, k=3, exclude=[[0, 1, 2]])
        assert items[0][0] == 3
        assert np.array_equal(items[0][1:], [-1, -1])
        assert np.all(np.isneginf(scores[0][1:]))


class TestBatchedSelection:
    """The block-max selection equals a brute-force stable ranking on
    tie-heavy integer latents, at every catalogue/block-size edge."""

    @staticmethod
    def _check(index, users, k, exclude=None):
        items, scores = index.top_k(users, k, exclude=exclude)
        full_scores = index.scores(users)
        assert items.shape == scores.shape == (users.shape[0],
                                               min(k, index.num_items))
        for row in range(users.shape[0]):
            ranking = brute_force_ranking(full_scores[row])
            if exclude is not None:
                ranking = ranking[~np.isin(ranking, list(exclude[row]))]
            expected = ranking[:k]
            got = items[row]
            assert np.array_equal(got[:expected.size], expected)
            assert np.array_equal(scores[row, :expected.size],
                                  full_scores[row, expected])
            assert np.all(got[expected.size:] == -1)
            assert np.all(np.isneginf(scores[row, expected.size:]))

    @pytest.mark.parametrize("num_items", [1, 3, 15, 16, 17, 24, 25, 26,
                                           99, 100, 101])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_brute_force_with_ties(self, num_items, dtype, batch):
        rng = np.random.default_rng(num_items * 7 + batch)
        index = ItemIndex(rng.integers(-2, 3, (num_items, 3)).astype(dtype))
        users = rng.integers(-2, 3, (batch, 3)).astype(dtype)
        width = max(1, int(np.sqrt(num_items)))
        num_blocks = -(-num_items // width)
        # k = 5 exceeds the 1- and 3-item catalogues; beyond num_blocks
        # there is no block-max threshold, and the k-th best entry cuts.
        for k in sorted({1, 2, 5, num_blocks, num_blocks + 1, num_items}):
            self._check(index, users, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exclusion_with_duplicates_and_short_rows(self, dtype):
        rng = np.random.default_rng(11)
        index = ItemIndex(rng.integers(-2, 3, (26, 3)).astype(dtype))
        users = rng.integers(-2, 3, (4, 3)).astype(dtype)
        exclude = [
            [3, 3, 7, 3],                       # duplicates
            list(range(24)),                    # 2 items left, k=5
            [],                                 # nothing banned
            set(range(26)) - {25},              # only the tail item left
        ]
        for k in (1, 5, 26):
            self._check(index, users, k, exclude=exclude)

    @pytest.mark.parametrize("exclude", [None, []])
    def test_empty_batch(self, exclude):
        items, scores = ItemIndex(np.ones((10, 3))).top_k(
            np.ones((0, 3)), 3, exclude=exclude)
        assert items.shape == scores.shape == (0, 3)

    def test_empty_catalogue(self):
        index = ItemIndex(np.ones((0, 3)))
        items, scores = index.top_k(np.ones((2, 3)), 3)
        assert items.shape == scores.shape == index.scores(
            np.ones((2, 3))).shape == (2, 0)


class TestTiledSelection(TestBatchedSelection):
    """The same brute-force pins with the tile budget shrunk so that every
    catalogue spans several tiles: one block per tile (budget 1), or a few
    blocks per tile with the tail block joining the last one."""

    @pytest.fixture(autouse=True, params=[1, 256])
    def small_tiles(self, request, monkeypatch):
        monkeypatch.setattr(item_index, "_TILE_BYTES", request.param)

    def test_catalogues_span_several_tiles(self):
        index = ItemIndex(np.ones((26, 3)))
        tiles = [(lo, hi) for lo, hi, _ in index._score_tiles(np.ones((5, 3)))]
        # Blocks of width 5 plus the one-item tail block, which the last
        # tile takes.
        assert len(tiles) > 1
        assert tiles[0][0] == 0 and tiles[-1][1] == 26
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        assert all(lo % 5 == 0 for lo, _ in tiles)
        assert tiles[-1][1] - tiles[-1][0] > 5

    def test_nan_only_in_last_tile_rejected(self):
        latents = np.ones((26, 2))
        latents[25, 0] = np.nan  # the tail block, scanned last
        with pytest.raises(ValueError, match="NaN"):
            ItemIndex(latents).top_k(np.ones((3, 2)), k=2)

    def test_nan_at_excluded_item_of_later_tile_rejected(self):
        latents = np.ones((26, 2))
        latents[17, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ItemIndex(latents).top_k(np.ones((2, 2)), k=2,
                                     exclude=[[], [17]])


class TestTiledScores:
    """``scores`` tiles exactly like ``top_k``: served scores are its
    entries bit for bit, and no call hands out the reused tile buffer."""

    @pytest.mark.parametrize("budget", [64 * 8 * 71 * 3, 64 * 8 * 71 * 40,
                                        item_index._TILE_BYTES],
                             ids=["3-blocks", "40-blocks", "default"])
    def test_served_scores_are_entries_of_scores(self, budget, monkeypatch):
        monkeypatch.setattr(item_index, "_TILE_BYTES", budget)
        rng = np.random.default_rng(7)
        index = ItemIndex(rng.standard_normal((5050, 24)))  # blocks of 71
        users = rng.standard_normal((64, 24))
        if budget < item_index._TILE_BYTES:
            assert len(list(index._score_tiles(users))) > 1
        items, scores = index.top_k(users, 20)
        full = index.scores(users)
        assert np.array_equal(scores, np.take_along_axis(full, items, 1))
        for row in range(0, 64, 9):
            assert np.array_equal(items[row],
                                  brute_force_ranking(full[row])[:20])

    def test_scores_are_independent_and_correct(self, monkeypatch):
        monkeypatch.setattr(item_index, "_TILE_BYTES", 4 * 8 * 30 * 2)
        rng = np.random.default_rng(8)
        latents = rng.standard_normal((900, 6))  # blocks of 30
        index = ItemIndex(latents)
        users = rng.standard_normal((4, 6))
        first, second = index.scores(users), index.scores(users)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        np.testing.assert_allclose(first, users @ latents.T, rtol=1e-12)
        first[:] = 0.0
        np.testing.assert_allclose(second, users @ latents.T, rtol=1e-12)

    def test_top_k_peak_memory_is_a_fraction_of_the_score_matrix(self):
        import tracemalloc

        rng = np.random.default_rng(9)
        index = ItemIndex(rng.standard_normal((100_000, 64)))
        users = rng.standard_normal((64, 64))
        full_matrix_bytes = 64 * 100_000 * 8
        tracemalloc.start()
        try:
            index.top_k(users, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_matrix_bytes / 2, peak


class TestExcludeValidation:
    """Both backends reject out-of-range exclusion ids the same way."""

    @pytest.fixture(params=["exact", "ivf"])
    def index(self, request):
        from repro.serve import make_index

        latents = np.random.default_rng(0).standard_normal((4, 2))
        options = ({"num_clusters": 2, "nprobe": 2} if request.param == "ivf"
                   else {})
        return make_index(latents, backend=request.param, **options)

    @pytest.mark.parametrize("exclude", [[[-1]], [[4]], [[0, 9]], [[1], [2]]])
    def test_bad_exclude_raises(self, index, exclude):
        # -1 used to wrap to the last item on the exact backend (silently
        # dropping it), 4 raised IndexError there, and IVF ignored both.
        with pytest.raises(ValueError, match="exclude"):
            index.top_k(np.ones((1, 2)), 2, exclude=exclude)

    def test_in_range_exclude_accepted(self, index):
        items, _ = index.top_k(np.ones((1, 2)), 4, exclude=[[0, 3]])
        assert set(items[0].tolist()) == {1, 2, -1}

    def test_exact_validates_before_scoring(self, monkeypatch):
        index = ItemIndex(np.ones((4, 2)))

        def no_scoring(_):
            raise AssertionError("scored before validating exclude")

        monkeypatch.setattr(index, "_score_tiles", no_scoring)
        for exclude in ([[-1]], [[0], [1]]):
            with pytest.raises(ValueError, match="exclude"):
                index.top_k(np.ones((1, 2)), 2, exclude=exclude)
        with pytest.raises(TypeError, match="exclude"):
            index.top_k(np.ones((1, 2)), 2, exclude=[[1.0]])

    @pytest.mark.parametrize("exclude", [[[1.9]], [["1"]], [[0, 1.0]],
                                         [[True]]])
    def test_non_integer_exclude_raises(self, index, exclude):
        # The int64 cast used to truncate 1.9 (and parse "1") to item 1,
        # silently dropping it from the list.
        with pytest.raises(TypeError, match="exclude"):
            index.top_k(np.ones((1, 2)), 3, exclude=exclude)

    def test_integer_exclude_of_any_kind_accepted(self, index):
        for exclude in ([np.array([1], dtype=np.int32)], [(np.int64(1),)],
                        [{1}]):
            items, _ = index.top_k(np.ones((1, 2)), 4, exclude=exclude)
            assert 1 not in items[0].tolist()

    @pytest.mark.parametrize("k, error", [(2.5, TypeError), ("3", TypeError),
                                          (0, ValueError), (-1, ValueError)])
    def test_bad_k_raises(self, index, k, error):
        # 2.5 used to fail inside numpy ("Partition index must be integer")
        # on exact and with "'float' object cannot be interpreted as an
        # integer" on IVF.
        with pytest.raises(error, match="k must be"):
            index.top_k(np.ones((1, 2)), k)

    def test_numpy_integer_k_accepted(self, index):
        items, _ = index.top_k(np.ones((1, 2)), np.int32(3))
        assert items.shape == (1, 3)


class TestItemIndexDtype:
    """The index must not silently double memory for float32 models."""

    def test_float32_latents_are_preserved(self):
        latents = np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32)
        index = ItemIndex(latents)
        assert index.item_latents.dtype == np.float32
        assert index.scores(latents[:2]).dtype == np.float32

    def test_float64_latents_are_preserved(self):
        latents = np.random.default_rng(0).standard_normal((6, 4))
        index = ItemIndex(latents)
        assert index.item_latents.dtype == np.float64
        assert index.scores(latents[:2]).dtype == np.float64

    def test_integer_latents_become_float64(self):
        index = ItemIndex(np.arange(12).reshape(4, 3))
        assert index.item_latents.dtype == np.float64

    def test_float32_top_k_matches_float64(self):
        rng = np.random.default_rng(3)
        latents = rng.standard_normal((20, 8))
        users = rng.standard_normal((3, 8))
        items32, _ = ItemIndex(latents.astype(np.float32)).top_k(
            users.astype(np.float32), k=5)
        items64, scores64 = ItemIndex(latents).top_k(users, k=5)
        for row in range(3):
            assert_rankings_equivalent(
                items32[row], items64[row],
                ItemIndex(latents).scores(users[row:row + 1])[0],
            )


class TestFloat32EndToEnd:
    """A float32 checkpoint must serve float32 end-to-end (no silent upcast
    doubling the user-latent table's memory on the hot path)."""

    def test_top_k_score_buffer_follows_dtype(self, rng):
        latents = rng.standard_normal((30, 8)).astype(np.float32)
        index = ItemIndex(latents)
        items, scores = index.top_k(latents[:4], k=5)
        assert scores.dtype == np.float32
        # With exclusion padding the dtype must survive the -inf sentinel.
        items, scores = index.top_k(latents[:1], k=5, exclude=[[0, 1]])
        assert scores.dtype == np.float32

    @staticmethod
    def _float32_server(model, scenario):
        target = scenario.domain_y.name
        index = ItemIndex(model.encode_items(target).astype(np.float32), target)
        return ColdStartServer(model, scenario.domain_x.name, target, top_k=5,
                               index=index)

    def test_server_latents_and_scores_follow_index_dtype(
            self, trained_model, small_scenario, monkeypatch):
        original = trained_model.encode_users_batch

        def encode_f32(domain):
            return original(domain).astype(np.float32)

        monkeypatch.setattr(trained_model, "encode_users_batch", encode_f32)
        server = self._float32_server(trained_model, small_scenario)
        assert server.user_latents([0, 1, 2]).dtype == np.float32
        assert server.recommend_one(3).scores.dtype == np.float32

    def test_float64_encoder_downcast_to_float32_index(
            self, trained_model, small_scenario):
        # The encoder emits float64; a float32 index must pull the whole
        # table (its memory) and the serve path down to float32.
        server = self._float32_server(trained_model, small_scenario)
        num_users = small_scenario.domain_x.num_users
        table = server.user_latents(np.arange(num_users))
        assert table.dtype == np.float32
        reference = trained_model.encode_users_batch(small_scenario.domain_x.name)
        assert np.array_equal(table, reference.astype(np.float32))
        rec = server.recommend_one(1)
        assert rec.scores.dtype == np.float32
        assert server.score_pairs([1], rec.items[:1]).dtype == np.float32


class TestNaNScoreContract:
    """NaN scores must be rejected, never silently misordered (argpartition's
    boundary threshold and lexsort both mishandle NaN)."""

    def test_nan_user_latent_rejected(self, rng):
        index = ItemIndex(rng.standard_normal((20, 4)))
        query = rng.standard_normal((2, 4))
        query[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            index.top_k(query, k=3)

    def test_nan_item_latent_rejected(self, rng):
        latents = rng.standard_normal((20, 4))
        latents[7, 0] = np.nan
        index = ItemIndex(latents)
        with pytest.raises(ValueError, match="NaN"):
            index.top_k(rng.standard_normal((1, 4)), k=3)

    def test_nan_rejected_at_tie_boundary(self):
        # The silent failure mode: a NaN threshold at the K-th boundary makes
        # both boundary comparisons vacuously false.  k=2 over 4 items puts
        # the NaN among the candidates; unchecked, this returns a
        # wrong-shaped or wrongly-ordered selection instead of raising.
        index = ItemIndex(np.array([[1.0], [np.nan], [0.5], [2.0]]))
        with pytest.raises(ValueError, match="NaN"):
            index.top_k(np.ones((1, 1)), 2)

    @pytest.mark.parametrize("item", [0, 12, 24, 25])
    def test_nan_in_any_block_rejected(self, item):
        # 26 items -> blocks of width 5 plus a one-item tail block (item 25).
        latents = np.ones((26, 2))
        latents[item, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ItemIndex(latents).top_k(np.ones((3, 2)), k=2)

    @pytest.mark.parametrize("row", [0, 2])
    def test_nan_in_any_row_rejected(self, row):
        query = np.ones((3, 2))
        query[row, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ItemIndex(np.ones((26, 2))).top_k(query, k=2)

    def test_nan_at_excluded_item_rejected(self):
        # Exclusion overwrites banned scores with -inf; a NaN there must
        # still be reported, not erased.
        latents = np.ones((10, 2))
        latents[4, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ItemIndex(latents).top_k(np.ones((1, 2)), k=2, exclude=[[4]])

    def test_ivf_rejects_nan_queries(self, rng):
        from repro.serve import IVFIndex

        index = IVFIndex(rng.standard_normal((64, 4)), num_clusters=4)
        query = rng.standard_normal((1, 4))
        query[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            index.top_k(query, k=3)

    def test_scores_without_top_k_still_allowed(self, rng):
        # The contract is on *ranking*: raw score matrices may carry NaN
        # (callers like diagnostics can inspect them), only top_k refuses.
        latents = rng.standard_normal((10, 4))
        latents[3, 1] = np.nan
        assert np.isnan(ItemIndex(latents).scores(
            rng.standard_normal((1, 4)))).any()


class TestColdStartServer:
    def test_recommend_trims_exclusion_padding(self, small_scenario):
        # In-domain serving with exclude_seen: a user whose history leaves
        # fewer than k candidates gets a shorter list, never seen items.
        name = small_scenario.domain_x.name
        model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=8, num_layers=1,
                                                  seed=2))
        server = ColdStartServer(model, source=name, target=name,
                                 exclude_seen=True)
        graph = small_scenario.domain_x.graph
        user = int(np.argmax(graph.user_degrees()))
        seen = set(graph.items_of_user(user).tolist())
        k = graph.num_items - len(seen) + 5  # forces overflow past candidates
        rec = server.recommend_one(user, k=k)
        assert len(rec) == graph.num_items - len(seen)
        assert not seen & set(rec.items.tolist())
        assert np.all(rec.items >= 0) and np.all(np.isfinite(rec.scores))

    def test_topk_matches_brute_force_on_scenario(self, server, small_scenario):
        """Acceptance: served lists == brute-force full ranking, seeded scenario."""
        users = [u.source_user for split in [small_scenario.x_to_y]
                 for u in split.test][:8]
        recommendations = server.recommend(users, k=10)
        for user, rec in zip(users, recommendations):
            latent = server.user_latents([user])
            full = brute_force_ranking(server.index.scores(latent)[0])
            assert np.array_equal(rec.items, full[:10])

    def test_scores_match_cold_start_scores(self, server, small_scenario, trained_model):
        """Server scores equal the model's pairwise scorer (float tolerance)."""
        name_x = small_scenario.domain_x.name
        name_y = small_scenario.domain_y.name
        rec = server.recommend_one(3, k=10)
        reference = trained_model.cold_start_scores(
            name_x, name_y, np.full(10, 3, dtype=np.int64), rec.items
        )
        np.testing.assert_allclose(rec.scores, reference, rtol=1e-12, atol=1e-12)

    def test_ranking_agrees_with_pairwise_scorer(self, server, small_scenario,
                                                 trained_model):
        """Full ranking from the pairwise path equals the served ranking."""
        name_x = small_scenario.domain_x.name
        name_y = small_scenario.domain_y.name
        num_items = small_scenario.domain_y.num_items
        user = 7
        pairwise = trained_model.cold_start_scores(
            name_x, name_y, np.full(num_items, user, dtype=np.int64),
            np.arange(num_items),
        )
        rec = server.recommend_one(user, k=num_items)
        assert_rankings_equivalent(rec.items, brute_force_ranking(pairwise), pairwise)

    def test_batched_equals_per_user(self, trained_model, small_scenario):
        fresh = ColdStartServer(trained_model, small_scenario.domain_x.name,
                                small_scenario.domain_y.name, top_k=5)
        users = [1, 4, 9, 2]
        batched = fresh.recommend(users)
        for user, rec in zip(users, batched):
            single = fresh.recommend_one(user)
            assert np.array_equal(rec.items, single.items)
            # BLAS picks different kernels for 1-row and n-row products, so
            # scores agree to float precision rather than bitwise.
            np.testing.assert_allclose(rec.scores, single.scores,
                                       rtol=1e-12, atol=1e-12)

    def test_refresh_rebuilds_after_weight_change(self, trained_model, small_scenario):
        server = ColdStartServer(trained_model, small_scenario.domain_x.name,
                                 small_scenario.domain_y.name)
        before = server.recommend_one(0, k=5)
        state = trained_model.state_dict()
        try:
            perturbed = {k: v + 0.05 for k, v in state.items()}
            trained_model.load_state_dict(perturbed)
            server.refresh()
            after = server.recommend_one(0, k=5)
            assert not np.array_equal(before.scores, after.scores)
        finally:
            trained_model.load_state_dict(state)
            trained_model.refresh_eval_cache()

    def test_user_table_equals_eval_cache(self, trained_model, small_scenario):
        """One latent source for eval and serve: the served table is
        bitwise the eval cache, at construction and after ``refresh()``."""
        source = small_scenario.domain_x.name
        everyone = np.arange(small_scenario.domain_x.num_users)

        def eval_latents():
            trained_model.refresh_eval_cache()
            return trained_model._eval_cache[source].users.mu.data

        server = ColdStartServer(trained_model, source,
                                 small_scenario.domain_y.name)
        assert np.array_equal(server.user_latents(everyone), eval_latents())
        state = trained_model.state_dict()
        try:
            trained_model.load_state_dict({k: v * 1.1 for k, v in state.items()})
            stale = server.user_latents(everyone)
            server.refresh()
            fresh = server.user_latents(everyone)
            assert not np.array_equal(fresh, stale)
            assert np.array_equal(fresh, eval_latents())
        finally:
            trained_model.load_state_dict(state)
            trained_model.refresh_eval_cache()

    def test_mutating_returned_latents_does_not_leak(self, server):
        """Callers own what ``user_latents`` returns: writing to it must not
        reach the table that later requests are served from."""
        before = server.recommend([2, 5], k=5)
        latents = server.user_latents([2, 5])
        original = latents.copy()
        latents[:] = 0.0
        assert np.array_equal(server.user_latents([2, 5]), original)
        after = server.recommend([2, 5], k=5)
        for old, new in zip(before, after):
            assert np.array_equal(old.items, new.items)
            assert np.array_equal(old.scores, new.scores)

    def test_out_of_range_users_rejected(self, server, small_scenario):
        num_users = small_scenario.domain_x.num_users
        for bad in ([-1], [num_users], [0, num_users + 3]):
            with pytest.raises(ValueError, match="user index out of range"):
                server.user_latents(bad)
        assert server.user_latents([num_users - 1]).shape == (1, server.index.dim)

    def test_score_pairs_scorer_protocol(self, server, small_scenario, trained_model):
        users = np.array([0, 0, 3, 3], dtype=np.int64)
        items = np.array([1, 2, 1, 2], dtype=np.int64)
        reference = trained_model.cold_start_scores(
            small_scenario.domain_x.name, small_scenario.domain_y.name, users, items
        )
        np.testing.assert_allclose(server.score_pairs(users, items), reference,
                                   rtol=1e-12, atol=1e-12)

    def test_score_pairs_rejects_out_of_range_items(self, server):
        """Fancy-indexing regression: a -1 (the top_k padding sentinel) used
        to wrap to the *last* catalogue item and return a confidently wrong
        score; it must raise instead."""
        num_items = server.index.num_items
        with pytest.raises(ValueError, match="item index out of range"):
            server.score_pairs([0, 1], [0, -1])
        with pytest.raises(ValueError, match="item index out of range"):
            server.score_pairs([0], [num_items])
        # In-range traffic is unaffected, including the boundary item.
        scores = server.score_pairs([0], [num_items - 1])
        assert np.isfinite(scores).all()

    def test_score_pairs_rejects_unequal_lengths(self, server):
        """``score_pairs([0], [1, 2, 3])`` used to broadcast user 0 across
        the three items and return three scores."""
        with pytest.raises(ValueError, match="pair up"):
            server.score_pairs([0], [1, 2, 3])
        with pytest.raises(ValueError, match="pair up"):
            server.score_pairs([0, 1], [2])
        assert server.score_pairs([0, 0, 0], [1, 2, 3]).shape == (3,)

    def test_non_integer_ids_rejected(self, server):
        """Truncation regression: a float id used to be cast to int64, so
        ``recommend([1.9])`` served user 1 and ``score_pairs([1], [1.5])``
        scored item 1; both must raise instead."""
        with pytest.raises(TypeError, match="user ids must be integers"):
            server.recommend([1.9])
        with pytest.raises(TypeError, match="user ids must be integers"):
            server.user_latents(np.array([0.0, 2.0]))
        with pytest.raises(TypeError, match="item ids must be integers"):
            server.score_pairs([1], [1.5])
        with pytest.raises(TypeError, match="user ids must be integers"):
            server.score_pairs([1.5], [1])

    def test_integer_ids_of_any_width_and_empty_batches_served(self, server):
        narrow = server.recommend(np.array([1, 4], dtype=np.int32), k=5)
        wide = server.recommend([np.int64(1), 4], k=5)
        for a, b in zip(narrow, wide):
            assert a.user == b.user
            assert np.array_equal(a.items, b.items)
        # np.asarray([]) is float64, but an empty batch holds no bad id.
        assert server.recommend([]) == []
        assert server.user_latents([]).shape == (0, server.index.dim)
        assert server.score_pairs([], []).shape == (0,)

    def test_refresh_swaps_index_and_user_table_at_once(self, trained_model,
                                                        small_scenario):
        """A request served while ``refresh()`` runs sees one checkpoint.

        ``refresh()`` used to install the new index before encoding the new
        user table, so a request in between ranked the old user latents
        against the new items: a list that neither checkpoint serves."""
        source = small_scenario.domain_x.name
        target = small_scenario.domain_y.name
        users = np.arange(small_scenario.domain_x.num_users)
        server = ColdStartServer(trained_model, source, target, top_k=10)

        def reference():
            user_latents = trained_model.encode_users_batch(source)
            item_latents = trained_model.encode_items(target)
            return [item_latents @ user_latents[u] for u in users]

        def assert_served(recommendations, scores_per_user):
            assert len(recommendations) == len(users)
            for rec, scores in zip(recommendations, scores_per_user):
                assert_rankings_equivalent(
                    rec.items, brute_force_ranking(scores)[:10], scores)

        old = reference()
        during = []
        encode = trained_model.encode_users_batch

        def encode_while_serving(domain):
            during.extend(server.recommend(users))
            return encode(domain)

        state = trained_model.state_dict()
        try:
            trained_model.load_state_dict({k: v + 0.05 for k, v in state.items()})
            new = reference()
            trained_model.encode_users_batch = encode_while_serving
            server.refresh()
        finally:
            vars(trained_model).pop("encode_users_batch", None)
            trained_model.load_state_dict(state)
            trained_model.refresh_eval_cache()
        assert any(not np.array_equal(brute_force_ranking(a)[:10],
                                      brute_force_ranking(b)[:10])
                   for a, b in zip(old, new))
        assert_served(during, old)
        assert_served(server.recommend(users), new)

    @pytest.mark.parametrize("k, error", [(2.7, TypeError), ("3", TypeError),
                                          (0, ValueError)])
    def test_bad_k_rejected(self, server, k, error):
        """``recommend([1], k=2.7)`` used to serve 2 items, and ``k="3"``
        or ``k=0`` failed only inside the index."""
        with pytest.raises(error, match="k"):
            server.recommend([1], k=k)
        assert len(server.recommend([1], k=np.int64(3))[0]) == 3

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_nonpositive_top_k_rejected(self, trained_model, small_scenario,
                                        top_k):
        """Such a server used to construct fine and then fail every
        default-``k`` request."""
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            ColdStartServer(trained_model, small_scenario.domain_x.name,
                            small_scenario.domain_y.name, top_k=top_k)


class TestNonFiniteCheckpoint:
    """A diverged checkpoint is refused before it can be served: it used to
    be swapped in silently, after which every request failed."""

    @staticmethod
    def _poison(model, prefix=""):
        model.load_state_dict({
            name: np.full_like(value, np.nan) if name.startswith(prefix)
            else value
            for name, value in model.state_dict().items()})

    @pytest.mark.parametrize("prefix, side", [("", "target"),
                                              ("vbge_x.", "source")])
    def test_refresh_refuses_and_keeps_serving(self, small_scenario, prefix,
                                               side):
        # A model of its own: poisoning it must not touch the shared fixture.
        model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16,
                                                  num_layers=2, seed=1))
        server = ColdStartServer(model, small_scenario.domain_x.name,
                                 small_scenario.domain_y.name, top_k=10)
        users = np.arange(small_scenario.domain_x.num_users)
        before = server.recommend(users)
        self._poison(model, prefix)
        with pytest.raises(ValueError, match=repr(getattr(server, side))):
            server.refresh()
        after = server.recommend(users)
        for old, new in zip(before, after):
            assert np.array_equal(new.items, old.items)
            assert np.array_equal(new.scores, old.scores)

    def test_construction_refuses(self, small_scenario):
        model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16,
                                                  num_layers=2, seed=1))
        self._poison(model)
        with pytest.raises(ValueError, match="not all finite"):
            ColdStartServer(model, small_scenario.domain_x.name,
                            small_scenario.domain_y.name)


@pytest.fixture(scope="module")
def paper_served_setup():
    """``game_video`` at the smoke profile, briefly trained, served X -> Y."""
    from repro.experiments import build_paper_scenario, get_profile, train_cdrib

    profile = get_profile("smoke")
    scenario = build_paper_scenario("game_video", profile)
    config = profile.cdrib.variant(epochs=min(profile.cdrib.epochs, 3))
    model = train_cdrib(scenario, config).model
    split = scenario.x_to_y
    server = ColdStartServer(model, split.source, split.target, top_k=10)
    return scenario, model, server


class TestServingExactness:
    """Served lists are exact on a paper-shaped scenario, not only the toy one."""

    def test_topk_identical_to_brute_force(self, paper_served_setup):
        """Served lists == brute-force full ranking (tie-stable)."""
        scenario, _, server = paper_served_setup
        users = [u.source_user for u in scenario.x_to_y.test][:16]
        recommendations = server.recommend(users, k=10)
        latents = server.user_latents(np.asarray(users, dtype=np.int64))
        for row, rec in enumerate(recommendations):
            full = brute_force_ranking(server.index.scores(latents[row])[0])
            assert np.array_equal(rec.items, full[:10])

    def test_batched_lists_equal_per_user_lists(self, paper_served_setup):
        scenario, _, server = paper_served_setup
        users = [u.source_user for u in scenario.x_to_y.test][:64]
        for user, rec in zip(users, server.recommend(users, k=10)):
            single = server.recommend_one(user, k=10)
            assert rec.user == single.user == user
            assert np.array_equal(rec.items, single.items)
            # BLAS picks different kernels for 1-row and n-row products.
            np.testing.assert_allclose(rec.scores, single.scores,
                                       rtol=1e-12, atol=1e-12)

    def test_full_ranking_agrees_with_pairwise_model_scorer(
            self, paper_served_setup):
        scenario, model, server = paper_served_setup
        split = scenario.x_to_y
        num_items = scenario.domain(split.target).num_items
        user = split.test[0].source_user
        pairwise = model.cold_start_scores(
            split.source, split.target,
            np.full(num_items, user, dtype=np.int64), np.arange(num_items),
        )
        rec = server.recommend_one(user, k=num_items)
        assert_rankings_equivalent(rec.items, brute_force_ranking(pairwise),
                                   pairwise)
        np.testing.assert_allclose(rec.scores, pairwise[rec.items],
                                   rtol=1e-9, atol=1e-12)


class TestMetricsConsistency:
    """Served positions must agree with ``eval.metrics.rank_of_positive``."""

    def test_served_position_equals_metrics_rank(self, server, small_scenario):
        from repro.eval.metrics import rank_of_positive

        num_items = small_scenario.domain_y.num_items
        for user in (0, 5, 12):
            rec = server.recommend_one(user, k=num_items)
            full_scores = server.index.scores(server.user_latents([user]))[0]
            assert np.unique(full_scores).size == num_items  # no ties here
            for position, item in enumerate(rec.items[:10], start=1):
                # Move the item's score to index 0, as the metric expects.
                rolled = np.concatenate(([full_scores[item]],
                                         np.delete(full_scores, item)))
                assert rank_of_positive(rolled, positive_index=0) == position

    def test_tied_positions_bracket_metrics_ranks(self):
        from repro.eval.metrics import rank_of_positive

        # Three 4-way score ties: the served position of each item must sit
        # between the optimistic and pessimistic metric ranks.
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        index = ItemIndex(np.concatenate([base, base, base, base]))
        user = np.array([[2.0, 1.0]])
        items, _ = index.top_k(user, k=12)
        full_scores = index.scores(user)[0]
        for position, item in enumerate(items[0], start=1):
            rolled = np.concatenate(([full_scores[item]],
                                     np.delete(full_scores, item)))
            optimistic = rank_of_positive(rolled, tie_break="optimistic")
            pessimistic = rank_of_positive(rolled, tie_break="pessimistic")
            assert optimistic <= position <= pessimistic


class TestRequestBatcher:
    def test_auto_flush_on_full_batch(self, server):
        batcher = RequestBatcher(server, max_batch_size=3)
        first = batcher.submit(0)
        second = batcher.submit(1)
        assert not first.done and not second.done
        third = batcher.submit(2)  # hits max_batch_size -> auto flush
        assert first.done and second.done and third.done
        assert batcher.batches_flushed == 1
        assert len(batcher) == 0

    def test_explicit_flush_and_result(self, server):
        batcher = RequestBatcher(server, max_batch_size=100)
        ticket = batcher.submit(1, k=4)
        with pytest.raises(RuntimeError):
            ticket.result()
        results = batcher.flush()
        assert len(results) == 1
        assert len(ticket.result()) == 4
        assert ticket.result().user == 1

    def test_batched_results_match_direct(self, server):
        batcher = RequestBatcher(server, max_batch_size=100)
        tickets = [batcher.submit(u) for u in (3, 8, 3)]
        batcher.flush()
        direct = server.recommend([3, 8, 3])
        for ticket, rec in zip(tickets, direct):
            assert np.array_equal(ticket.result().items, rec.items)

    def test_mixed_k_requests(self, server):
        batcher = RequestBatcher(server, max_batch_size=100)
        small = batcher.submit(2, k=3)
        default = batcher.submit(2)
        batcher.flush()
        assert batcher.batches_flushed == 1  # one batch, one call per k
        assert len(small.result()) == 3
        assert len(default.result()) == server.top_k
        assert np.array_equal(small.result().items, default.result().items[:3])

    def test_empty_flush(self, server):
        assert RequestBatcher(server).flush() == []

    def test_bad_batch_size(self, server):
        with pytest.raises(ValueError):
            RequestBatcher(server, max_batch_size=0)

    @pytest.mark.parametrize("size", [2.5, np.float64(3.0)])
    def test_non_integer_batch_size_rejected(self, server, size):
        """``max_batch_size=2.5`` used to serve batches of 2."""
        with pytest.raises(TypeError):
            RequestBatcher(server, max_batch_size=size)
        assert RequestBatcher(server, max_batch_size=np.int64(2)).max_batch_size == 2

    def test_non_integer_user_rejected_at_submit(self, server):
        """``submit(2.5)`` used to queue, and serve, user 2."""
        batcher = RequestBatcher(server, max_batch_size=100)
        with pytest.raises(TypeError):
            batcher.submit(2.5)
        assert len(batcher) == 0
        ticket = batcher.submit(np.int64(2))
        batcher.flush()
        assert ticket.result().user == 2

    @pytest.mark.parametrize(
        "user", [True, np.True_, 2.5, "3", -1, NUM_USERS, 10**9, np.int64(2), 0],
        ids=["True", "np.True_", "2.5", "str-3", "-1", "num_users", "10**9",
             "np.int64-2", "0"])
    def test_submit_refuses_what_recommend_refuses(self, server, small_scenario,
                                                   user):
        """``submit(True)`` used to serve user 1, though ``recommend([True])``
        raises TypeError; a bad id used to be queued and fail at flush."""
        if user is NUM_USERS:
            user = small_scenario.domain_x.graph.num_users
        try:
            server.recommend([user])
        except Exception as error:
            expected = type(error)
        else:
            expected = None
        batcher = RequestBatcher(server, max_batch_size=100)
        if expected is None:
            ticket = batcher.submit(user)
            assert len(batcher) == 1
            batcher.flush()
            assert np.array_equal(ticket.result().items,
                                  server.recommend([user])[0].items)
        else:
            with pytest.raises(expected) as caught:
                batcher.submit(user)
            assert type(caught.value) is expected
            assert len(batcher) == 0

    @pytest.mark.parametrize("k, error", [(2.9, TypeError), ("3", TypeError),
                                          (0, ValueError)])
    def test_bad_k_rejected_at_submit(self, server, k, error):
        """``submit(1, k=2.9)`` used to serve 2 items, and ``k=0`` was
        queued and failed only when its batch was flushed."""
        batcher = RequestBatcher(server, max_batch_size=100)
        with pytest.raises(error):
            batcher.submit(1, k=k)
        assert len(batcher) == 0
        ticket = batcher.submit(1, k=np.int64(3))
        batcher.flush()
        assert len(ticket.result()) == 3


class IndexDown(Exception):
    """Raised by an item index made to fail in a test."""


def _break_index(server, monkeypatch):
    """Make ``server``'s item index raise until the returned callable runs."""
    top_k, down = server.index.top_k, [True]

    def flaky_top_k(*args, **kwargs):
        if down:
            raise IndexDown("item index unavailable")
        return top_k(*args, **kwargs)

    monkeypatch.setattr(server.index, "top_k", flaky_top_k)
    return down.clear


def _count_recommend_calls(server, monkeypatch):
    """Record the ``(users, k)`` of each ``server.recommend`` call."""
    calls, recommend = [], server.recommend

    def counting_recommend(users, k=None):
        calls.append((list(users), k))
        return recommend(users, k=k)

    monkeypatch.setattr(server, "recommend", counting_recommend)
    return calls


class TestRequestBatcherPoisonedBatch:
    """One bad request must never cost the batch it rides in.  A bad user
    id is refused at submit, before it is queued, so co-batched requests
    are served in one call per ``k``-group; a group whose call raises fails
    each of its tickets with that one error."""

    def test_bad_user_fails_only_its_own_ticket(self, server, monkeypatch):
        calls = _count_recommend_calls(server, monkeypatch)
        batcher = RequestBatcher(server, max_batch_size=100)
        good_before = batcher.submit(1)
        with pytest.raises(ValueError):
            batcher.submit(10**9)             # out of range for the source
        assert len(batcher) == 1
        good_after = batcher.submit(2)
        results = batcher.flush()
        assert len(batcher) == 0
        assert calls == [([1, 2], None)]     # the healthy requests: one call
        monkeypatch.undo()
        for ticket, result in zip((good_before, good_after), results):
            direct = server.recommend([ticket.user])[0]
            assert result is ticket.result()
            assert np.array_equal(ticket.result().items, direct.items)

    def test_poison_in_one_k_group_spares_other_groups(self, server):
        batcher = RequestBatcher(server, max_batch_size=100)
        clean_group = batcher.submit(3, k=4)
        with pytest.raises(ValueError):
            batcher.submit(10**9, k=7)
        victim = batcher.submit(5, k=7)
        batcher.flush()
        assert len(clean_group.result()) == 4
        assert not victim.failed and len(victim.result()) == 7

    def test_all_good_batch_unaffected(self, server):
        # A healthy batch is one vectorized recommend per k-group.
        calls = []
        original_recommend = server.recommend

        def counting_recommend(users, k=None):
            calls.append(list(users))
            return original_recommend(users, k=k)

        batcher = RequestBatcher(server, max_batch_size=100)
        tickets = [batcher.submit(u) for u in (1, 2, 3)]
        server.recommend = counting_recommend
        try:
            batcher.flush()
        finally:
            server.recommend = original_recommend
        assert calls == [[1, 2, 3]]
        assert all(t.done and not t.failed for t in tickets)

    def test_failed_ticket_reports_done_but_failed(self, server, monkeypatch):
        batcher = RequestBatcher(server, max_batch_size=100)
        ticket = batcher.submit(1)
        assert not ticket.done
        _break_index(server, monkeypatch)
        batcher.flush()
        assert ticket.done and ticket.failed
        with pytest.raises(IndexDown):
            ticket.result()

    @pytest.mark.parametrize("started", [False, True])
    def test_failing_group_fails_once(self, server, small_scenario,
                                      monkeypatch, started):
        """A ``k``-group whose ``recommend`` raises used to be retried per
        request: 66 calls for these 64 requests, and an error per ticket."""
        num_users = small_scenario.domain_x.graph.num_users
        requests = [(u % num_users, 3 if u % 2 else None)
                    for u in range(0, 448, 7)]
        assert len(requests) == 64
        calls = _count_recommend_calls(server, monkeypatch)
        restore_index = _break_index(server, monkeypatch)
        with RequestBatcher(server, max_batch_size=100) as batcher:
            tickets = [batcher.submit(u, k=k) for u, k in requests]
            if started:
                batcher.start()  # its first flush takes the whole queue
            else:
                assert batcher.flush() == [None] * 64
            errors = {}
            for ticket in tickets:
                with pytest.raises(IndexDown) as caught:
                    ticket.result(timeout=30.0)
                assert ticket.done and ticket.failed
                errors.setdefault(ticket.k, set()).add(id(caught.value))
            # One call per k-group.
            assert sorted(str(k) for _, k in calls) == ["3", "None"]
            assert {k: len(ids) for k, ids in errors.items()} == {3: 1, None: 1}

            restore_index()
            healthy = [batcher.submit(u, k=k) for u, k in requests]
            if not started:
                batcher.flush()
            served = [ticket.result(timeout=30.0) for ticket in healthy]
            if started:
                assert batcher._flusher.is_alive()
        monkeypatch.undo()
        for (user, k), rec in zip(requests, served):
            reference = server.recommend([user], k=k)[0]
            assert rec.user == user
            assert np.array_equal(rec.items, reference.items)
            np.testing.assert_allclose(rec.scores, reference.scores,
                                       rtol=1e-12, atol=1e-12)


class TestRequestBatcherFlushEdgeCases:
    """Flush paths left untested by the initial serving PR."""

    def test_empty_flush_is_noop(self, server):
        batcher = RequestBatcher(server, max_batch_size=4)
        assert batcher.flush() == []
        assert batcher.batches_flushed == 0
        assert len(batcher) == 0

    def test_requests_arriving_during_flush_join_next_batch(self, server):
        """A submit issued while a flush is serving must not be lost, must

        not be fulfilled by the in-flight batch, and must be served by the
        following flush."""
        batcher = RequestBatcher(server, max_batch_size=100)
        late_tickets = []
        original_recommend = server.recommend

        def recommending_submits(users, k=None):
            if not late_tickets:  # only on the first (outer) flush
                late_tickets.append(batcher.submit(5))
            return original_recommend(users, k=k)

        batcher.submit(0)
        batcher.submit(1)
        server.recommend = recommending_submits
        try:
            results = batcher.flush()
        finally:
            server.recommend = original_recommend
        assert len(results) == 2
        late = late_tickets[0]
        assert not late.done            # not swept into the in-flight batch
        assert len(batcher) == 1        # queued for the next flush
        batcher.flush()
        assert late.done
        assert np.array_equal(late.result().items,
                              server.recommend([5])[0].items)
