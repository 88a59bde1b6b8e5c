"""Tests for the approximate retrieval subsystem (``repro.serve.ann``)."""

import time

import numpy as np
import pytest

from repro.eval import recall_against_exact
from repro.experiments import make_synthetic_catalog
from repro.io import CheckpointError, load_checkpoint
from repro.serve import (
    INDEX_BACKENDS,
    ColdStartServer,
    IVFIndex,
    ItemIndex,
    TopKIndex,
    brute_force_ranking,
    build_index,
    kmeans_quantizer,
    load_index,
    make_index,
    save_index,
)


@pytest.fixture(scope="module")
def catalog_and_queries():
    """A small clustered catalogue + queries (IVF's favourable geometry).

    Same generator as the catalogue-scale gate below (one source of truth
    for the synthetic cluster geometry), at unit-test scale.
    """
    return make_synthetic_catalog(num_items=4000, dim=16, seed=0,
                                  num_centers=48, noise=0.2, num_queries=24)


@pytest.fixture(scope="module")
def exact_and_ivf(catalog_and_queries):
    catalog, _ = catalog_and_queries
    return ItemIndex(catalog), IVFIndex(catalog, seed=0)


class TestKMeansQuantizer:
    def test_deterministic_under_seed(self, catalog_and_queries):
        catalog, _ = catalog_and_queries
        a = kmeans_quantizer(catalog, 32, seed=3)
        b = kmeans_quantizer(catalog, 32, seed=3)
        assert np.array_equal(a, b)
        c = kmeans_quantizer(catalog, 32, seed=4)
        assert not np.array_equal(a, c)

    def test_shapes_and_validation(self, catalog_and_queries):
        catalog, _ = catalog_and_queries
        centroids = kmeans_quantizer(catalog[:100], 10, seed=0)
        assert centroids.shape == (10, catalog.shape[1])
        with pytest.raises(ValueError):
            kmeans_quantizer(catalog[:5], 6)
        with pytest.raises(ValueError):
            kmeans_quantizer(catalog[:5], 0)


class TestTopKIndexProtocol:
    def test_both_backends_satisfy_protocol(self, exact_and_ivf):
        exact, ivf = exact_and_ivf
        for index in exact_and_ivf:
            assert isinstance(index, TopKIndex)
            assert index.num_items == exact.num_items
            assert index.dim == exact.dim
        assert exact.backend == "exact"
        assert ivf.backend == "ivf"

    def test_build_options_rebuild_equivalent_index(self, catalog_and_queries):
        catalog, queries = catalog_and_queries
        ivf = IVFIndex(catalog, num_clusters=40, nprobe=6, seed=9)
        rebuilt = IVFIndex(catalog, **ivf.build_options())
        items_a, scores_a = ivf.top_k(queries, 10)
        items_b, scores_b = rebuilt.top_k(queries, 10)
        assert np.array_equal(items_a, items_b)
        assert np.array_equal(scores_a, scores_b)
        assert ItemIndex(catalog).build_options() == {}


class TestIVFIndex:
    def test_full_probe_matches_exact(self, catalog_and_queries):
        catalog, queries = catalog_and_queries
        exact = ItemIndex(catalog)
        ivf = IVFIndex(catalog, seed=0)
        ivf.nprobe = ivf.num_clusters  # every cell probed -> exact candidates
        exact_items, exact_scores = exact.top_k(queries, 10)
        ivf_items, ivf_scores = ivf.top_k(queries, 10)
        assert np.array_equal(ivf_items, exact_items)
        # Same latents, same inner product; per-cell GEMV vs batched GEMM
        # may differ in the last ulp (the repo-wide cross-path caveat).
        np.testing.assert_allclose(ivf_scores, exact_scores,
                                   rtol=1e-12, atol=1e-14)

    def test_default_nprobe_recall_on_clustered_data(self, exact_and_ivf,
                                                     catalog_and_queries):
        _, queries = catalog_and_queries
        exact, ivf = exact_and_ivf
        exact_items, _ = exact.top_k(queries, 10)
        ivf_items, _ = ivf.top_k(queries, 10)
        assert recall_against_exact(ivf_items, exact_items) >= 0.9

    def test_raising_nprobe_never_hurts_recall(self, catalog_and_queries):
        catalog, queries = catalog_and_queries
        exact_items, _ = ItemIndex(catalog).top_k(queries, 10)
        ivf = IVFIndex(catalog, num_clusters=64, nprobe=1, seed=0)
        recalls = []
        for nprobe in (1, 4, 16, 64):
            ivf.nprobe = nprobe
            items, _ = ivf.top_k(queries, 10)
            recalls.append(recall_against_exact(items, exact_items))
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_surfaced_scores_are_exact(self, exact_and_ivf, catalog_and_queries):
        """Approximation may drop items, never mis-score the surfaced ones."""
        _, queries = catalog_and_queries
        exact, ivf = exact_and_ivf
        items, scores = ivf.top_k(queries, 10)
        full = exact.scores(queries)
        for row in range(queries.shape[0]):
            valid = items[row] >= 0
            np.testing.assert_allclose(scores[row][valid],
                                       full[row][items[row][valid]],
                                       rtol=1e-12, atol=1e-14)
            # Rows come back sorted by descending score.
            assert np.all(np.diff(scores[row][valid]) <= 0)

    def test_tie_stability_matches_brute_force(self):
        # Duplicated latents force exact score ties; with every cell probed
        # the IVF ordering must equal the brute-force stable ranking,
        # including ties broken by ascending catalogue id.
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        catalog = np.concatenate([base, base, base, base])
        ivf = IVFIndex(catalog, num_clusters=3, nprobe=3, seed=1)
        query = np.array([[2.0, 1.0]])
        full = brute_force_ranking(ItemIndex(catalog).scores(query)[0])
        for k in range(1, 13):
            items, _ = ivf.top_k(query, k)
            assert np.array_equal(items[0], full[:k]), f"tie mismatch at k={k}"

    def test_exclude_removes_items_and_pads(self, catalog_and_queries):
        catalog, queries = catalog_and_queries
        ivf = IVFIndex(catalog, num_clusters=16, nprobe=16, seed=0)
        items, _ = ivf.top_k(queries[:1], 8)
        banned = items[0][:3].tolist()
        remaining, _ = ivf.top_k(queries[:1], 5, exclude=[banned])
        assert not set(banned) & set(remaining[0].tolist())
        assert np.array_equal(remaining[0], items[0][3:8])

    def test_small_nprobe_pads_instead_of_inventing(self):
        # One probed cell holding fewer than k items: trailing slots carry
        # the -1 / -inf padding, exactly like ItemIndex's exclude overflow.
        rng = np.random.default_rng(0)
        catalog = rng.standard_normal((30, 4))
        ivf = IVFIndex(catalog, num_clusters=15, nprobe=1, seed=0)
        items, scores = ivf.top_k(rng.standard_normal((1, 4)), 10)
        padding = items[0] == -1
        assert padding.any()
        assert np.all(np.isneginf(scores[0][padding]))
        assert np.all(scores[0][~padding] > -np.inf)

    def test_k_clamped_and_validation(self, catalog_and_queries):
        catalog, queries = catalog_and_queries
        ivf = IVFIndex(catalog[:20], num_clusters=4, nprobe=4, seed=0)
        items, _ = ivf.top_k(queries[:1], 50)
        assert items.shape == (1, 20)
        with pytest.raises(ValueError):
            ivf.top_k(queries[:1], 0)
        with pytest.raises(ValueError):
            ivf.nprobe = 0
        with pytest.raises(ValueError):
            IVFIndex(catalog[:20], num_clusters=0)
        with pytest.raises(ValueError):
            ivf.top_k(queries[:2], 3, exclude=[[1]])

    @pytest.mark.parametrize("options", [dict(nprobe=2.7), dict(num_clusters=10.9),
                                         dict(num_clusters="4")])
    def test_non_integer_sizes_rejected(self, catalog_and_queries, options):
        """``IVFIndex(nprobe=2.7, num_clusters=10.9)`` used to build with 2
        probes over 10 cells."""
        catalog, _ = catalog_and_queries
        with pytest.raises(TypeError):
            IVFIndex(catalog[:20], **options)

    def test_non_integer_nprobe_assignment_rejected(self, catalog_and_queries):
        """``ivf.nprobe = "3"`` used to be parsed as 3."""
        catalog, _ = catalog_and_queries
        ivf = IVFIndex(catalog[:20], num_clusters=4, nprobe=1, seed=0)
        for value in ("3", 2.7):
            with pytest.raises(TypeError):
                ivf.nprobe = value
        assert ivf.nprobe == 1
        ivf.nprobe = np.int64(3)
        assert ivf.nprobe == 3

    def test_num_clusters_clamped_to_catalog(self):
        catalog = np.random.default_rng(0).standard_normal((7, 3))
        ivf = IVFIndex(catalog, num_clusters=50, nprobe=50)
        assert ivf.num_clusters == 7
        assert ivf.nprobe == 7

    def test_float32_preserved_under_protocol(self, catalog_and_queries):
        """The dtype guarantee of ItemIndex holds for every backend."""
        catalog, queries = catalog_and_queries
        for backend in ("exact", "ivf"):
            index = make_index(catalog.astype(np.float32), backend=backend)
            assert index.item_latents.dtype == np.float32
            assert index.scores(queries[:2].astype(np.float32)).dtype == np.float32
            # top_k scores follow the query/catalogue promotion: a float32
            # serve path stays float32 end-to-end, items stay int64.
            items, scores = index.top_k(queries[:2].astype(np.float32), 5)
            assert items.dtype == np.int64
            assert scores.dtype == np.float32
            # A float64 query against a float32 catalogue promotes to float64.
            _, scores64 = index.top_k(queries[:2].astype(np.float64), 5)
            assert scores64.dtype == np.float64

    def test_integer_latents_become_float64(self):
        index = IVFIndex(np.arange(60).reshape(20, 3), num_clusters=4)
        assert index.item_latents.dtype == np.float64


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"exact", "ivf"} <= set(INDEX_BACKENDS)

    def test_make_index_dispatches(self, catalog_and_queries):
        catalog, _ = catalog_and_queries
        assert isinstance(make_index(catalog, backend="exact"), ItemIndex)
        assert isinstance(make_index(catalog, backend="ivf", num_clusters=8),
                          IVFIndex)
        with pytest.raises(KeyError):
            make_index(catalog, backend="nope")


class TestIndexPersistence:
    def test_ivf_roundtrip_is_bit_identical(self, tmp_path, catalog_and_queries):
        catalog, queries = catalog_and_queries
        ivf = IVFIndex(catalog, num_clusters=32, nprobe=5, seed=2, domain="video")
        path = str(tmp_path / "ivf-index")
        save_index(path, ivf)
        loaded = load_index(path)
        assert isinstance(loaded, IVFIndex)
        assert loaded.domain == "video"
        assert loaded.build_options() == ivf.build_options()
        items_a, scores_a = ivf.top_k(queries, 10)
        items_b, scores_b = loaded.top_k(queries, 10)
        assert np.array_equal(items_a, items_b)
        assert np.array_equal(scores_a, scores_b)

    def test_exact_roundtrip(self, tmp_path, catalog_and_queries):
        catalog, queries = catalog_and_queries
        path = str(tmp_path / "exact-index")
        save_index(path, ItemIndex(catalog, domain="video"))
        loaded = load_index(path)
        assert isinstance(loaded, ItemIndex)
        assert np.array_equal(loaded.item_latents, catalog)

    def test_manifest_checksum_validates(self, tmp_path, catalog_and_queries):
        """The index artifact inherits repro.io's corruption refusal."""
        import json

        catalog, _ = catalog_and_queries
        path = str(tmp_path / "idx")
        save_index(path, IVFIndex(catalog, num_clusters=8, seed=0))
        checkpoint = load_checkpoint(path)  # validates sha256
        assert checkpoint.manifest["kind"] == "topk-index"
        assert checkpoint.manifest["index"]["backend"] == "ivf"
        with open(tmp_path / "idx" / "payload.npz", "ab") as handle:
            handle.write(b"rot")
        with pytest.raises(CheckpointError, match="checksum"):
            load_index(path)
        # A checkpoint of another kind is refused outright.
        other = str(tmp_path / "other")
        from repro.io import save_checkpoint
        save_checkpoint(other, {"x": np.zeros(3)}, kind="state")
        with pytest.raises(CheckpointError):
            load_index(other)
        # Valid kind but missing index metadata is also refused.
        bad = str(tmp_path / "bad")
        save_checkpoint(bad, {"index/item_latents": catalog}, kind="topk-index")
        with pytest.raises(CheckpointError, match="metadata"):
            load_index(bad)


#: The catalogue-scale gate: IVF at its default settings on 200k x 64 items.
CATALOG_ITEMS = 200_000
CATALOG_DIM = 64


@pytest.fixture(scope="module")
def catalogue_scale():
    """Queries plus exact and default IVF indexes over the 200k catalogue."""
    catalog, queries = make_synthetic_catalog(CATALOG_ITEMS, CATALOG_DIM)
    return (queries, make_index(catalog, backend="exact"),
            make_index(catalog, backend="ivf"))


def _sweep(index, queries, k=10, batch_size=64):
    """Serve every query in batches; returns (item lists, seconds)."""
    start = time.perf_counter()
    lists = [index.top_k(queries[begin:begin + batch_size], k)[0]
             for begin in range(0, len(queries), batch_size)]
    return np.concatenate(lists), time.perf_counter() - start


class TestAnnRetrievalGates:
    """IVF vs brute force at catalogue scale, profile-independent."""

    def test_ivf_recall_at_10_floor(self, catalogue_scale):
        """Acceptance: recall@10 >= 0.95 against exact search."""
        queries, exact, ivf = catalogue_scale
        exact_items, _ = _sweep(exact, queries)
        ivf_items, _ = _sweep(ivf, queries)
        assert recall_against_exact(ivf_items, exact_items) >= 0.95

    def test_exact_backend_is_its_own_reference(self, catalogue_scale):
        queries, exact, _ = catalogue_scale
        exact_items, _ = _sweep(exact, queries)
        assert recall_against_exact(exact_items, exact_items) == 1.0

    def test_ivf_faster_than_exact(self, catalogue_scale):
        """IVF at default nprobe beats brute force; no fixed multiple (the
        ``retrieve-*`` workloads of ``python3 -m bench`` track the speed).
        Each backend is warmed up, then timed as its fastest of 3 sweeps."""
        queries, exact, ivf = catalogue_scale
        best = {}
        for index in (exact, ivf):
            index.top_k(queries[:64], 10)  # warm-up (BLAS threads)
            best[index.backend] = min(_sweep(index, queries)[1]
                                      for _ in range(3))
        assert best["ivf"] < best["exact"], best


@pytest.fixture(scope="module")
def trained_model(small_scenario):
    from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer

    model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16, num_layers=2,
                                              epochs=2, batch_size=128,
                                              num_negatives=2, seed=0))
    CDRIBTrainer(model).fit()
    return model


class TestServerWithIVF:
    def test_server_builds_and_serves_through_ivf(self, trained_model,
                                                  small_scenario):
        source = small_scenario.domain_x.name
        target = small_scenario.domain_y.name
        exact = ColdStartServer(trained_model, source, target, top_k=10)
        num_clusters = max(2, exact.index.num_items // 8)
        ivf = ColdStartServer(trained_model, source, target, top_k=10,
                              index_backend="ivf",
                              index_options={"num_clusters": num_clusters,
                                             "nprobe": max(1, num_clusters // 2),
                                             "seed": 0})
        assert isinstance(ivf.index, IVFIndex)
        users = [u.source_user for u in small_scenario.x_to_y.test][:8]
        exact_recs = exact.recommend(users)
        ivf_recs = ivf.recommend(users)
        exact_items = np.stack([r.items for r in exact_recs])
        ivf_items = np.stack([np.pad(r.items, (0, 10 - len(r)),
                                     constant_values=-1) for r in ivf_recs])
        assert recall_against_exact(ivf_items, exact_items) >= 0.5
        # Surfaced scores come from the same inner product as exact serving.
        for rec in ivf_recs:
            reference = exact.index.scores(ivf.user_latents([rec.user]))[0]
            np.testing.assert_allclose(rec.scores, reference[rec.items],
                                       rtol=1e-12, atol=1e-14)

    def test_refresh_preserves_backend(self, trained_model, small_scenario):
        server = ColdStartServer(trained_model, small_scenario.domain_x.name,
                                 small_scenario.domain_y.name,
                                 index_backend="ivf",
                                 index_options={"num_clusters": 4, "nprobe": 4})
        before = server.index
        server.refresh()
        assert isinstance(server.index, IVFIndex)
        assert server.index is not before
        assert server.index.build_options() == before.build_options()

    def test_prebuilt_index_is_served_and_validated(self, tmp_path,
                                                    trained_model,
                                                    small_scenario):
        source = small_scenario.domain_x.name
        target = small_scenario.domain_y.name
        built = ColdStartServer(trained_model, source, target,
                                index_backend="ivf",
                                index_options={"num_clusters": 4, "nprobe": 4})
        path = str(tmp_path / "served-index")
        save_index(path, built.index)
        loaded = load_index(path)
        server = ColdStartServer(trained_model, source, target, index=loaded)
        assert server.index is loaded
        rec_a = built.recommend_one(3, k=5)
        rec_b = server.recommend_one(3, k=5)
        assert np.array_equal(rec_a.items, rec_b.items)
        # An index of the wrong catalogue is refused at construction.
        wrong = IVFIndex(np.random.default_rng(0).standard_normal((7, 16)),
                         num_clusters=2, nprobe=2)
        with pytest.raises(ValueError, match="items"):
            ColdStartServer(trained_model, source, target, index=wrong)
