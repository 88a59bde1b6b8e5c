"""ANN retrieval benchmark: IVF vs brute force at catalogue scale.

Acceptance gates for the approximate retrieval subsystem
(``repro.serve.ann``):

* at a >= 200k-item synthetic catalogue, the IVF backend at its *default*
  ``nprobe`` reaches **recall@10 >= 0.95** against the exact top-10 lists
  and is faster than exact search (how much faster depends on the core
  count; the ``retrieve-exact`` / ``retrieve-ivf`` workloads of ``bench/``
  track the speed), and
* ``serve --checkpoint ... --index ivf --index-dir D`` round-trips through a
  checkpointed index whose manifest checksum validates: the second
  invocation loads the saved index (no k-means re-run) and serves
  bit-identical lists, while a corrupted index artifact refuses to load.

The catalogue-scale gates are profile-independent (synthetic latents, fixed
size); only the checkpoint round-trip trains a model, at the harness
profile.  Run with ``pytest benchmarks/test_ann_retrieval.py -s`` to see the
throughput/recall table.
"""

import numpy as np
import pytest

from repro.experiments import format_rows
from repro.experiments.runners import run_ann_benchmark, run_checkpoint_serving
from repro.io import CheckpointError

CATALOG_ITEMS = 200_000
CATALOG_DIM = 64


@pytest.fixture(scope="module")
def ann_rows():
    """Exact vs IVF at default settings on the 200k catalogue (the gate)."""
    rows = run_ann_benchmark(num_items=CATALOG_ITEMS, dim=CATALOG_DIM,
                             top_k=10)
    print("\n" + format_rows(rows, float_digits=3))
    return rows


class TestAnnRetrievalGates:
    def test_row_schema(self, ann_rows):
        assert [row["backend"] for row in ann_rows] == ["exact", "ivf"]
        assert {"num_items", "queries_per_sec", "speedup_vs_exact",
                "recall_at_k", "build_seconds"} <= set(ann_rows[0])
        assert all(row["num_items"] >= 200_000 for row in ann_rows)

    def test_exact_backend_is_its_own_reference(self, ann_rows):
        exact = next(row for row in ann_rows if row["backend"] == "exact")
        assert exact["recall_at_k"] == 1.0
        assert exact["speedup_vs_exact"] == 1.0

    def test_ivf_faster_than_exact(self, ann_rows):
        """IVF at default nprobe beats brute force; no fixed multiple."""
        ivf = next(row for row in ann_rows if row["backend"] == "ivf")
        assert ivf["speedup_vs_exact"] > 1.0, ivf

    def test_ivf_recall_at_10_floor(self, ann_rows):
        """Acceptance: recall@10 >= 0.95 against exact search."""
        ivf = next(row for row in ann_rows if row["backend"] == "ivf")
        assert ivf["recall_at_k"] >= 0.95, ivf


class TestCheckpointedIndexRoundTrip:
    """serve --checkpoint --index ivf --index-dir: durable-index acceptance."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory, profile):
        from repro.experiments.runners import run_training_job

        path = str(tmp_path_factory.mktemp("ann-ckpt") / "ckpt")
        run_training_job("game_video", profile=profile, epochs=1,
                         save_path=path)
        return path

    def test_round_trip_is_identical_and_checksummed(self, tmp_path_factory,
                                                     checkpoint):
        from repro.io import load_checkpoint

        index_dir = str(tmp_path_factory.mktemp("ann-index") / "ivf-index")
        first = run_checkpoint_serving(checkpoint, top_k=5, num_users=4,
                                       index_backend="ivf", nprobe=4,
                                       index_dir=index_dir)
        # The first call persisted the index as a repro.io checkpoint whose
        # manifest checksum validates.
        artifact = load_checkpoint(index_dir, expect_kind="topk-index")
        assert artifact.manifest["index"]["backend"] == "ivf"
        assert len(artifact.manifest["payload"]["sha256"]) == 64

        # The second call loads that artifact (k-means not re-run) and must
        # serve the exact same lists and scores.
        second = run_checkpoint_serving(checkpoint, top_k=5, num_users=4,
                                        index_backend="ivf", nprobe=4,
                                        index_dir=index_dir)
        assert first == second
        assert all(row["index"] == "ivf" for row in second)

    def test_ivf_lists_are_subsets_of_exact_serving(self, checkpoint):
        exact = run_checkpoint_serving(checkpoint, top_k=5, num_users=4)
        generous = run_checkpoint_serving(checkpoint, top_k=5, num_users=4,
                                          index_backend="ivf", nprobe=1000)
        # With every cell probed the IVF candidates cover the catalogue, so
        # the served lists coincide with exact serving.
        for row_exact, row_ivf in zip(exact, generous):
            assert row_exact["items"] == row_ivf["items"]
            np.testing.assert_allclose(row_exact["scores"], row_ivf["scores"],
                                       rtol=1e-12, atol=1e-14)

    def test_corrupt_index_artifact_refuses_to_load(self, tmp_path_factory,
                                                    checkpoint):
        import os

        index_dir = str(tmp_path_factory.mktemp("ann-rot") / "idx")
        run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                               index_backend="ivf", nprobe=4,
                               index_dir=index_dir)
        with open(os.path.join(index_dir, "payload.npz"), "ab") as handle:
            handle.write(b"bitrot")
        with pytest.raises(CheckpointError, match="checksum"):
            run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                   index_backend="ivf", nprobe=4,
                                   index_dir=index_dir)

    def test_backend_mismatch_refused(self, tmp_path_factory, checkpoint):
        index_dir = str(tmp_path_factory.mktemp("ann-mismatch") / "idx")
        run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                               index_backend="ivf", nprobe=4,
                               index_dir=index_dir)
        with pytest.raises(CheckpointError, match="backend"):
            run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                   index_backend="exact", index_dir=index_dir)

    def test_nprobe_is_ignored_for_exact_backend(self, checkpoint):
        # --nprobe without --index ivf must not crash exact serving (the
        # flag only means something to IVF).
        rows = run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                      nprobe=8)
        assert all(row["index"] == "exact" for row in rows)

    def test_stale_index_from_other_latents_refused(self, tmp_path_factory,
                                                    checkpoint):
        # An index artifact of the right backend and *size* but built from
        # different item latents (e.g. an older training run) must refuse
        # to serve rather than score against a stale catalogue.
        from repro.serve import IVFIndex, load_index, save_index

        index_dir = str(tmp_path_factory.mktemp("ann-stale") / "idx")
        run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                               index_backend="ivf", nprobe=4,
                               index_dir=index_dir)
        genuine = load_index(index_dir)
        stale_latents = genuine.item_latents + 0.05
        save_index(index_dir, IVFIndex(stale_latents,
                                       domain=genuine.domain,
                                       **genuine.build_options()))
        with pytest.raises(CheckpointError, match="different item latents"):
            run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                   index_backend="ivf", nprobe=4,
                                   index_dir=index_dir)
