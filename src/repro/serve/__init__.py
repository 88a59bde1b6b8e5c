"""High-throughput cold-start serving for CDRIB (``repro.serve``).

This package turns the reproduction's inference scheme — encode a cold-start
user with the source-domain VBGE, score against target-domain item latents —
into a batched serving subsystem:

* :class:`TopKIndex` — the retrieval protocol every backend implements.
* :class:`ItemIndex` — the ``"exact"`` backend: target-domain item latents,
  precomputed once per checkpoint, with exact-tie top-K retrieval via one
  tiled block-max selection over the catalogue.
* :class:`IVFIndex` — the ``"ivf"`` backend: inverted-file approximate
  retrieval (k-means coarse quantizer, cluster-major storage,
  ``nprobe``-controlled probing, exact re-ranking of candidates) for
  catalogue scales where brute force caps throughput.
* :class:`ColdStartServer` — one read-only user-latent table per checkpoint
  (a single full-graph no-grad VBGE pass), so serving a batch is a row
  gather plus top-K against either index
  (``index_backend="exact" | "ivf"``).  It keeps no per-request state, so
  ``recommend`` is a function of (snapshot, users, k), safe on any thread.
* :class:`RequestBatcher` — micro-batching queue with one lock, for streaming
  workloads: ``submit()`` from any thread returns a
  :class:`PendingRequest` ticket, ``start()`` launches a work-conserving
  background flusher that serves the queue whenever it is idle, so batches
  grow with load, and served lists stay bit-identical to the synchronous
  path.  :class:`ServingFrontend` is a batcher started at construction.
* :func:`make_index` / :func:`build_index` / :func:`save_index` /
  :func:`load_index` — backend dispatch by name and checksummed on-disk index
  artifacts (:mod:`repro.io` checkpoints).

Served top-K lists from the exact backend are identical to a brute-force
stable full ranking of the catalogue, including score ties; the IVF backend
surfaces a measured-recall subset but scores it with the same inner product
(see ``tests/test_serve.py``, ``tests/test_serve_ann.py`` and
``docs/SERVING.md``).
"""

from .ann import (
    INDEX_BACKENDS,
    IVFIndex,
    build_index,
    kmeans_quantizer,
    load_index,
    make_index,
    save_index,
)
from .batching import PendingRequest, RequestBatcher, ServingFrontend
from .item_index import ItemIndex, TopKIndex, brute_force_ranking
from .server import ColdStartServer, Recommendation

__all__ = [
    "TopKIndex",
    "ItemIndex",
    "IVFIndex",
    "INDEX_BACKENDS",
    "make_index",
    "build_index",
    "save_index",
    "load_index",
    "kmeans_quantizer",
    "brute_force_ranking",
    "ColdStartServer",
    "Recommendation",
    "RequestBatcher",
    "PendingRequest",
    "ServingFrontend",
]
