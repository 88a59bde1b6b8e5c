"""Approximate million-item top-K retrieval: the IVF index and the backend registry.

Brute-force serving (:class:`~repro.serve.ItemIndex`) scores every request
against the *whole* catalogue — O(V·F) matmuls plus an O(V) block-max
selection per user, one cache-sized catalogue tile at a time.  That is
exact and simple, but it caps throughput once catalogues reach production
scale.  This module adds the classic inverted-file (IVF) alternative:

1. **Coarse quantizer** — a pure-numpy k-means (deterministic under a fixed
   seed) clusters the item latents into ``num_clusters`` cells.
2. **Cluster-major storage** — item latents are physically reordered so each
   cell is one contiguous block; probing a cell is a slice, never a gather.
3. **``nprobe`` candidate generation** — a query scores the ``num_clusters``
   centroids (one small matvec), visits the ``nprobe`` best cells, and
4. **exact re-ranking** — candidates are scored with the *same inner product
   over the same latent rows* as brute force and top-K-selected with the
   same tie rule (descending score, ties by ascending item index).  An item
   the IVF search surfaces therefore carries the score brute force would
   have given it (equal to the last float rounding of BLAS kernel
   selection, exactly like the repo's other cross-path score comparisons);
   approximation only ever manifests as a *missing* item, which
   :func:`repro.eval.recall_against_exact` measures.

Backends are pluggable through :data:`INDEX_BACKENDS` /
:func:`make_index` / :func:`build_index`; both ``"exact"`` and ``"ivf"`` are
pre-registered, and :class:`~repro.serve.ColdStartServer` accepts
``index_backend=`` to pick one.  A built index can be published as a
checksummed :mod:`repro.io` checkpoint (:func:`save_index` /
:func:`load_index`), so a served index is reproducible from its manifest.

Recall and speed at catalogue scale are gated in ``tests/test_serve_ann.py``,
measured by the ``retrieve-*`` workloads of ``bench/`` and documented in
``docs/SERVING.md``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .item_index import (ItemIndex, TopKIndex, _as_k, _as_queries,
                         prepare_exclude, prepare_item_latents)

#: Rows per chunk when assigning a catalogue to centroids: the reused
#: (chunk × num_clusters) score buffer stays a few MB, small enough to be in
#: cache when the argmax reads it back.
_ASSIGN_CHUNK = 1024

#: Checkpoint ``kind`` tag used by :func:`save_index` / :func:`load_index`.
INDEX_CHECKPOINT_KIND = "topk-index"


# --------------------------------------------------------------------------- #
# Coarse quantizer: deterministic pure-numpy k-means
# --------------------------------------------------------------------------- #
def _assign_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id per point, chunked so memory stays bounded.

    Uses the ``argmax(x·c - ||c||²/2)`` identity, so each chunk is one GEMM
    instead of a materialised distance tensor; chunking does not change the
    result (assignment is independent per row).
    """
    half_norms = 0.5 * np.einsum("cf,cf->c", centroids, centroids)
    out = np.empty(points.shape[0], dtype=np.int64)
    buffer = np.empty((min(_ASSIGN_CHUNK, points.shape[0]),
                       centroids.shape[0]), dtype=np.float64)
    for start in range(0, points.shape[0], _ASSIGN_CHUNK):
        block = points[start:start + _ASSIGN_CHUNK]
        scores = buffer[:block.shape[0]]
        np.matmul(block, centroids.T, out=scores)
        scores -= half_norms
        out[start:start + _ASSIGN_CHUNK] = np.argmax(scores, axis=1)
    return out


def kmeans_quantizer(points: np.ndarray, num_clusters: int, seed: int = 0,
                     iters: int = 6,
                     train_size: Optional[int] = 65536) -> np.ndarray:
    """Train a k-means coarse quantizer and return its (C, F) centroids.

    Deterministic: all randomness flows from ``seed`` through a dedicated
    PCG64 generator, and Lloyd iterations are plain vectorized numpy, so the
    same inputs always produce the same centroids.  ``train_size`` caps the
    number of points used for the Lloyd iterations (a uniform sample without
    replacement); the final assignment of the full catalogue happens in the
    caller.  Empty clusters are re-seeded from random training points so the
    quantizer always returns exactly ``num_clusters`` distinct cells.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > n:
        raise ValueError(
            f"num_clusters={num_clusters} exceeds the number of points ({n})")
    rng = np.random.default_rng(seed)
    if train_size is not None and train_size < n:
        train = points[rng.choice(n, size=max(train_size, num_clusters),
                                  replace=False)]
    else:
        train = points
    centroids = train[rng.choice(train.shape[0], size=num_clusters,
                                 replace=False)].copy()
    for _ in range(max(0, iters)):
        assignment = _assign_to_centroids(train, centroids)
        counts = np.bincount(assignment, minlength=num_clusters).astype(np.float64)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, train)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        empty = np.where(~occupied)[0]
        if empty.size:
            centroids[empty] = train[rng.choice(train.shape[0], size=empty.size,
                                                replace=False)]
    return centroids


# --------------------------------------------------------------------------- #
# The IVF index
# --------------------------------------------------------------------------- #
class IVFIndex:
    """Inverted-file approximate top-K index over one item catalogue.

    Parameters
    ----------
    item_latents:
        Array of shape (num_items, dim) — posterior-mean item latents, in
        catalogue order.  Dtype is preserved exactly like
        :class:`~repro.serve.ItemIndex` (float32 stays float32).
    domain:
        Name of the domain the items belong to (bookkeeping only).
    num_clusters:
        Number of IVF cells.  Default: ``min(4096, round(2·sqrt(V)))``,
        clamped to the catalogue size — cells big enough that a probe is
        one substantial contiguous GEMV rather than many tiny ones.
    nprobe:
        Cells visited per query.  Default: ``max(1, num_clusters // 32)``
        (~3% of the catalogue at the default cluster count), which clears
        the recall@10 ≥ 0.95 gate of ``tests/test_serve_ann.py``.  Both
        sizes must be integers: ``2.7`` or ``"3"`` raises :class:`TypeError`.
    seed, kmeans_iters, train_size:
        Quantizer training controls (see :func:`kmeans_quantizer`).
    """

    backend = "ivf"

    def __init__(self, item_latents: np.ndarray, domain: str = "",
                 num_clusters: Optional[int] = None,
                 nprobe: Optional[int] = None, seed: int = 0,
                 kmeans_iters: int = 6, train_size: Optional[int] = 65536,
                 _prebuilt: Optional[Dict[str, np.ndarray]] = None):
        self.item_latents = prepare_item_latents(item_latents)
        self.domain = domain
        n = self.item_latents.shape[0]
        if num_clusters is None:
            num_clusters = min(4096, max(1, int(round(2.0 * math.sqrt(n)))))
        num_clusters = min(_as_k(num_clusters, "num_clusters"), n)
        if num_clusters < 1:  # an empty catalogue
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        self.num_clusters = num_clusters
        self.seed = int(seed)
        self.kmeans_iters = int(kmeans_iters)
        self.train_size = None if train_size is None else int(train_size)
        if nprobe is None:
            nprobe = max(1, num_clusters // 32)
        self.nprobe = nprobe

        if _prebuilt is not None:
            # Deserialisation path: adopt the stored structure verbatim so a
            # loaded index answers queries bit-identically to the saved one.
            self.centroids = _prebuilt["centroids"]
            self._order = _prebuilt["order"]
            self._offsets = _prebuilt["offsets"]
        else:
            self.centroids = kmeans_quantizer(
                self.item_latents, num_clusters, seed=seed,
                iters=kmeans_iters, train_size=train_size)
            assignment = _assign_to_centroids(
                np.asarray(self.item_latents, dtype=np.float64), self.centroids)
            # Stable sort keeps each cell's items in ascending catalogue
            # order, which the tie rule of top_k depends on.
            self._order = np.argsort(assignment, kind="stable").astype(np.int64)
            counts = np.bincount(assignment, minlength=num_clusters)
            self._offsets = np.concatenate(
                ([0], np.cumsum(counts))).astype(np.int64)
        # Cluster-major contiguous copy: probing a cell is a slice.
        self._storage = np.ascontiguousarray(self.item_latents[self._order])

    @property
    def num_items(self) -> int:
        """Number of items in the catalogue."""
        return int(self.item_latents.shape[0])

    @property
    def dim(self) -> int:
        """Latent dimensionality."""
        return int(self.item_latents.shape[1])

    def build_options(self) -> dict:
        """Constructor options that rebuild an equivalent index from latents."""
        return {
            "num_clusters": self.num_clusters,
            "nprobe": self.nprobe,
            "seed": self.seed,
            "kmeans_iters": self.kmeans_iters,
            "train_size": self.train_size,
        }

    @property
    def nprobe(self) -> int:
        """Cells visited per query (tunable after construction)."""
        return self._nprobe

    @nprobe.setter
    def nprobe(self, value: int) -> None:
        """Clamp to [1, num_clusters]; raising it trades speed for recall.

        A non-integer ``value`` (``2.7``, ``"3"``) raises :class:`TypeError`.
        """
        self._nprobe = min(_as_k(value, "nprobe"), self.num_clusters)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def scores(self, user_latents: np.ndarray) -> np.ndarray:
        """Exact inner-product scores of shape (batch, num_items).

        The full catalogue is kept in original order precisely so the exact
        scorer (used by ``ColdStartServer.score_pairs`` and the evaluation
        bridge) stays available on the approximate backend.
        """
        return _as_queries(user_latents) @ self.item_latents.T

    def top_k(self, user_latents: np.ndarray, k: int,
              exclude: Optional[list] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` per user with exact re-ranking.

        Same contract as :meth:`ItemIndex.top_k`: rows ordered by descending
        score with ties broken by ascending item index, trailing slots padded
        with item ``-1`` / score ``-inf`` when fewer than ``k`` candidates
        survive (small ``nprobe`` or ``exclude``), and excluded items never
        returned.  Scores of surfaced items are computed from the same latent
        rows with the same inner product as brute force, so an item found by
        both backends carries the same score in both up to BLAS kernel
        selection (per-cell GEMV here vs. tiled batched GEMMs there — last-ulp
        rounding, the same caveat as the repo's other cross-path score
        comparisons).
        """
        k = _as_k(k)
        queries = _as_queries(user_latents)
        # Same NaN contract as ItemIndex.top_k: a NaN query poisons every
        # coarse and candidate score, and argpartition/lexsort misorder NaNs
        # silently, so refuse up front (the query matrix is tiny).
        if np.isnan(queries).any():
            raise ValueError(
                "top_k queries contain NaN; refusing to rank — NaN ordering "
                "under argpartition/lexsort is silently wrong")
        batch = queries.shape[0]
        banned = prepare_exclude(exclude, batch, self.num_items)
        k = min(k, self.num_items)

        # One GEMM covers every query's coarse scores, and one batched
        # argpartition selects every query's probe set.
        centroid_scores = queries @ self.centroids.T
        c = self.num_clusters
        if self._nprobe >= c:
            probe_sets = np.broadcast_to(np.arange(c), (batch, c))
        else:
            probe_sets = np.argpartition(
                centroid_scores, c - self._nprobe, axis=1)[:, c - self._nprobe:]

        items = np.full((batch, k), -1, dtype=np.int64)
        # Score dtype follows query/storage promotion exactly like
        # ItemIndex.top_k: a float32 catalogue must not pay float64 buffers.
        score_dtype = np.result_type(queries.dtype, self._storage.dtype)
        scores = np.full((batch, k), -np.inf, dtype=score_dtype)
        offsets, storage, order = self._offsets, self._storage, self._order
        for row in range(batch):
            query = queries[row]
            blocks: List[np.ndarray] = []
            id_blocks: List[np.ndarray] = []
            # Ascending cell order keeps results platform-deterministic
            # (summation never crosses cells, so order is free to choose).
            for cell in np.sort(probe_sets[row]):
                lo, hi = offsets[cell], offsets[cell + 1]
                if hi > lo:
                    blocks.append(storage[lo:hi] @ query)
                    id_blocks.append(order[lo:hi])
            if not blocks:
                continue
            cand_scores = np.concatenate(blocks)
            if cand_scores.dtype != score_dtype:
                cand_scores = cand_scores.astype(score_dtype)
            cand_ids = np.concatenate(id_blocks)
            if banned is not None and banned[row].size:
                keep = ~np.isin(cand_ids, banned[row])
                cand_scores, cand_ids = cand_scores[keep], cand_ids[keep]
            if cand_ids.size == 0:
                continue
            top_ids, top_scores = _tie_stable_top_k(cand_scores, cand_ids, k)
            items[row, :top_ids.shape[0]] = top_ids
            scores[row, :top_scores.shape[0]] = top_scores
        return items, scores

    def __repr__(self) -> str:
        return (f"IVFIndex(items={self.num_items}, dim={self.dim}, "
                f"clusters={self.num_clusters}, nprobe={self.nprobe}, "
                f"domain={self.domain!r})")


def _tie_stable_top_k(cand_scores: np.ndarray, cand_ids: np.ndarray,
                      k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` of a candidate set, ties at the boundary by ascending id.

    The candidate arrays are parallel (``cand_ids[i]`` is the catalogue id of
    ``cand_scores[i]``); candidate ids arrive in ascending order *within*
    each probed cell, but not globally, so the boundary tie-break sorts the
    at-threshold candidates by catalogue id explicitly.  NaN candidate
    scores (NaN item latents) are rejected, matching ``ItemIndex.top_k``.
    The exact backend's batched block-max selection is not used here: IVF
    rows hold ragged candidate sets of a few thousand items, where a plain
    per-row partition measured faster.
    """
    if np.isnan(cand_scores).any():
        raise ValueError("cannot rank scores containing NaN")
    m = cand_scores.shape[0]
    if k >= m:
        selected = np.arange(m)
    else:
        partitioned = np.argpartition(cand_scores, m - k)[m - k:]
        threshold = cand_scores[partitioned].min()
        above = np.where(cand_scores > threshold)[0]
        at = np.where(cand_scores == threshold)[0]
        at = at[np.argsort(cand_ids[at], kind="stable")]
        selected = np.concatenate([above, at[: k - above.shape[0]]])
    order = np.lexsort((cand_ids[selected], -cand_scores[selected]))
    selected = selected[order]
    return cand_ids[selected], cand_scores[selected]


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
INDEX_BACKENDS: Dict[str, Callable[..., TopKIndex]] = {}


def register_index_backend(name: str,
                           factory: Callable[..., TopKIndex]) -> None:
    """Register a retrieval backend under ``name`` (overwrites silently).

    ``factory(item_latents, domain=..., **options)`` must return an object
    satisfying the :class:`~repro.serve.TopKIndex` protocol.
    """
    INDEX_BACKENDS[name] = factory


register_index_backend("exact", ItemIndex)
register_index_backend("ivf", IVFIndex)


def make_index(item_latents: np.ndarray, backend: str = "exact",
               domain: str = "", **options) -> TopKIndex:
    """Construct a registered retrieval backend over ``item_latents``."""
    if backend not in INDEX_BACKENDS:
        raise KeyError(f"unknown index backend {backend!r}; "
                       f"available: {sorted(INDEX_BACKENDS)}")
    return INDEX_BACKENDS[backend](item_latents, domain=domain, **options)


def build_index(model, domain: str, backend: str = "exact",
                **options) -> TopKIndex:
    """Encode ``domain``'s catalogue with ``model`` and index it.

    The model side is identical for every backend — one fused no-grad
    :meth:`~repro.core.CDRIB.encode_items` pass — so switching backends
    never changes what is being searched, only how.
    """
    return make_index(model.encode_items(domain), backend=backend,
                      domain=domain, **options)


# --------------------------------------------------------------------------- #
# Durable index artifacts (repro.io integration)
# --------------------------------------------------------------------------- #
def save_index(path: str, index: TopKIndex) -> str:
    """Publish an index as a checksummed :mod:`repro.io` checkpoint.

    The payload holds the catalogue latents plus, for IVF, the trained
    structure (centroids, cluster-major permutation, cell offsets), so
    loading never re-runs k-means; the manifest records the backend, domain,
    build options and the payload's SHA-256 — the artifact is reproducible
    from its checksum and a corrupt copy refuses to load.
    """
    from ..io import save_checkpoint

    arrays: Dict[str, np.ndarray] = {"index/item_latents": index.item_latents}
    if isinstance(index, IVFIndex):
        arrays["index/centroids"] = index.centroids
        arrays["index/order"] = index._order
        arrays["index/offsets"] = index._offsets
    manifest = {
        "index": {
            "backend": index.backend,
            "domain": index.domain,
            "num_items": index.num_items,
            "dim": index.dim,
            "options": index.build_options(),
        },
    }
    return save_checkpoint(path, arrays, manifest=manifest,
                           kind=INDEX_CHECKPOINT_KIND)


def load_index(path: str) -> TopKIndex:
    """Load an index checkpoint written by :func:`save_index`.

    Checksum, format-version and kind validation come from
    :func:`repro.io.load_checkpoint`; the rebuilt index answers queries
    bit-identically to the one that was saved (IVF structure is restored
    from the payload, not re-trained).
    """
    from ..io import CheckpointError, load_checkpoint

    checkpoint = load_checkpoint(path, expect_kind=INDEX_CHECKPOINT_KIND)
    meta = checkpoint.manifest.get("index")
    if not isinstance(meta, dict) or "backend" not in meta:
        raise CheckpointError(
            f"checkpoint {path!r} has no index metadata; was it written by "
            f"save_index?")
    backend = str(meta["backend"])
    domain = str(meta.get("domain", ""))
    arrays = checkpoint.namespace("index")
    if "item_latents" not in arrays:
        raise CheckpointError(f"checkpoint {path!r} is missing the catalogue "
                              f"latents")
    options = dict(meta.get("options") or {})
    if backend == "ivf":
        for key in ("centroids", "order", "offsets"):
            if key not in arrays:
                raise CheckpointError(
                    f"checkpoint {path!r} is missing IVF structure {key!r}")
        return IVFIndex(arrays["item_latents"], domain=domain, **options,
                        _prebuilt={"centroids": arrays["centroids"],
                                   "order": arrays["order"].astype(np.int64),
                                   "offsets": arrays["offsets"].astype(np.int64)})
    if backend == "exact":
        return ItemIndex(arrays["item_latents"], domain=domain)
    if backend in INDEX_BACKENDS:
        return INDEX_BACKENDS[backend](arrays["item_latents"], domain=domain,
                                       **options)
    raise CheckpointError(
        f"checkpoint {path!r} holds unknown index backend {backend!r}; "
        f"available: {sorted(INDEX_BACKENDS)}")
