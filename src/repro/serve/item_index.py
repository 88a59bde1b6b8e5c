"""Precomputed target-domain item index for cold-start serving.

CDRIB scores a cold-start user by an inner product between the user's
source-domain latent and every target-domain item latent (Section III of the
paper).  The item side of that product is *static per checkpoint*: it only
changes when the model parameters change.  :class:`ItemIndex` therefore
encodes all target-domain items once (a single fused no-grad propagation
pass) and answers top-K queries against the cached matrix with a partial
sort (``np.argpartition``) instead of ranking the full catalogue.

Tie handling is exact: results are ordered by descending score with ties
broken by ascending item index, which is precisely the order produced by a
brute-force stable full ranking.  The partial sort selects the boundary
items explicitly, so a score tie that straddles the K-th position never
depends on ``argpartition``'s arbitrary internal ordering.

Retrieval is *pluggable*: :class:`ItemIndex` is the ``"exact"`` reference
implementation of the :class:`TopKIndex` protocol; the approximate IVF
backend (``"ivf"``) and the backend registry live in
:mod:`repro.serve.ann`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..core.cdrib import CDRIB


@runtime_checkable
class TopKIndex(Protocol):
    """Structural protocol every retrieval backend implements.

    A backend owns one domain's item-latent catalogue and answers batched
    top-K queries against it.  ``ItemIndex`` (``backend="exact"``) is the
    brute-force reference; approximate backends (e.g. the IVF index in
    :mod:`repro.serve.ann`) may return a different *set* of items, but the
    scores of every item they surface must come from the same inner product
    over the same latents, and rows must be ordered by descending score with
    ties broken by ascending item index — so downstream consumers
    (:class:`~repro.serve.ColdStartServer`, the evaluation scorer bridge)
    never need to know which backend is plugged in.
    """

    #: Registry name of the backend (``"exact"``, ``"ivf"``, ...).
    backend: str
    #: Item latents in catalogue order, shape (num_items, dim).
    item_latents: np.ndarray
    #: Domain the catalogue belongs to (bookkeeping only).
    domain: str

    @property
    def num_items(self) -> int:
        """Number of items in the catalogue."""

    @property
    def dim(self) -> int:
        """Latent dimensionality."""

    def build_options(self) -> dict:
        """The constructor options needed to rebuild an equivalent index."""

    def scores(self, user_latents: np.ndarray) -> np.ndarray:
        """Exact inner-product scores of shape (batch, num_items)."""

    def top_k(self, user_latents: np.ndarray, k: int,
              exclude: Optional[list] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(items, scores)`` per user, padded with -1/-inf."""


class ItemIndex:
    """Cached latent representations of one domain's item catalogue.

    Parameters
    ----------
    item_latents:
        Array of shape (num_items, dim) — posterior-mean item latents.
    domain:
        Name of the domain the items belong to (bookkeeping only).
    """

    backend = "exact"

    def __init__(self, item_latents: np.ndarray, domain: str = ""):
        self.item_latents = prepare_item_latents(item_latents)
        self.domain = domain

    @classmethod
    def build(cls, model: CDRIB, domain: str) -> "ItemIndex":
        """Encode every item of ``domain`` with the model's fused no-grad pass."""
        return cls(model.encode_items(domain), domain=domain)

    @property
    def num_items(self) -> int:
        """Number of items in the catalogue."""
        return int(self.item_latents.shape[0])

    @property
    def dim(self) -> int:
        """Latent dimensionality."""
        return int(self.item_latents.shape[1])

    def build_options(self) -> dict:
        """Exact search has no tunables; rebuilds need only the latents."""
        return {}

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def scores(self, user_latents: np.ndarray) -> np.ndarray:
        """Inner-product scores of shape (batch, num_items).

        The score dtype follows numpy promotion of the query and index
        dtypes (float32 queries against a float32 index stay float32).
        """
        user_latents = np.asarray(user_latents)
        if not np.issubdtype(user_latents.dtype, np.floating):
            user_latents = user_latents.astype(np.float64)
        return np.atleast_2d(user_latents) @ self.item_latents.T

    def top_k(self, user_latents: np.ndarray, k: int,
              exclude: Optional[list] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` items per user via partial sort.

        Parameters
        ----------
        user_latents:
            (batch, dim) user latents.
        k:
            Number of items to return per user (clamped to the catalogue size).
        exclude:
            Optional per-user sequences of item indices to remove from the
            candidates (e.g. items the user already interacted with).

        Returns
        -------
        ``(items, scores)`` arrays of shape (batch, k), each row ordered by
        descending score, ties broken by ascending item index — identical to a
        brute-force stable full ranking.  When ``exclude`` leaves a row with
        fewer than ``k`` candidates, its trailing slots are padded with item
        ``-1`` and score ``-inf``; excluded items are never returned.  The
        score dtype follows the query/index promotion (float32 stays
        float32).

        NaN scores are *rejected* (:class:`ValueError`) rather than ranked:
        ``argpartition``'s boundary-threshold comparison and ``lexsort``
        silently misorder NaNs, so a NaN in a user or item latent would
        otherwise produce a confidently wrong list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        score_matrix = self.scores(user_latents)
        if np.isnan(score_matrix).any():
            raise ValueError(
                "top_k scores contain NaN (NaN in user or item latents?); "
                "refusing to rank — NaN ordering under argpartition/lexsort "
                "is silently wrong")
        batch = score_matrix.shape[0]
        if exclude is not None and len(exclude) != batch:
            raise ValueError("exclude must hold one sequence per user")
        k = min(k, self.num_items)

        items = np.empty((batch, k), dtype=np.int64)
        scores = np.empty((batch, k), dtype=score_matrix.dtype)
        for row in range(batch):
            row_scores = score_matrix[row]
            banned = None
            if exclude is not None and len(exclude[row]):
                banned = np.asarray(list(exclude[row]), dtype=np.int64)
                row_scores = row_scores.copy()
                row_scores[banned] = -np.inf
            top_items = _exact_top_k(row_scores, k)
            top_scores = row_scores[top_items]
            if banned is not None:
                overflow = np.isin(top_items, banned)
                top_items = np.where(overflow, -1, top_items)
                top_scores = np.where(overflow, -np.inf, top_scores)
            items[row] = top_items
            scores[row] = top_scores
        return items, scores


def prepare_item_latents(item_latents: np.ndarray) -> np.ndarray:
    """Normalise a catalogue latent matrix for indexing (shared by backends).

    Preserves the model's floating dtype: force-casting float32 latents to
    float64 would silently double the index's resident memory.  Non-float
    inputs (e.g. integer test fixtures) still become float64, and the result
    is always a C-contiguous 2-D array.
    """
    latents = np.asarray(item_latents)
    if not np.issubdtype(latents.dtype, np.floating):
        latents = latents.astype(np.float64)
    latents = np.ascontiguousarray(latents)
    if latents.ndim != 2:
        raise ValueError(f"item_latents must be 2-D, got shape {latents.shape}")
    return latents


def _exact_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores, ties broken by ascending index.

    ``np.argpartition`` alone is not tie-stable at the K-th boundary, so the
    boundary score is resolved explicitly: every item strictly above the
    threshold is kept, and the remaining slots are filled with the
    lowest-indexed items *at* the threshold (``np.where`` returns indices in
    ascending order).  The selected set is then ordered by (-score, index).

    NaN scores are rejected: a NaN threshold makes both boundary comparisons
    (``>`` and ``==``) vacuously false, silently shrinking the selection,
    and ``lexsort`` orders NaNs arbitrarily — the contract (pinned by
    ``tests/test_serve.py``) is to raise instead.
    """
    if np.isnan(scores).any():
        raise ValueError("cannot rank scores containing NaN")
    n = scores.shape[0]
    if k >= n:
        selected = np.arange(n)
    else:
        partitioned = np.argpartition(scores, n - k)[n - k:]
        threshold = scores[partitioned].min()
        above = np.where(scores > threshold)[0]
        at = np.where(scores == threshold)[0]
        selected = np.concatenate([above, at[: k - above.shape[0]]])
    order = np.lexsort((selected, -scores[selected]))
    return selected[order]


def brute_force_ranking(scores: np.ndarray) -> np.ndarray:
    """Full stable ranking by (-score, index) — the reference for tests."""
    indices = np.arange(scores.shape[0])
    order = np.lexsort((indices, -np.asarray(scores, dtype=np.float64)))
    return indices[order]
