"""Precomputed target-domain item index for cold-start serving.

CDRIB scores a cold-start user by an inner product between the user's
source-domain latent and every target-domain item latent (Section III of the
paper).  The item side of that product is *static per checkpoint*: it only
changes when the model parameters change.  :class:`ItemIndex` therefore
encodes all target-domain items once (a single fused no-grad propagation
pass) and answers top-K queries against the cached matrix with one batched
block-max selection instead of ranking the full catalogue.

Tie handling is exact: results are ordered by descending score with ties
broken by ascending item index, which is precisely the order produced by a
brute-force stable full ranking.  The selection keeps *every* item that
could tie at the K-th position and orders them all with one ``lexsort``,
so nothing depends on a partition's arbitrary internal ordering.

Retrieval is *pluggable*: :class:`ItemIndex` is the ``"exact"`` reference
implementation of the :class:`TopKIndex` protocol; the approximate IVF
backend (``"ivf"``) and the backend registry live in
:mod:`repro.serve.ann`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Protocol, Tuple, runtime_checkable

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
        """Top-``k`` items per user via one batched block-max selection.

        Parameters
        ----------
        user_latents:
            (batch, dim) user latents.
        k:
            Number of items to return per user (clamped to the catalogue size).
        exclude:
            Optional per-user sequences of item indices to remove from the
            candidates (e.g. items the user already interacted with).  Ids
            outside ``[0, num_items)`` raise :class:`ValueError`.

        Returns
        -------
        ``(items, scores)`` arrays of shape (batch, k), each row ordered by
        descending score, ties broken by ascending item index — identical to a
        brute-force stable full ranking.  Scores are entries of the
        :meth:`scores` matrix, bit for bit.  When ``exclude`` leaves a row
        with fewer than ``k`` candidates, its trailing slots are padded with
        item ``-1`` and score ``-inf``; excluded items are never returned.
        The score dtype follows the query/index promotion (float32 stays
        float32).

        NaN scores are *rejected* (:class:`ValueError`) rather than ranked:
        comparisons against a NaN threshold and ``lexsort`` silently misorder
        NaNs, so a NaN in a user or item latent would otherwise produce a
        confidently wrong list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        batch = np.atleast_2d(np.asarray(user_latents)).shape[0]
        num_items = self.num_items
        banned = prepare_exclude(exclude, batch, num_items)
        score_matrix = self.scores(user_latents)
        if banned is not None:
            # Banned scores become -inf in the matrix this call owns; a NaN
            # there would be overwritten, so check those entries first.
            rows = np.repeat(np.arange(batch), [b.size for b in banned])
            banned_items = np.concatenate(banned)
            if np.isnan(score_matrix[rows, banned_items]).any():
                raise ValueError(_NAN_MESSAGE)
            score_matrix[rows, banned_items] = -np.inf
        items, scores = _block_max_top_k(score_matrix, min(k, num_items))
        if banned is not None:
            # A banned item is picked only when fewer than k others remain.
            picked = np.isin(items + num_items * np.arange(batch)[:, None],
                             banned_items + num_items * rows)
            items[picked] = -1
            scores[picked] = -np.inf
        return items, scores


_NAN_MESSAGE = ("top_k scores contain NaN (NaN in user or item latents?); "
                "refusing to rank — NaN ordering under comparison/lexsort "
                "is silently wrong")


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


def prepare_exclude(exclude: Optional[list], batch: int,
                    num_items: int) -> Optional[List[np.ndarray]]:
    """Validate per-user exclusion lists as int64 arrays (shared by backends).

    Raises :class:`ValueError` unless there is one sequence per user and
    every id lies in ``[0, num_items)``; a negative id would otherwise wrap
    to the end of the catalogue under fancy indexing.  Returns ``None`` when
    nothing is excluded.
    """
    if exclude is None:
        return None
    if len(exclude) != batch:
        raise ValueError("exclude must hold one sequence per user")
    banned = [np.asarray(list(row), dtype=np.int64) for row in exclude]
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + banned)
    if flat.size == 0:
        return None
    if flat.min() < 0 or flat.max() >= num_items:
        raise ValueError(
            f"exclude ids must lie in [0, {num_items}), got "
            f"{flat[(flat < 0) | (flat >= num_items)][0]}")
    return banned


def _block_max_top_k(scores: np.ndarray,
                     k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's ``k`` best ``(items, scores)``, ties by ascending index.

    Each row is split into blocks of width ``isqrt(num_items)`` (plus a
    shorter tail block) and reduced to block maxima in one pass over the
    matrix, without copying it.  The row threshold is the k-th largest block
    max: k distinct blocks reach it, so the k-th best score is at least the
    threshold, and every item of the top k — ties included — lies in a
    block whose max reaches it (about k blocks per row; every block when k
    reaches the block count).  Only those blocks are gathered, entries below
    the threshold dropped, and the rest ordered by (row, -score, item) with
    one stable ``lexsort`` (gathered entries already run in (row, item)
    order); the first k per row win.

    ``max`` propagates NaN, so the small block-max array doubles as the NaN
    check for the whole matrix.
    """
    batch, num_items = scores.shape
    width = max(1, math.isqrt(num_items))
    split = num_items - num_items % width
    block_max = np.empty((batch, -(-num_items // width)), dtype=scores.dtype)
    scores[:, :split].reshape(batch, split // width, width).max(
        axis=2, out=block_max[:, :split // width])
    if split < num_items:
        scores[:, split:].max(axis=1, out=block_max[:, -1])
    if np.isnan(block_max).any():
        raise ValueError(_NAN_MESSAGE)
    num_blocks = block_max.shape[1]
    if k < num_blocks:
        threshold = np.partition(block_max, num_blocks - k,
                                 axis=1)[:, num_blocks - k]
    else:
        threshold = np.full(batch, -np.inf, dtype=scores.dtype)
    rows, blocks = np.nonzero(block_max >= threshold[:, None])
    items = blocks[:, None] * width + np.arange(width)
    candidates = scores[rows[:, None], np.minimum(items, num_items - 1)]
    keep = (items < num_items) & (candidates >= threshold[rows, None])
    rows = np.broadcast_to(rows[:, None], items.shape)[keep]
    items, candidates = items[keep], candidates[keep]
    order = np.lexsort((-candidates, rows))
    # Every row keeps at least k candidates (argued above), so row r's
    # winners are the k entries after the rows before it.
    counts = np.bincount(rows, minlength=batch)
    top = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return items[top], candidates[top]


def brute_force_ranking(scores: np.ndarray) -> np.ndarray:
    """Full stable ranking by (-score, index) — the reference for tests."""
    indices = np.arange(scores.shape[0])
    order = np.lexsort((indices, -np.asarray(scores, dtype=np.float64)))
    return indices[order]
