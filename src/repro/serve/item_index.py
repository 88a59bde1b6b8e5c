"""Precomputed target-domain item index for cold-start serving.

CDRIB scores a cold-start user by an inner product between the user's
source-domain latent and every target-domain item latent (Section III of the
paper).  The item side of that product is *static per checkpoint*: it only
changes when the model parameters change.  :class:`ItemIndex` therefore
encodes all target-domain items once (a single fused no-grad propagation
pass) and answers top-K queries against the cached matrix with one tiled
block-max selection instead of ranking the full catalogue: the catalogue
is scored in tiles of a fixed byte budget, and each tile is reduced into
the running selection while it is still in cache, so no
(batch, num_items) score matrix is built.  A catalogue that fits one
tile skips the block maxima: each row's exact k-th best score is its
threshold.

Tie handling is exact: results are ordered by descending score with ties
broken by ascending item index, which is precisely the order produced by a
brute-force stable full ranking.  The selection keeps *every* item that
could tie at the K-th position and orders them all with one ``lexsort``,
so nothing depends on a partition's arbitrary internal ordering.

:class:`ItemIndex` is the ``"exact"`` reference implementation of the
:class:`TopKIndex` protocol; the approximate IVF backend (``"ivf"``) and
dispatch by backend name live in :mod:`repro.serve.ann`.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

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
        """Top-``k`` ``(items, scores)`` per user, padded with -1/-inf.

        Padding only ever fills the trailing slots of a row: every real
        item precedes every -1, so a row's list is its prefix up to the
        first -1 (:meth:`ColdStartServer.recommend` serves exactly that).
        """


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
        dtypes (float32 queries against a float32 index stay float32).  The
        matrix is computed tile by tile exactly as :meth:`top_k` scores it,
        so top-K scores are entries of this matrix bit for bit.
        """
        queries = _as_queries(user_latents)
        out = None
        for lo, hi, tile in self._score_tiles(queries):
            if hi - lo == self.num_items:
                return tile  # one tile: a fresh product, not a reused buffer
            if out is None:
                out = np.empty((queries.shape[0], self.num_items), tile.dtype)
            out[:, lo:hi] = tile
        return out

    def _score_tiles(self, queries: np.ndarray):
        """Yield ``(lo, hi, scores)`` per catalogue tile ``[lo, hi)``.

        A tile is a whole number of selection blocks (the last tile also
        takes the tail block), as many as keep its (batch, tile) scores
        within :data:`_TILE_BYTES`.  A catalogue that fits one tile yields
        one fresh ``queries @ latents.T``; otherwise every tile is a view of
        one buffer, overwritten by the next tile.
        """
        latents = self.item_latents
        batch, num_items = queries.shape[0], latents.shape[0]
        width = _block_width(num_items)
        split = num_items - num_items % width
        # Floating promotion never narrows, so this is the score itemsize.
        itemsize = max(queries.itemsize, latents.itemsize)
        tile = width * max(1, _TILE_BYTES // max(1, batch * width * itemsize))
        if tile >= split:
            yield 0, num_items, queries @ latents.T
            return
        buffer = np.empty(batch * (tile + num_items - split),
                          np.result_type(queries, latents))
        for lo in range(0, split, tile):
            hi = num_items if lo + tile >= split else lo + tile
            scores = buffer[:batch * (hi - lo)].reshape(batch, hi - lo)
            np.matmul(queries, latents[lo:hi].T, out=scores)
            yield lo, hi, scores

    def top_k(self, user_latents: np.ndarray, k: int,
              exclude: Optional[list] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` items per user via one tiled selection.

        Parameters
        ----------
        user_latents:
            (batch, dim) user latents.
        k:
            Number of items to return per user (clamped to the catalogue
            size); anything but an integer >= 1 raises.
        exclude:
            Optional per-user sequences of integer item indices to remove
            from the candidates (e.g. items the user already interacted
            with).  Non-integer ids raise :class:`TypeError`; ids outside
            ``[0, num_items)`` raise :class:`ValueError`.

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

        The catalogue is split into blocks of width ``isqrt(num_items)``
        (plus a shorter tail block) and scored in tiles of whole blocks
        (:meth:`_score_tiles`), so no (batch, num_items) matrix is ever
        built.  When one tile holds the whole catalogue, each row's threshold
        is its exact
        k-th best entry (``np.partition``), which *is* the k-th best score,
        so every top-k entry, ties included, is at or above it and is
        gathered; one pass over the tile gathers them all.  Otherwise,
        while a tile is in cache, its blocks are reduced to block
        maxima and merged into each row's running ``k`` largest block
        maxima, and the entries at or above the row's threshold are
        gathered from the blocks whose max reaches it.  The threshold is
        the k-th of the running block maxima — k distinct blocks reach it,
        so the k-th best score overall is at least the threshold — or,
        until ``k`` blocks are seen, the tile's own k-th best entry, which
        bounds the k-th best score overall the same way.  Every item of the
        top k, ties included, scores at least the k-th best, so its block
        max reaches the threshold its tile was scanned with, and it was
        gathered.  After the last tile, candidates below its threshold are
        dropped, and every row keeps at least its top k.  Within a row,
        candidates arrive in ascending item order (tiles run left to right,
        the tail block comes last), so one stable ``lexsort`` by
        (row, -score, excluded) leaves ties in ascending item order; the
        first k per row win.

        NaN scores are *rejected* (:class:`ValueError`) rather than ranked:
        comparisons against a NaN threshold and ``lexsort`` silently misorder
        NaNs, so a NaN in a user or item latent would otherwise produce a
        confidently wrong list.  ``max`` propagates NaN, so the block maxima
        double as the NaN check for every score; a tile ranked by its exact
        k-th entry is checked whole.
        """
        k = _as_k(k)
        queries = _as_queries(user_latents)
        batch, num_items = queries.shape[0], self.num_items
        banned = prepare_exclude(exclude, batch, num_items)
        k = min(k, num_items)
        if banned is not None:
            rows = np.repeat(np.arange(batch), [b.size for b in banned])
            banned_items = np.concatenate(banned)
        width = _block_width(num_items)
        best = None  # each row's k largest block maxima so far
        parts = []
        for tiles, (lo, hi, tile) in enumerate(
                self._score_tiles(queries), start=1):
            if banned is not None:
                # Banned scores become -inf in the tile this call owns; a
                # NaN there would be overwritten, so check those entries
                # first.
                here = (banned_items >= lo) & (banned_items < hi)
                cells = rows[here], banned_items[here] - lo
                if np.isnan(tile[cells]).any():
                    raise ValueError(_NAN_MESSAGE)
                tile[cells] = -np.inf
            if hi - lo == num_items and tile.size:
                if np.isnan(tile).any():
                    raise ValueError(_NAN_MESSAGE)
                threshold = np.partition(tile, num_items - k,
                                         axis=1)[:, num_items - k]
                rows_c, items = np.nonzero(tile >= threshold[:, None])
                parts.append((rows_c, items, tile[rows_c, items]))
                continue
            block_max = _block_maxima(tile, width)
            if np.isnan(block_max).any():
                raise ValueError(_NAN_MESSAGE)
            best = (block_max if best is None
                    else np.concatenate([best, block_max], axis=1))
            if 0 < k <= best.shape[1]:
                best = np.partition(best, best.shape[1] - k,
                                    axis=1)[:, best.shape[1] - k:]
                threshold = best[:, 0]
            elif 0 < k <= hi - lo:
                threshold = np.partition(tile, hi - lo - k,
                                         axis=1)[:, hi - lo - k]
            else:
                threshold = np.full(batch, -np.inf, dtype=tile.dtype)
            parts += _gather(tile, block_max, threshold, width, lo)
        if len(parts) == 1:
            rows_c, items, candidates = parts[0]
        else:
            rows_c, items, candidates = map(np.concatenate, zip(*parts))
        if tiles > 1:
            # The last threshold also bounds the k-th best score, so what
            # earlier tiles let in below it cannot win; keep the sort small.
            keep = candidates >= threshold[rows_c]
            rows_c, items, candidates = (rows_c[keep], items[keep],
                                         candidates[keep])
        keys = (-candidates, rows_c)
        if banned is not None:
            # Banned entries score -inf; ranking them after items that score
            # -inf themselves keeps the padding trailing.
            dropped = np.isin(items + num_items * rows_c,
                              banned_items + num_items * rows)
            keys = (dropped,) + keys
        order = np.lexsort(keys)  # stable: ties by item
        # Every row keeps at least k candidates (argued above), so row r's
        # winners are the k entries after the rows before it.
        counts = np.bincount(rows_c, minlength=batch)
        top = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        items, scores = items[top], candidates[top]
        if banned is not None:
            # A banned item is picked only when fewer than k others remain.
            items[dropped[top]] = -1
        return items, scores


#: Bytes of (batch, tile) scores per catalogue tile: small enough that a
#: tile is still in cache when its block maxima and candidates are read.
_TILE_BYTES = 16 << 20

_NAN_MESSAGE = ("top_k scores contain NaN (NaN in user or item latents?); "
                "refusing to rank — NaN ordering under comparison/lexsort "
                "is silently wrong")


def _as_ids(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as an int64 index array; non-integer ids raise TypeError.

    Casting with ``np.asarray(values, dtype=np.int64)`` would truncate a
    ``1.9`` to ``1`` (or parse ``"1"``) and act on the wrong row, so only
    integer dtypes pass.  An empty sequence passes whatever its dtype
    (``np.asarray([])`` is float64).  A Python int beyond int64 (numpy
    holds it in an object array) raises ValueError: it is an id out of
    range.
    """
    ids = np.asarray(values)
    if ids.dtype == object and any(
            isinstance(v, int) and not -2**63 <= v < 2**63 for v in ids.flat):
        raise ValueError(f"{what} ids must lie in the int64 range")
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"{what} ids must be integers, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def _as_k(k: int, name: str = "k") -> int:
    """``k`` as a list length >= 1; ``2.7``, ``"3"`` or ``True`` raise
    TypeError."""
    try:
        if isinstance(k, bool):  # operator.index(True) == 1
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k}")
    return k


def _as_queries(user_latents: np.ndarray) -> np.ndarray:
    """Queries as a 2-D floating array (non-float inputs become float64)."""
    queries = np.asarray(user_latents)
    if not np.issubdtype(queries.dtype, np.floating):
        queries = queries.astype(np.float64)
    return np.atleast_2d(queries)


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

    Raises :class:`TypeError` for a non-integer id (``44.9`` or ``"44"``
    would otherwise be cast to item 44), and :class:`ValueError` unless
    there is one sequence per user and every id lies in ``[0, num_items)``;
    a negative id would otherwise wrap to the end of the catalogue under
    fancy indexing.  Returns ``None`` when nothing is excluded.
    """
    if exclude is None:
        return None
    if len(exclude) != batch:
        raise ValueError("exclude must hold one sequence per user")
    banned = [_as_ids(list(row), "exclude") for row in exclude]
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + banned)
    if flat.size == 0:
        return None
    if flat.min() < 0 or flat.max() >= num_items:
        raise ValueError(
            f"exclude ids must lie in [0, {num_items}), got "
            f"{flat[(flat < 0) | (flat >= num_items)][0]}")
    return banned


def _block_width(num_items: int) -> int:
    """Width of a selection block: ``isqrt(num_items)``, at least 1."""
    return max(1, math.isqrt(num_items))


def _block_maxima(scores: np.ndarray, width: int) -> np.ndarray:
    """Per-row maxima of ``width``-wide column blocks (plus a shorter tail
    block), in one pass over ``scores`` without copying it."""
    batch, num_items = scores.shape
    split = num_items - num_items % width
    block_max = np.empty((batch, -(-num_items // width)), dtype=scores.dtype)
    scores[:, :split].reshape(batch, split // width, width).max(
        axis=2, out=block_max[:, :split // width])
    if split < num_items:
        scores[:, split:].max(axis=1, out=block_max[:, -1])
    return block_max


def _gather(scores: np.ndarray, block_max: np.ndarray, threshold: np.ndarray,
            width: int, offset: int) -> List[Tuple[np.ndarray, ...]]:
    """``(rows, items, scores)`` of the entries at or above each row's
    ``threshold``: one part from the full blocks whose max reaches it, and
    one from the tail block, if ``scores`` has one; each part runs in
    (row, item) order.

    ``scores`` holds catalogue columns ``[offset, offset + num_columns)``;
    the returned items are catalogue ids and the scores are copies.
    """
    batch, num_items = scores.shape
    split = num_items - num_items % width
    rows, blocks = np.nonzero(
        block_max[:, :split // width] >= threshold[:, None])
    reached = scores[:, :split].reshape(batch, split // width, width)[
        rows, blocks]
    hits, columns = np.nonzero(reached >= threshold[rows, None])
    parts = [(rows[hits], blocks[hits] * width + columns + offset,
              reached[hits, columns])]
    if split < num_items:
        tail = scores[:, split:]
        rows, columns = np.nonzero(tail >= threshold[:, None])
        parts.append((rows, columns + (split + offset), tail[rows, columns]))
    return parts


def brute_force_ranking(scores: np.ndarray) -> np.ndarray:
    """Full stable ranking by (-score, index) — the reference for tests."""
    indices = np.arange(scores.shape[0])
    order = np.lexsort((indices, -np.asarray(scores, dtype=np.float64)))
    return indices[order]
