"""Batched cold-start recommendation server.

The serving hot path of the CDRIB reproduction: a cold-start user observed
only in the source domain is encoded by the source-domain VBGE and scored
directly against the target domain's precomputed :class:`~repro.serve.ItemIndex`
— no mapping function, exactly the paper's inference scheme, but vectorized
over request batches.

The graph and the weights are fixed for a checkpoint, so every source user's
latent is too, and the set of users is closed.  The server therefore encodes
*all* source users once per checkpoint, in one full-graph no-grad VBGE pass
(``CDRIB.encode_users_batch``), next to the item index.  Per request batch
it then

1. gathers the users' rows from that read-only latent table,
2. returns top-K items per user from one tiled block-max selection
   against the item index.

Served user latents are bit-identical to the eval cache
(``CDRIB._eval_cache``); scores agree with ``CDRIB.cold_start_scores`` up to
float rounding (matmul vs. elementwise reduction order), and served top-K
lists are identical to a brute-force stable full ranking of the catalogue,
including score ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.cdrib import CDRIB
from .ann import build_index
from .item_index import TopKIndex, _as_ids, _as_k


class _Snapshot(NamedTuple):
    """What one checkpoint serves from; :meth:`ColdStartServer.refresh`
    replaces it whole, so a request never mixes two checkpoints."""

    index: TopKIndex
    user_latents: np.ndarray


@dataclass
class Recommendation:
    """Top-K recommendation list for one user."""

    user: int
    items: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return int(self.items.shape[0])


class ColdStartServer:
    """Serve top-K target-domain recommendations for source-domain users.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.CDRIB` model (used read-only).
    source, target:
        Transfer direction: users are encoded in ``source``, items come from
        ``target``.
    top_k:
        Default recommendation list length (an integer >= 1).
    exclude_seen:
        When True and ``source == target``, items the user interacted with in
        training are removed from the candidates.  (For genuine cold-start
        users the target-domain history is empty by construction, so this
        mainly matters for in-domain serving.)
    index_backend:
        Retrieval backend name: ``"exact"`` (default, brute force) or
        ``"ivf"`` (approximate, catalogue-scale).
    index_options:
        Backend constructor options (e.g. ``{"nprobe": 32}`` for IVF).
    index:
        A prebuilt :class:`~repro.serve.TopKIndex` (e.g. loaded with
        :func:`repro.serve.load_index`) to serve from instead of encoding
        the catalogue; must match the target domain's catalogue size.

    The user-latent table costs ``num_users × dim × itemsize`` bytes and
    takes the index's dtype, so a float32 index serves float32 end to end.
    """

    def __init__(self, model: CDRIB, source: str, target: str,
                 top_k: int = 10, exclude_seen: bool = False,
                 index_backend: str = "exact",
                 index_options: Optional[dict] = None,
                 index: Optional[TopKIndex] = None):
        self.model = model
        self.source = source
        self.target = target
        self.top_k = _as_k(top_k, "top_k")
        self.exclude_seen = bool(exclude_seen)
        if index is not None:
            expected = model._domain_parts(target)[3].num_items
            if index.num_items != expected:
                raise ValueError(
                    f"prebuilt index holds {index.num_items} items but target "
                    f"domain {target!r} has {expected}")
            # Size alone cannot tell a stale artifact (e.g. saved from an
            # older checkpoint of the same scenario) from the right one:
            # compare against the model's own item latents.  One no-grad
            # encode pass at construction — cheap next to the k-means build
            # the prebuilt index skips, and it turns silently-wrong top-K
            # lists into a loud error.
            current = model.encode_items(target)
            if (index.item_latents.shape != current.shape
                    or not np.allclose(index.item_latents, current,
                                       rtol=1e-6, atol=1e-8)):
                raise ValueError(
                    f"prebuilt index was built from different item latents "
                    f"than this model encodes for domain {target!r}; "
                    f"rebuild the index from this checkpoint")
            self._index_backend = index.backend
            self._index_options = index.build_options()
        else:
            self._index_backend = index_backend
            self._index_options = dict(index_options or {})
            index = build_index(model, target, backend=index_backend,
                                **self._index_options)
        self._snapshot = self._build_snapshot(index)
        self._source_graph = model._domain_parts(source)[3]

    # ------------------------------------------------------------------ #
    # Latent management
    # ------------------------------------------------------------------ #
    def _build_snapshot(self, index: TopKIndex) -> _Snapshot:
        """``index`` plus every source user's latent in its dtype, read-only.

        Raises :class:`ValueError` when either side is not all finite: a
        diverged checkpoint would otherwise be served without error and
        fail every request, so it is refused before it can be swapped in.
        """
        if not np.isfinite(index.item_latents).all():
            raise ValueError(f"item latents of target domain {self.target!r} "
                             f"are not all finite")
        # Follow the index's floating dtype: a float32 checkpoint must serve
        # float32 end-to-end (float64 here would double the table's memory).
        table = np.asarray(self.model.encode_users_batch(self.source),
                           dtype=index.item_latents.dtype)
        if not np.isfinite(table).all():
            raise ValueError(f"user latents of source domain {self.source!r} "
                             f"are not all finite")
        table.setflags(write=False)
        return _Snapshot(index, table)

    @property
    def index(self) -> TopKIndex:
        """The item index of the checkpoint currently served."""
        return self._snapshot.index

    def user_latents(self, users: Sequence[int]) -> np.ndarray:
        """Latents for ``users``: rows of the per-checkpoint table (a copy).

        Raises :class:`TypeError` for non-integer ids and
        :class:`ValueError` for ids outside the source domain.
        """
        return self._gather(self._snapshot.user_latents, _as_ids(users, "user"))

    def _gather(self, table: np.ndarray, users: np.ndarray) -> np.ndarray:
        """Rows ``users`` (an :func:`_as_ids` array) of ``table``, a copy."""
        num_users = table.shape[0]
        if users.size and (users.min() < 0 or users.max() >= num_users):
            raise ValueError(
                f"user index out of range for source domain {self.source!r} "
                f"(num_users={num_users})"
            )
        return table[users]

    def refresh(self) -> None:
        """Rebuild the item index and the user-latent table.

        Call after the model checkpoint changes (e.g. between training
        epochs in an online-learning loop).  The rebuilt index keeps the
        server's retrieval backend and build options — an IVF server stays
        an IVF server (its quantizer is re-trained on the fresh latents).
        Both are built to one side and swapped in with one assignment, so
        requests served meanwhile use the previous checkpoint throughout.
        A checkpoint whose latents are not all finite raises
        :class:`ValueError` and the previous one stays in service.
        """
        index = build_index(self.model, self.target,
                            backend=self._index_backend, **self._index_options)
        self._snapshot = self._build_snapshot(index)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def recommend(self, users: Sequence[int],
                  k: Optional[int] = None) -> List[Recommendation]:
        """Top-K recommendations for a batch of source-domain users.

        ``k`` defaults to ``top_k``; a non-integer ``k`` raises
        :class:`TypeError` and ``k < 1`` :class:`ValueError`.  The server
        keeps no per-request state, so this is a function of the current
        snapshot, ``users`` and ``k`` alone and is safe on any thread.
        """
        users = _as_ids(users, "user")
        k = self.top_k if k is None else _as_k(k)
        snapshot = self._snapshot  # read once: refresh() may swap it
        latents = self._gather(snapshot.user_latents, users)
        exclude = None
        if self.exclude_seen and self.source == self.target:
            exclude = [self._source_graph.items_of_user(int(u)) for u in users]
        items, scores = snapshot.index.top_k(latents, k, exclude=exclude)
        # Padding (-1 / -inf) is trailing by the TopKIndex contract, so each
        # list is the prefix of its row before the first -1.
        lengths = (items >= 0).sum(axis=1).tolist()
        return [Recommendation(user=user, items=items[row, :n],
                               scores=scores[row, :n])
                for row, (user, n) in enumerate(zip(users.tolist(), lengths))]

    def recommend_one(self, user: int, k: Optional[int] = None) -> Recommendation:
        """Convenience wrapper for a single user."""
        return self.recommend([user], k=k)[0]

    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """Pairwise scores compatible with the evaluation ``Scorer`` protocol.

        Allows plugging the server straight into
        :class:`~repro.eval.LeaveOneOutEvaluator`.

        Item indices are validated: a stray ``-1`` (the padding value of
        :meth:`TopKIndex.top_k`) would otherwise wrap to the *last* catalogue
        item via fancy indexing and return a confidently wrong score, and a
        non-integer id raises :class:`TypeError` instead of being truncated.
        ``users`` and ``items`` must have equal length: pairs are never
        broadcast, so a length mismatch raises :class:`ValueError`.
        """
        users, items = _as_ids(users, "user"), _as_ids(items, "item")
        if users.shape != items.shape:
            raise ValueError(
                f"users and items must pair up, got shapes {users.shape} "
                f"and {items.shape}")
        snapshot = self._snapshot  # read once: refresh() may swap it
        num_items = snapshot.index.num_items
        if items.size and (items.min() < 0 or items.max() >= num_items):
            raise ValueError(
                f"item index out of range for target domain {self.target!r} "
                f"(num_items={num_items}); got values in "
                f"[{items.min()}, {items.max()}] — is a -1 padding sentinel "
                f"leaking into score_pairs?")
        latents = self._gather(snapshot.user_latents, users)
        return np.sum(latents * snapshot.index.item_latents[items], axis=-1)

    def __repr__(self) -> str:
        return (f"ColdStartServer({self.source}->{self.target}, "
                f"users={self._snapshot.user_latents.shape[0]}, "
                f"items={self.index.num_items}, top_k={self.top_k}, "
                f"index={self._index_backend!r})")
