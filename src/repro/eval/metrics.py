"""Ranking metrics: MRR, NDCG@k and HR@k (Section IV-B1).

All metrics operate on the *rank* of the single ground-truth item within its
candidate list (1-based), matching the leave-one-out protocol where every
evaluation record contains exactly one positive among 1000 candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

DEFAULT_NDCG_CUTOFFS = (5, 10)
DEFAULT_HR_CUTOFFS = (1, 5, 10)


def reciprocal_rank(rank: int) -> float:
    """MRR contribution of one record."""
    if rank < 1:
        raise ValueError("ranks are 1-based and must be >= 1")
    return 1.0 / rank


def ndcg_at_k(rank: int, k: int) -> float:
    """NDCG@k for a single relevant item: 1/log2(rank+1) if rank <= k else 0."""
    if rank < 1:
        raise ValueError("ranks are 1-based and must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if rank > k:
        return 0.0
    return 1.0 / np.log2(rank + 1)


def hit_rate_at_k(rank: int, k: int) -> float:
    """HR@k for a single relevant item: 1 if the item is ranked within top-k."""
    if rank < 1:
        raise ValueError("ranks are 1-based and must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 if rank <= k else 0.0


def recall_against_exact(approx_items: np.ndarray,
                         exact_items: np.ndarray) -> float:
    """Mean per-row recall of an approximate top-K against the exact top-K.

    Both arguments are (batch, k) item-id arrays as returned by
    ``TopKIndex.top_k`` — ``exact_items`` from the brute-force backend,
    ``approx_items`` from an approximate one (e.g. IVF).  Row ``i``
    contributes ``|approx_i ∩ exact_i| / |exact_i|``; ``-1`` padding slots
    (rows with fewer than ``k`` candidates) are ignored on both sides, and
    rows whose exact list is entirely padding are skipped.  Returns a float
    in [0, 1]; 1.0 means the approximate index surfaced every exact top-K
    item (recall@k), the quantity gated by ``tests/test_serve_ann.py``.
    """
    approx = np.atleast_2d(np.asarray(approx_items, dtype=np.int64))
    exact = np.atleast_2d(np.asarray(exact_items, dtype=np.int64))
    if approx.shape[0] != exact.shape[0]:
        raise ValueError(
            f"row mismatch: approx has {approx.shape[0]} rows, "
            f"exact has {exact.shape[0]}")
    recalls = []
    for row in range(exact.shape[0]):
        truth = exact[row][exact[row] >= 0]
        if truth.size == 0:
            continue
        found = approx[row][approx[row] >= 0]
        recalls.append(np.isin(truth, found).mean())
    return float(np.mean(recalls)) if recalls else 0.0


def rank_of_positive(scores: np.ndarray, positive_index: int = 0,
                     tie_break: str = "pessimistic") -> int:
    """Rank (1-based) of ``scores[positive_index]`` within ``scores``.

    ``tie_break`` controls how equal scores are handled: ``"pessimistic"``
    counts ties against the positive (the conservative choice used in most
    published evaluation code), ``"optimistic"`` counts them in its favour.
    """
    positive_score = scores[positive_index]
    others = np.delete(scores, positive_index)
    if tie_break == "pessimistic":
        better = np.sum(others >= positive_score)
    elif tie_break == "optimistic":
        better = np.sum(others > positive_score)
    else:
        raise ValueError(f"unknown tie_break mode {tie_break!r}")
    return int(better) + 1


@dataclass
class RankingMetrics:
    """Aggregated metrics over a set of evaluation records."""

    mrr: float
    ndcg: Dict[int, float]
    hit_rate: Dict[int, float]
    num_records: int

    def as_dict(self, percentage: bool = True) -> Dict[str, float]:
        """Flatten to a {metric_name: value} dict, optionally in percent."""
        scale = 100.0 if percentage else 1.0
        flat = {"MRR": self.mrr * scale}
        for k, value in sorted(self.ndcg.items()):
            flat[f"NDCG@{k}"] = value * scale
        for k, value in sorted(self.hit_rate.items()):
            flat[f"HR@{k}"] = value * scale
        flat["records"] = self.num_records
        return flat


def aggregate_ranks(ranks: Sequence[int],
                    ndcg_cutoffs: Iterable[int] = DEFAULT_NDCG_CUTOFFS,
                    hr_cutoffs: Iterable[int] = DEFAULT_HR_CUTOFFS) -> RankingMetrics:
    """Compute MRR / NDCG@k / HR@k from a list of 1-based ranks."""
    ranks = list(ranks)
    if not ranks:
        return RankingMetrics(mrr=0.0, ndcg={k: 0.0 for k in ndcg_cutoffs},
                              hit_rate={k: 0.0 for k in hr_cutoffs}, num_records=0)
    mrr = float(np.mean([reciprocal_rank(r) for r in ranks]))
    ndcg = {k: float(np.mean([ndcg_at_k(r, k) for r in ranks])) for k in ndcg_cutoffs}
    hit = {k: float(np.mean([hit_rate_at_k(r, k) for r in ranks])) for k in hr_cutoffs}
    return RankingMetrics(mrr=mrr, ndcg=ndcg, hit_rate=hit, num_records=len(ranks))
