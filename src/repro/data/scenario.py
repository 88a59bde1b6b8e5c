"""Cross-domain recommendation scenarios.

A :class:`CDRScenario` packages everything the models and the evaluation
protocol need:

* one :class:`~repro.graph.BipartiteGraph` of *training* interactions per
  domain (cold-start users' target-domain edges removed),
* the index pairs of overlapping users that remain available for training,
* validation / test cold-start users per direction, each holding the
  ground-truth target-domain items that were hidden from training, and
* a merged single-domain view used by the single-domain baselines
  (Section IV-B2 merges both domains into one interaction set).

The split follows Section IV-A: roughly 20% of overlapping users become
cold-start users; half of them are evaluated in the X -> Y direction and the
other half in Y -> X, and each direction is further split into validation
and test halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import BipartiteGraph
from .interactions import InteractionTable


@dataclass
class Domain:
    """One domain of a CDR scenario after indexing and cold-start removal."""

    name: str
    num_users: int
    num_items: int
    graph: BipartiteGraph
    user_index: Dict[Hashable, int]
    item_index: Dict[Hashable, int]
    all_edges: np.ndarray


@dataclass
class ColdStartUser:
    """A cold-start evaluation user for one transfer direction.

    ``source_user`` indexes the user in the *source* domain (where their
    interactions remain observable); ``target_items`` are the ground-truth
    items in the *target* domain that were removed from training.
    ``source_degree`` is the number of source-domain training interactions,
    used by the Table IX per-group analysis.
    """

    user_key: Hashable
    source_user: int
    target_items: np.ndarray
    source_degree: int


@dataclass
class DirectionSplit:
    """Validation and test cold-start users for one transfer direction."""

    source: str
    target: str
    validation: List[ColdStartUser] = field(default_factory=list)
    test: List[ColdStartUser] = field(default_factory=list)

    @property
    def num_validation_records(self) -> int:
        return int(sum(len(u.target_items) for u in self.validation))

    @property
    def num_test_records(self) -> int:
        return int(sum(len(u.target_items) for u in self.test))

    @property
    def num_cold_start_users(self) -> int:
        return len(self.validation) + len(self.test)


class CDRScenario:
    """A fully assembled bi-directional cross-domain scenario."""

    def __init__(self, domain_x: Domain, domain_y: Domain,
                 overlap_pairs: np.ndarray,
                 x_to_y: DirectionSplit, y_to_x: DirectionSplit,
                 overlap_user_keys: Sequence[Hashable]):
        self.domain_x = domain_x
        self.domain_y = domain_y
        self.overlap_pairs = np.asarray(overlap_pairs, dtype=np.int64)
        self.x_to_y = x_to_y
        self.y_to_x = y_to_x
        self.overlap_user_keys = list(overlap_user_keys)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    def domain(self, name: str) -> Domain:
        """Look a domain up by name."""
        if name == self.domain_x.name:
            return self.domain_x
        if name == self.domain_y.name:
            return self.domain_y
        raise KeyError(f"unknown domain {name!r}")

    def direction(self, source: str, target: str) -> DirectionSplit:
        """Return the cold-start split for a given transfer direction."""
        for split in (self.x_to_y, self.y_to_x):
            if split.source == source and split.target == target:
                return split
        raise KeyError(f"unknown direction {source!r} -> {target!r}")

    @property
    def directions(self) -> List[DirectionSplit]:
        return [self.x_to_y, self.y_to_x]

    @property
    def num_overlap_train(self) -> int:
        return int(self.overlap_pairs.shape[0])

    def with_overlap_ratio(self, ratio: float, seed: int = 0) -> "CDRScenario":
        """Return a scenario keeping only ``ratio`` of the training overlap pairs.

        This reproduces the Table VIII robustness study: the *evaluation*
        users stay identical, but the number of overlapping users available
        to bridge the domains during training is subsampled.  The users that
        are dropped keep their in-domain edges (they simply stop being known
        as overlapping), which mirrors the paper's setting where only the
        bridge signal shrinks.
        """
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        rng = np.random.default_rng(seed)
        count = max(1, int(round(ratio * self.num_overlap_train)))
        keep = rng.choice(self.num_overlap_train, size=count, replace=False)
        keep.sort()
        return CDRScenario(
            domain_x=self.domain_x,
            domain_y=self.domain_y,
            overlap_pairs=self.overlap_pairs[keep],
            x_to_y=self.x_to_y,
            y_to_x=self.y_to_x,
            overlap_user_keys=[self.overlap_user_keys[i] for i in keep],
        )

    def __repr__(self) -> str:
        return (
            f"CDRScenario({self.domain_x.name}<->{self.domain_y.name}, "
            f"overlap_train={self.num_overlap_train}, "
            f"cold_start={self.x_to_y.num_cold_start_users + self.y_to_x.num_cold_start_users})"
        )


# --------------------------------------------------------------------------- #
# Scenario construction
# --------------------------------------------------------------------------- #
def build_scenario(table_x: InteractionTable, table_y: InteractionTable,
                   cold_start_ratio: float = 0.2,
                   min_user_interactions: int = 5,
                   min_item_interactions: int = 10,
                   seed: int = 0,
                   apply_core_filter: bool = True) -> CDRScenario:
    """Assemble a :class:`CDRScenario` from two raw interaction tables.

    Parameters
    ----------
    table_x, table_y:
        Raw interactions of the two domains, keyed by external ids.  Users
        appearing in both tables (same key) are the overlapping users.
    cold_start_ratio:
        Fraction of overlapping users held out as cold-start users
        (paper: ~20%).
    min_user_interactions, min_item_interactions:
        k-core thresholds of the paper's preprocessing.
    seed:
        Controls the cold-start selection and validation/test split.
    apply_core_filter:
        Disable to keep tiny hand-built fixtures intact in unit tests.
    """
    if apply_core_filter:
        table_x = table_x.filter_core(min_user_interactions, min_item_interactions)
        table_y = table_y.filter_core(min_user_interactions, min_item_interactions)
    else:
        table_x = table_x.deduplicate()
        table_y = table_y.deduplicate()

    edges_x, user_index_x, item_index_x = table_x.to_indexed()
    edges_y, user_index_y, item_index_y = table_y.to_indexed()

    overlap_keys = sorted(set(user_index_x) & set(user_index_y), key=str)
    rng = np.random.default_rng(seed)
    shuffled = list(overlap_keys)
    rng.shuffle(shuffled)

    num_cold = int(round(cold_start_ratio * len(shuffled)))
    cold_keys = shuffled[:num_cold]
    train_overlap_keys = shuffled[num_cold:]

    # Alternate the transfer direction so both directions get ~half of the
    # cold-start users, then split each direction into validation / test.
    cold_x_to_y = cold_keys[0::2]
    cold_y_to_x = cold_keys[1::2]

    graph_x, split_y_to_x = _build_domain_side(
        domain_edges=edges_x, user_index=user_index_x, item_index=item_index_x,
        cold_keys_in_this_target=cold_y_to_x, source_user_index=user_index_y,
        source_edges=edges_y, rng=rng,
    )
    graph_y, split_x_to_y = _build_domain_side(
        domain_edges=edges_y, user_index=user_index_y, item_index=item_index_y,
        cold_keys_in_this_target=cold_x_to_y, source_user_index=user_index_x,
        source_edges=edges_x, rng=rng,
    )

    domain_x = Domain(
        name=table_x.name, num_users=len(user_index_x), num_items=len(item_index_x),
        graph=graph_x, user_index=user_index_x, item_index=item_index_x,
        all_edges=edges_x,
    )
    domain_y = Domain(
        name=table_y.name, num_users=len(user_index_y), num_items=len(item_index_y),
        graph=graph_y, user_index=user_index_y, item_index=item_index_y,
        all_edges=edges_y,
    )

    split_x_to_y.source = domain_x.name
    split_x_to_y.target = domain_y.name
    split_y_to_x.source = domain_y.name
    split_y_to_x.target = domain_x.name

    overlap_pairs = np.array(
        [[user_index_x[key], user_index_y[key]] for key in train_overlap_keys],
        dtype=np.int64,
    ).reshape(-1, 2)

    return CDRScenario(
        domain_x=domain_x,
        domain_y=domain_y,
        overlap_pairs=overlap_pairs,
        x_to_y=split_x_to_y,
        y_to_x=split_y_to_x,
        overlap_user_keys=train_overlap_keys,
    )


def _build_domain_side(domain_edges: np.ndarray, user_index: Dict[Hashable, int],
                       item_index: Dict[Hashable, int],
                       cold_keys_in_this_target: List[Hashable],
                       source_user_index: Dict[Hashable, int],
                       source_edges: np.ndarray,
                       rng: np.random.Generator) -> Tuple[BipartiteGraph, DirectionSplit]:
    """Remove cold-start edges from one target domain and build its eval split."""
    num_users = len(user_index)
    num_items = len(item_index)

    cold_target_indices = np.array(
        [user_index[key] for key in cold_keys_in_this_target], dtype=np.int64
    )
    source_degree = np.zeros(len(source_user_index), dtype=np.int64)
    if source_edges.size:
        np.add.at(source_degree, source_edges[:, 0], 1)

    full_graph = BipartiteGraph(num_users, num_items, domain_edges)
    train_graph = full_graph.subgraph_without_users(cold_target_indices)

    cold_users: List[ColdStartUser] = []
    for key in cold_keys_in_this_target:
        target_idx = user_index[key]
        source_idx = source_user_index[key]
        held_out = full_graph.items_of_user(target_idx)
        if held_out.size == 0:
            continue
        cold_users.append(ColdStartUser(
            user_key=key,
            source_user=source_idx,
            target_items=held_out,
            source_degree=int(source_degree[source_idx]),
        ))

    rng.shuffle(cold_users)
    half = len(cold_users) // 2
    split = DirectionSplit(source="", target="",
                           validation=cold_users[:half], test=cold_users[half:])
    return train_graph, split


# --------------------------------------------------------------------------- #
# Merged single-domain view (for the single-domain baselines)
# --------------------------------------------------------------------------- #
@dataclass
class MergedView:
    """Both domains merged into a single interaction graph.

    Users are unified via their external keys, items are disjoint between
    domains; ``item_offset_y`` maps a domain-Y item index into the merged
    item space.  Cold-start users keep only their source-domain edges, as in
    the scenario's per-domain graphs.
    """

    graph: BipartiteGraph
    user_index: Dict[Hashable, int]
    item_offset_x: int
    item_offset_y: int
    num_items_x: int
    num_items_y: int


def build_merged_view(scenario: CDRScenario) -> MergedView:
    """Merge the training graphs of both domains into one bipartite graph."""
    user_index: Dict[Hashable, int] = {}
    reverse_x = {idx: key for key, idx in scenario.domain_x.user_index.items()}
    reverse_y = {idx: key for key, idx in scenario.domain_y.user_index.items()}

    def merged_user_id(key: Hashable) -> int:
        if key not in user_index:
            user_index[key] = len(user_index)
        return user_index[key]

    item_offset_x = 0
    item_offset_y = scenario.domain_x.num_items

    merged_edges: List[Tuple[int, int]] = []
    for user_idx, item_idx in scenario.domain_x.graph.edges:
        merged_edges.append((merged_user_id(reverse_x[int(user_idx)]),
                             item_offset_x + int(item_idx)))
    for user_idx, item_idx in scenario.domain_y.graph.edges:
        merged_edges.append((merged_user_id(reverse_y[int(user_idx)]),
                             item_offset_y + int(item_idx)))

    # Register users that only appear through evaluation so their merged id
    # exists even if every training edge lives in the other domain.
    for split in scenario.directions:
        for user in split.validation + split.test:
            merged_user_id(user.user_key)

    num_items = scenario.domain_x.num_items + scenario.domain_y.num_items
    graph = BipartiteGraph(len(user_index), num_items,
                           np.asarray(merged_edges, dtype=np.int64).reshape(-1, 2))
    return MergedView(
        graph=graph,
        user_index=user_index,
        item_offset_x=item_offset_x,
        item_offset_y=item_offset_y,
        num_items_x=scenario.domain_x.num_items,
        num_items_y=scenario.domain_y.num_items,
    )
