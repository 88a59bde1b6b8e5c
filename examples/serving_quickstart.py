#!/usr/bin/env python3
"""Serving quickstart: batched cold-start recommendations with ``repro.serve``.

Walks the serving hot path end to end:

1. train a small CDRIB checkpoint on a synthetic scenario,
2. build a :class:`~repro.serve.ColdStartServer` for one transfer direction
   (item latents are precomputed once into an :class:`~repro.serve.ItemIndex`,
   user latents once into a read-only table),
3. serve a batch of cold-start users with one vectorized top-K pass,
4. stream single-user requests through the :class:`~repro.serve.RequestBatcher`,
5. show the per-checkpoint user-latent table: its memory cost, and repeat
   traffic served from it without touching the encoder,
6. serve the same direction through the approximate IVF index and measure
   its recall against exact retrieval (``docs/SERVING.md`` covers when the
   switch pays off — catalogues past ~100k items).

Run with::

    python examples/serving_quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer
from repro.data import SyntheticConfig, SyntheticCrossDomainGenerator, build_scenario
from repro.eval import recall_against_exact
from repro.serve import ColdStartServer, RequestBatcher


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Data + a small trained checkpoint.
    # ------------------------------------------------------------------ #
    data = SyntheticCrossDomainGenerator(SyntheticConfig(
        name_x="books", name_y="films",
        num_overlap_users=150, num_specific_users_x=80, num_specific_users_y=80,
        num_items_x=180, num_items_y=180, seed=7,
    )).generate()
    scenario = build_scenario(data.table_x, data.table_y, cold_start_ratio=0.2,
                              min_user_interactions=5, min_item_interactions=3, seed=0)
    model = CDRIB(scenario, CDRIBConfig(embedding_dim=32, num_layers=2, epochs=10,
                                        batch_size=256, seed=0))
    CDRIBTrainer(model).fit()

    # ------------------------------------------------------------------ #
    # 2. Build the server: books-users -> films-items.
    # ------------------------------------------------------------------ #
    server = ColdStartServer(model, source="books", target="films", top_k=5)
    print(f"server: {server}")
    print(f"item index: {server.index.num_items} films x dim {server.index.dim}")

    # ------------------------------------------------------------------ #
    # 3. One batched request for several cold-start users.
    # ------------------------------------------------------------------ #
    cold_users = [u.source_user for u in scenario.x_to_y.test][:4]
    start = time.perf_counter()
    recommendations = server.recommend(cold_users)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"\nbatched recommend({len(cold_users)} users) in {elapsed_ms:.2f} ms:")
    for rec in recommendations:
        pretty = ", ".join(f"{item}:{score:.3f}"
                           for item, score in zip(rec.items, rec.scores))
        print(f"  books-user {rec.user:4d} -> top-{len(rec)} films [{pretty}]")

    # ------------------------------------------------------------------ #
    # 4. Streaming requests through the micro-batching queue.
    # ------------------------------------------------------------------ #
    batcher = RequestBatcher(server, max_batch_size=3)
    tickets = [batcher.submit(int(user)) for user in cold_users[:3]]  # auto-flush
    print(f"\nstreaming: {batcher.batches_flushed} batch flushed, "
          f"first ticket -> items {tickets[0].result().items}")

    # ------------------------------------------------------------------ #
    # 5. Every books-user was encoded once, at construction, into a
    #    read-only table (rebuilt by server.refresh() after a weight
    #    update); requests only gather rows from it.
    # ------------------------------------------------------------------ #
    table = server.user_latents(np.arange(scenario.domain("books").num_users))
    print(f"\nuser-latent table: {table.shape[0]} users x dim {table.shape[1]} "
          f"{table.dtype} = {table.nbytes / 1e3:.1f} kB")
    rng = np.random.default_rng(0)
    repeat_traffic = rng.choice(cold_users, size=64).tolist()
    start = time.perf_counter()
    server.recommend(repeat_traffic)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"{len(repeat_traffic)} skewed repeat requests in one batch: "
          f"{elapsed_ms:.2f} ms, no encoder pass")

    # ------------------------------------------------------------------ #
    # 6. The approximate IVF backend, measured against exact retrieval.
    #    (At this toy catalogue size exact is faster — the IVF backend
    #    exists for 100k+ item catalogues; this demos the API + recall.)
    # ------------------------------------------------------------------ #
    num_clusters = max(2, server.index.num_items // 16)
    ivf_server = ColdStartServer(model, source="books", target="films",
                                 top_k=5, index_backend="ivf",
                                 index_options={"num_clusters": num_clusters,
                                                "nprobe": max(1, num_clusters // 2)})
    latents = server.user_latents(np.asarray(cold_users, dtype=np.int64))
    exact_items, _ = server.index.top_k(latents, 5)
    ivf_items, _ = ivf_server.index.top_k(latents, 5)
    recall = recall_against_exact(ivf_items, exact_items)
    print(f"\nIVF serving: {ivf_server.index!r}")
    print(f"recall@5 vs exact retrieval over {len(cold_users)} users: {recall:.2f}")


if __name__ == "__main__":
    main()
