"""Concurrent load generation with latency SLOs (``bench-serve``).

The repo's serving benchmarks measure *throughput floors* — how many users
one synchronous loop can push through per second.  Production serving is
judged on something harsher: per-request latency percentiles under
concurrent traffic.  This module closes that gap in the style of
huggingbench's ``ExperimentRunner`` (concurrent client workers, p50/p90/p99
tables):

* :func:`generate_traffic` — a seeded, skewed request stream (a small hot
  set of users produces most requests, mimicking production).
* :func:`run_load_test` — N closed-loop client workers drive one started
  :class:`~repro.serve.RequestBatcher`; every request's submit-to-result
  latency is captured and aggregated into p50/p90/p99 + users/sec.
* :func:`run_loadgen_benchmark` — the ``bench-serve`` sweep: batch size ×
  workers × nprobe over the exact and IVF retrieval backends, one
  saturation-curve row per configuration.
* :func:`save_bench_serve` — the ``BENCH_serve.json`` perf-trajectory
  artifact (schema: config + per-configuration users/sec and latency
  percentiles), the repo's first recorded latency profile.

Correctness under concurrency is pinned separately
(``tests/test_serve_frontend.py``: concurrent lists are bit-identical to
synchronous serving); this module only measures.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import ExperimentProfile, get_profile

ROW = Dict[str, object]

#: Percentiles reported by every latency summary, in ascending order.
LATENCY_PERCENTILES = (50, 90, 99)


# --------------------------------------------------------------------------- #
# Traffic generation
# --------------------------------------------------------------------------- #
def generate_traffic(num_requests: int, num_users: int, seed: int = 0,
                     hot_fraction: float = 0.2,
                     hot_weight: float = 0.8) -> np.ndarray:
    """A seeded request stream of user indices with a configurable skew.

    ``hot_weight`` of the requests target a "hot" subset holding
    ``hot_fraction`` of the users (defaults give the classic 80/20 skew);
    the remainder is uniform over the whole user range.
    """
    if num_requests < 1 or num_users < 1:
        raise ValueError("num_requests and num_users must be >= 1")
    if not 0.0 < hot_fraction <= 1.0 or not 0.0 <= hot_weight <= 1.0:
        raise ValueError(
            f"hot_fraction must be in (0, 1] and hot_weight in [0, 1], got "
            f"{hot_fraction} / {hot_weight}")
    rng = np.random.default_rng(seed)
    hot_users = max(1, int(round(num_users * hot_fraction)))
    is_hot = rng.random(num_requests) < hot_weight
    traffic = rng.integers(0, num_users, size=num_requests)
    traffic[is_hot] = rng.integers(0, hot_users, size=int(is_hot.sum()))
    return traffic


def summarize_latencies(latencies_seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99, mean and max of a latency sample, in milliseconds."""
    sample = np.asarray(latencies_seconds, dtype=np.float64)
    if sample.size == 0:
        raise ValueError("cannot summarize an empty latency sample")
    summary = {f"p{p}_ms": float(np.percentile(sample, p) * 1e3)
               for p in LATENCY_PERCENTILES}
    summary["mean_ms"] = float(sample.mean() * 1e3)
    summary["max_ms"] = float(sample.max() * 1e3)
    return summary


# --------------------------------------------------------------------------- #
# The load test
# --------------------------------------------------------------------------- #
@dataclass
class LoadTestResult:
    """Everything one load-test run measured.

    ``latencies_seconds`` holds every request's submit-to-result latency in
    submission order per worker (concatenated), so callers can recompute
    any percentile; the derived fields are what the benchmark rows carry.
    """

    requests: int
    errors: int
    workers: int
    wall_seconds: float
    users_per_sec: float
    latency: Dict[str, float]
    batches_flushed: int
    latencies_seconds: np.ndarray = field(repr=False)

    def as_row(self) -> ROW:
        """Flatten into one benchmark/report row."""
        row: ROW = {
            "requests": self.requests,
            "errors": self.errors,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "users_per_sec": self.users_per_sec,
            "batches_flushed": self.batches_flushed,
        }
        row.update(self.latency)
        return row


def run_load_test(server, traffic: Sequence[int], workers: int = 4,
                  k: Optional[int] = None, max_batch_size: int = 64,
                  max_delay: float = 0.002,
                  timeout: float = 120.0) -> LoadTestResult:
    """Drive ``server`` with ``workers`` concurrent closed-loop clients.

    The traffic stream is split round-robin across workers; each worker
    submits its next request to a shared, started
    :class:`~repro.serve.RequestBatcher` and blocks on the ticket before
    submitting again (closed-loop load generation — concurrency equals the
    worker count, batches form across workers).  Per-request latency is the
    submit-to-result wall time seen by the client.

    ``batches_flushed`` counts this run's batcher only, so a server can be
    reused across configurations.
    """
    from ..serve import RequestBatcher

    traffic = np.asarray(traffic, dtype=np.int64)
    if traffic.size == 0:
        raise ValueError("traffic must hold at least one request")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(int(workers), int(traffic.size))

    slices = [traffic[w::workers] for w in range(workers)]
    per_worker_latencies: List[List[float]] = [[] for _ in range(workers)]
    per_worker_errors = [0] * workers

    with RequestBatcher(server, max_batch_size=max_batch_size,
                        max_delay=max_delay).start() as batcher:
        def drive(worker: int) -> None:
            latencies = per_worker_latencies[worker]
            for user in slices[worker]:
                begin = time.perf_counter()
                try:
                    batcher.submit(int(user), k=k).result(timeout=timeout)
                except Exception:
                    per_worker_errors[worker] += 1
                latencies.append(time.perf_counter() - begin)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() re-raises worker crashes instead of swallowing them.
            list(pool.map(drive, range(workers)))
        wall = time.perf_counter() - start
        flushed = batcher.batches_flushed

    latencies = np.concatenate(
        [np.asarray(chunk, dtype=np.float64) for chunk in per_worker_latencies])
    return LoadTestResult(
        requests=int(traffic.size),
        errors=int(sum(per_worker_errors)),
        workers=workers,
        wall_seconds=float(wall),
        users_per_sec=float(traffic.size / wall) if wall > 0 else float("inf"),
        latency=summarize_latencies(latencies),
        batches_flushed=int(flushed),
        latencies_seconds=latencies,
    )


# --------------------------------------------------------------------------- #
# The bench-serve sweep
# --------------------------------------------------------------------------- #
def run_loadgen_benchmark(scenario_name: str = "game_video",
                          batch_sizes: Sequence[int] = (8, 64),
                          workers: Sequence[int] = (1, 4),
                          nprobes: Sequence[Optional[int]] = (None,),
                          backends: Sequence[str] = ("exact", "ivf"),
                          num_requests: int = 256,
                          top_k: int = 10,
                          profile: Optional[ExperimentProfile] = None,
                          train_epochs: int = 3,
                          max_delay: float = 0.002,
                          seed: Optional[int] = None) -> List[ROW]:
    """Sweep batch size × workers × nprobe over retrieval backends.

    Trains one small CDRIB checkpoint (exactly like
    :func:`~repro.experiments.runners.run_serving_benchmark`), then serves
    the *same* seeded skewed traffic through every configuration with
    :func:`run_load_test`.  ``nprobes`` applies to the IVF backend only
    (``None`` = the backend default); the exact backend contributes one
    nprobe point per (batch, workers) cell.

    Returns one saturation-curve row per configuration; feed the rows to
    :func:`save_bench_serve` for the durable ``BENCH_serve.json`` artifact.
    """
    from ..serve import ColdStartServer
    from .runners import build_paper_scenario, train_cdrib

    if not batch_sizes or any(size < 1 for size in batch_sizes):
        raise ValueError(f"batch_sizes must all be >= 1, got {batch_sizes!r}")
    if not workers or any(count < 1 for count in workers):
        raise ValueError(f"workers must all be >= 1, got {workers!r}")
    if not backends:
        raise ValueError("backends must name at least one retrieval backend")
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")

    profile = profile if profile is not None else get_profile()
    seed = profile.seed if seed is None else int(seed)
    scenario = build_paper_scenario(scenario_name, profile)
    config = profile.cdrib.variant(epochs=min(profile.cdrib.epochs, train_epochs))
    trainer = train_cdrib(scenario, config)
    split = scenario.x_to_y
    num_source_users = scenario.domain(split.source).num_users
    traffic = generate_traffic(num_requests, num_source_users, seed=seed)

    rows: List[ROW] = []
    for backend in backends:
        nprobe_axis: Sequence[Optional[int]] = (
            tuple(nprobes) if backend == "ivf" else (None,))
        server = ColdStartServer(trainer.model, split.source, split.target,
                                 top_k=top_k, index_backend=backend)
        for nprobe in nprobe_axis:
            if nprobe is not None:
                server.index.nprobe = int(nprobe)
            for worker_count in workers:
                for batch_size in batch_sizes:
                    result = run_load_test(
                        server, traffic, workers=worker_count,
                        max_batch_size=batch_size, max_delay=max_delay)
                    row: ROW = {
                        "scenario": scenario_name,
                        "direction": f"{split.source}->{split.target}",
                        "backend": backend,
                        "nprobe": (getattr(server.index, "nprobe", "")
                                   if backend == "ivf" else ""),
                        "max_batch_size": batch_size,
                        "top_k": top_k,
                    }
                    row.update(result.as_row())
                    rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# The BENCH_serve.json artifact
# --------------------------------------------------------------------------- #
#: Current schema version of the BENCH_serve.json artifact.
BENCH_SERVE_SCHEMA_VERSION = 2


def save_bench_serve(rows: List[ROW], path: str,
                     config: Optional[Dict[str, object]] = None) -> str:
    """Write the ``BENCH_serve.json`` perf-trajectory artifact.

    Schema (``schema_version`` 2): a top-level object with the sweep
    ``config`` (scenario, axes, profile — whatever the caller records), a
    ``generated_unix`` timestamp, and ``rows`` — one object per swept
    configuration carrying ``users_per_sec`` and the ``p50_ms``/``p90_ms``/
    ``p99_ms`` latency percentiles alongside its identifying axes (backend,
    nprobe, max_batch_size, workers).  Version 1 rows also carried the
    user-latent cache's ``cache_hit_rate``.
    """
    if not rows:
        raise ValueError("refusing to write an empty BENCH_serve artifact")
    required = {"users_per_sec", "p50_ms", "p90_ms", "p99_ms"}
    for row in rows:
        missing = required - set(row)
        if missing:
            raise ValueError(
                f"BENCH_serve row is missing {sorted(missing)}; rows must "
                f"come from run_loadgen_benchmark/run_load_test")
    payload = {
        "benchmark": "bench-serve",
        "schema_version": BENCH_SERVE_SCHEMA_VERSION,
        "generated_unix": time.time(),
        "config": dict(config or {}),
        "rows": [dict(row) for row in rows],
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench_serve(path: str) -> Dict[str, object]:
    """Load and schema-check a ``BENCH_serve.json`` artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("benchmark") != "bench-serve":
        raise ValueError(f"{path!r} is not a bench-serve artifact")
    version = payload.get("schema_version")
    if version != BENCH_SERVE_SCHEMA_VERSION:
        raise ValueError(
            f"{path!r} has schema_version {version!r}; this reader "
            f"understands {BENCH_SERVE_SCHEMA_VERSION}")
    if not isinstance(payload.get("rows"), list) or not payload["rows"]:
        raise ValueError(f"{path!r} carries no benchmark rows")
    return payload
