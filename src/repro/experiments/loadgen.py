"""Concurrent closed-loop load generation with latency percentiles.

Serving is judged on per-request latency under concurrent traffic, not
only on throughput.  This module drives a server the way huggingbench's
``ExperimentRunner`` does (concurrent client workers, p50/p90/p99):

* :func:`generate_traffic` — a seeded, skewed request stream (a small hot
  set of users produces most requests, mimicking production).
* :func:`run_load_test` — N closed-loop client workers drive one started
  :class:`~repro.serve.RequestBatcher`; every request's submit-to-result
  latency is captured and aggregated into p50/p90/p99 + users/sec.

The repo benchmark (``python3 -m bench run --workload serve-hot``) is the
timing harness of record; this module is the library building block for
custom load tests.  Correctness under concurrency is pinned separately
(``tests/test_serve_frontend.py``: concurrent lists are bit-identical to
synchronous serving).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

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
    any percentile; the other fields summarise the run.
    """

    requests: int
    errors: int
    workers: int
    wall_seconds: float
    users_per_sec: float
    latency: Dict[str, float]
    batches_flushed: int
    latencies_seconds: np.ndarray = field(repr=False)


def run_load_test(server, traffic: Sequence[int], workers: int = 4,
                  k: Optional[int] = None, max_batch_size: int = 64,
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

    with RequestBatcher(server, max_batch_size=max_batch_size).start() as batcher:
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
