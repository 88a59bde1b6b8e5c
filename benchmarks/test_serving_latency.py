"""Concurrent serving latency benchmark (``repro.experiments.loadgen``).

Drives a started :class:`~repro.serve.RequestBatcher` with concurrent
closed-loop client workers and reports the saturation-curve rows that
``bench-serve`` emits: users/sec plus p50/p90/p99 submit-to-result latency
per batch size x workers x backend configuration.

The gates here are *structural* — percentile ordering, positive throughput,
every request served — not absolute latency numbers, which would flake on
shared CI machines.  Absolute numbers live in the
``BENCH_serve.json`` artifact the CI smoke job uploads.

Run with ``pytest benchmarks/test_serving_latency.py -s`` to see the table.
"""

import pytest

from repro.experiments import format_rows, run_loadgen_benchmark

SCENARIO = "game_video"


@pytest.fixture(scope="module")
def latency_rows(profile):
    rows = run_loadgen_benchmark(SCENARIO, batch_sizes=(8, 64),
                                 workers=(1, 4), backends=("exact", "ivf"),
                                 num_requests=192, top_k=10, profile=profile)
    print("\n" + format_rows(rows, columns=[
        "backend", "nprobe", "max_batch_size", "workers", "users_per_sec",
        "p50_ms", "p90_ms", "p99_ms"]))
    return rows


class TestServingLatency:
    def test_one_row_per_swept_configuration(self, latency_rows):
        # 2 batch sizes x 2 worker counts x 2 backends.
        assert len(latency_rows) == 8
        seen = {(r["backend"], r["max_batch_size"], r["workers"])
                for r in latency_rows}
        assert len(seen) == 8

    def test_row_schema_matches_bench_serve_artifact(self, latency_rows):
        required = {"backend", "nprobe", "max_batch_size", "workers",
                    "requests", "users_per_sec", "p50_ms", "p90_ms", "p99_ms",
                    "mean_ms", "errors"}
        assert required <= set(latency_rows[0])

    def test_percentiles_ordered_and_throughput_positive(self, latency_rows):
        for row in latency_rows:
            assert row["errors"] == 0
            assert row["users_per_sec"] > 0
            assert 0 < row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]

    def test_every_request_served(self, latency_rows):
        assert all(row["requests"] == 192 for row in latency_rows)
