"""Tests for the load-generation harness (``repro.experiments.loadgen``)."""

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer
from repro.experiments.loadgen import (
    generate_traffic,
    run_load_test,
    summarize_latencies,
)
from repro.serve import ColdStartServer


@pytest.fixture(scope="module")
def trained_model(small_scenario):
    model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16, num_layers=2,
                                              epochs=2, batch_size=128,
                                              num_negatives=2, seed=0))
    CDRIBTrainer(model).fit()
    return model


def make_server(trained_model, small_scenario, **kwargs):
    defaults = dict(top_k=5)
    defaults.update(kwargs)
    return ColdStartServer(trained_model, small_scenario.domain_x.name,
                           small_scenario.domain_y.name, **defaults)


class TestGenerateTraffic:
    def test_seeded_and_in_range(self):
        traffic = generate_traffic(500, 40, seed=7)
        assert traffic.shape == (500,)
        assert traffic.min() >= 0 and traffic.max() < 40
        assert np.array_equal(traffic, generate_traffic(500, 40, seed=7))
        assert not np.array_equal(traffic, generate_traffic(500, 40, seed=8))

    def test_hot_set_dominates(self):
        traffic = generate_traffic(2000, 100, seed=0, hot_fraction=0.2,
                                   hot_weight=0.8)
        hot_share = float(np.mean(traffic < 20))
        # 80% of requests target the hot 20% (plus uniform spillover).
        assert hot_share > 0.7

    def test_uniform_when_hot_weight_zero(self):
        traffic = generate_traffic(2000, 100, seed=0, hot_weight=0.0)
        assert float(np.mean(traffic < 20)) < 0.35

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            generate_traffic(0, 10)
        with pytest.raises(ValueError):
            generate_traffic(10, 0)
        with pytest.raises(ValueError):
            generate_traffic(10, 10, hot_fraction=0.0)
        with pytest.raises(ValueError):
            generate_traffic(10, 10, hot_weight=1.5)


class TestSummarizeLatencies:
    def test_percentiles_ordered_and_in_ms(self):
        summary = summarize_latencies(np.linspace(0.001, 0.1, 100))
        assert summary["p50_ms"] <= summary["p90_ms"] <= summary["p99_ms"]
        assert summary["p99_ms"] <= summary["max_ms"] == pytest.approx(100.0)
        assert summary["mean_ms"] == pytest.approx(50.5, rel=1e-6)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([])


class TestRunLoadTest:
    def test_serves_all_requests_with_percentiles(self, trained_model,
                                                  small_scenario):
        server = make_server(trained_model, small_scenario)
        num_users = small_scenario.domain_x.graph.num_users
        traffic = generate_traffic(64, num_users, seed=3)
        result = run_load_test(server, traffic, workers=4, max_batch_size=8)
        assert result.requests == 64
        assert result.errors == 0
        assert result.workers == 4
        assert result.latencies_seconds.shape == (64,)
        assert result.users_per_sec > 0
        assert (result.latency["p50_ms"] <= result.latency["p90_ms"]
                <= result.latency["p99_ms"])
        assert result.batches_flushed >= 1

    def test_counters_are_per_run_on_a_reused_server(self, trained_model,
                                                     small_scenario):
        server = make_server(trained_model, small_scenario)
        served = []
        recommend = server.recommend

        def counting_recommend(users, k=None):
            served.extend(int(u) for u in users)
            return recommend(users, k=k)

        server.recommend = counting_recommend
        traffic = np.array([0, 1, 2, 3] * 4)
        first = run_load_test(server, traffic, workers=1, max_batch_size=4)
        again = run_load_test(server, traffic, workers=1, max_batch_size=4)
        # One worker fills no batch: every request is its own flush, and the
        # second run counts its own flushes, not the server's total.
        assert first.batches_flushed == again.batches_flushed == 16
        assert served == list(traffic) * 2

    def test_bad_user_counts_as_error_not_crash(self, trained_model,
                                                small_scenario):
        server = make_server(trained_model, small_scenario)
        traffic = np.array([0, 1, 10**9, 2])
        result = run_load_test(server, traffic, workers=2, max_batch_size=4)
        assert result.errors == 1
        assert result.requests == 4
        assert result.latencies_seconds.shape == (4,)

    def test_invalid_arguments_rejected(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with pytest.raises(ValueError):
            run_load_test(server, [], workers=1)
        with pytest.raises(ValueError):
            run_load_test(server, [0, 1], workers=0)


@pytest.fixture(scope="module")
def latency_results(trained_model, small_scenario):
    """One load test per backend x max batch size x worker count."""
    num_users = small_scenario.domain_x.graph.num_users
    traffic = generate_traffic(192, num_users, seed=0)
    results = []
    for backend in ("exact", "ivf"):
        server = make_server(trained_model, small_scenario, top_k=10,
                             index_backend=backend)
        for max_batch_size in (8, 64):
            for workers in (1, 4):
                results.append(run_load_test(server, traffic, workers=workers,
                                             max_batch_size=max_batch_size))
    return results


class TestServingLatency:
    """Structural gates of concurrent serving over both index backends.

    Percentile order, positive throughput and every request served, not
    absolute latencies, which would flake on shared machines; the
    ``serve-hot`` workload of ``python3 -m bench`` times serving.
    """

    def test_percentiles_ordered_and_throughput_positive(self,
                                                         latency_results):
        for result in latency_results:
            assert result.errors == 0
            assert result.users_per_sec > 0
            assert (0 < result.latency["p50_ms"] <= result.latency["p90_ms"]
                    <= result.latency["p99_ms"])

    def test_every_request_served(self, latency_results):
        assert all(result.requests == 192 for result in latency_results)
