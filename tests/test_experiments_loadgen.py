"""Tests for the load-generation harness (``repro.experiments.loadgen``)."""

import json

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer
from repro.experiments.loadgen import (
    generate_traffic,
    load_bench_serve,
    run_load_test,
    run_loadgen_benchmark,
    save_bench_serve,
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
        traffic = np.array([0, 1, 2, 3] * 4)
        first = run_load_test(server, traffic, workers=1, max_batch_size=4)
        again = run_load_test(server, traffic, workers=1, max_batch_size=4)
        # One worker fills no batch: every request is its own flush, and the
        # second run counts its own flushes, not the server's total.
        assert first.batches_flushed == again.batches_flushed == 16
        assert server.stats.users_served == 32

    def test_bad_user_counts_as_error_not_crash(self, trained_model,
                                                small_scenario):
        server = make_server(trained_model, small_scenario)
        traffic = np.array([0, 1, 10**9, 2])
        result = run_load_test(server, traffic, workers=2, max_batch_size=4)
        assert result.errors == 1
        assert result.requests == 4
        assert result.latencies_seconds.shape == (4,)

    def test_row_carries_the_artifact_schema(self, trained_model,
                                             small_scenario, tmp_path):
        server = make_server(trained_model, small_scenario)
        result = run_load_test(server, [0, 1, 2, 3], workers=1,
                               max_batch_size=2)
        row = result.as_row()
        for key in ("users_per_sec", "p50_ms", "p90_ms", "p99_ms",
                    "requests", "workers"):
            assert key in row
        path = save_bench_serve([row], str(tmp_path / "BENCH_serve.json"))
        assert load_bench_serve(path)["rows"][0]["requests"] == 4

    def test_invalid_arguments_rejected(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with pytest.raises(ValueError):
            run_load_test(server, [], workers=1)
        with pytest.raises(ValueError):
            run_load_test(server, [0, 1], workers=0)


class TestLoadgenBenchmark:
    def test_sweep_produces_one_row_per_configuration(self):
        from repro.experiments.config import get_profile

        rows = run_loadgen_benchmark(
            "game_video", batch_sizes=(8,), workers=(1, 2),
            backends=("exact",), num_requests=24, top_k=4,
            profile=get_profile("smoke"))
        assert len(rows) == 2  # 1 batch size x 2 worker counts x 1 backend
        for row in rows:
            assert row["backend"] == "exact"
            assert row["requests"] == 24
            assert row["users_per_sec"] > 0
            assert row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]
        assert sorted(row["workers"] for row in rows) == [1, 2]

    def test_nprobe_axis_applies_to_ivf_only(self):
        from repro.experiments.config import get_profile

        rows = run_loadgen_benchmark(
            "game_video", batch_sizes=(8,), workers=(1,),
            nprobes=(1, 2), backends=("exact", "ivf"), num_requests=16,
            top_k=4, profile=get_profile("smoke"))
        exact = [row for row in rows if row["backend"] == "exact"]
        ivf = [row for row in rows if row["backend"] == "ivf"]
        assert len(exact) == 1 and exact[0]["nprobe"] == ""
        assert sorted(row["nprobe"] for row in ivf) == [1, 2]

    def test_invalid_axes_rejected(self):
        with pytest.raises(ValueError):
            run_loadgen_benchmark(batch_sizes=())
        with pytest.raises(ValueError):
            run_loadgen_benchmark(workers=(0,))
        with pytest.raises(ValueError):
            run_loadgen_benchmark(backends=())
        with pytest.raises(ValueError):
            run_loadgen_benchmark(num_requests=0)


class TestBenchServeArtifact:
    def _rows(self):
        return [{"backend": "exact", "max_batch_size": 8, "workers": 2,
                 "nprobe": "", "users_per_sec": 1000.0, "p50_ms": 1.0,
                 "p90_ms": 2.0, "p99_ms": 3.0}]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_serve.json")
        written = save_bench_serve(self._rows(), path,
                                   config={"scenario": "game_video"})
        payload = load_bench_serve(written)
        assert payload["benchmark"] == "bench-serve"
        assert payload["schema_version"] == 2
        assert payload["config"]["scenario"] == "game_video"
        assert payload["rows"][0]["users_per_sec"] == 1000.0
        assert payload["generated_unix"] > 0

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_bench_serve([], str(tmp_path / "x.json"))

    def test_rows_missing_schema_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="p99_ms"):
            save_bench_serve([{"users_per_sec": 1.0}],
                             str(tmp_path / "x.json"))

    def test_foreign_artifact_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"benchmark": "something-else"}))
        with pytest.raises(ValueError, match="not a bench-serve"):
            load_bench_serve(str(path))
        path.write_text(json.dumps({"benchmark": "bench-serve",
                                    "schema_version": 99, "rows": [{}]}))
        with pytest.raises(ValueError, match="schema_version"):
            load_bench_serve(str(path))


class TestBenchServeCLI:
    def test_parser_accepts_bench_serve_flags(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["bench-serve", "--workers", "1,4", "--requests", "64",
             "--backends", "exact", "--nprobes", "2,4",
             "--bench-json", "out/BENCH_serve.json"])
        assert args.experiment == "bench-serve"
        assert args.workers == "1,4"
        assert args.requests == 64
        assert args.backends == "exact"
        assert args.nprobes == "2,4"
        assert args.bench_json == "out/BENCH_serve.json"

    def test_invalid_flags_rejected(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["bench-serve", "--workers", "0,2"])
        assert "--workers" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["bench-serve", "--backends", "faiss"])
        assert "--backends" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["bench-serve", "--requests", "0"])
        assert "--requests" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve", "--bench-json", "x.json"])
        assert "--bench-json" in capsys.readouterr().err

    def test_main_writes_bench_serve_artifact(self, tmp_path, capsys):
        from repro.experiments.cli import main

        artifact = str(tmp_path / "BENCH_serve.json")
        code = main(["bench-serve", "--profile", "smoke",
                     "--batch-sizes", "8", "--workers", "1,2",
                     "--backends", "exact", "--requests", "24",
                     "--top-k", "4", "--bench-json", artifact])
        assert code == 0
        out = capsys.readouterr().out
        assert "users_per_sec" in out
        assert "wrote BENCH_serve artifact" in out
        payload = load_bench_serve(artifact)
        assert len(payload["rows"]) == 2
        assert payload["config"]["profile"] == "smoke"
        assert payload["config"]["workers"] == [1, 2]
