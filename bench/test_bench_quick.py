"""Self-test of the benchmark at ``--quick`` sizes: every workload, traced.

Runs in a few seconds; collected by the repo's tier-1 test run.
"""

import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, load_spec
from bench.compare import compare_dirs
from bench.run import run
from bench.workloads import WORKLOADS

SPEC = load_spec()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced quick run per workload: (records, output directory)."""
    out = tmp_path_factory.mktemp("bench-out")
    records = {name: run(name, seed=0, trace=True, out=str(out), quick=True)
               for name in WORKLOADS}
    return records, out


def _units(declared):
    return {metric["name"]: metric["unit"] for metric in declared}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(traced, workload):
    record = traced[0][workload]
    assert record["correct"], record["checks"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    for key, declared in (("metrics", SPEC["per_layer"]),
                          ("end_to_end", SPEC["end_to_end"])):
        emitted = {name: metric["unit"] for name, metric in record[key].items()}
        assert emitted == _units(declared)
    for name, metric in record["end_to_end"].items():
        assert metric["value"] > 0, name
    layers = {name: metric["value"] for name, metric in record["metrics"].items()}
    assert layers["trace.op_mean_ms"] > 0
    # A measured share, not 1 by construction: at quick sizes the serve
    # hand-back alone can take a tenth of a short request.
    assert 0.5 < layers["trace.coverage"] <= 1.0
    shares = [value for name, value in layers.items() if name.startswith("share.")]
    assert min(shares) >= 0
    assert sum(shares) == pytest.approx(1.0)
    assert record["layers"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_spans_nest_inside_their_parents(traced, workload):
    out = traced[1]
    dump = json.loads((out / f"{workload}-seed0-trace-spans.json").read_text())
    fields = dump["fields"]
    spans = {row[0]: dict(zip(fields, row)) for row in dump["spans"]}
    assert spans
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def test_out_of_range_user_is_counted_as_failed():
    record = run("serve-cold", seed=1, trace=False, quick=True, bad_users=1)
    assert record["failed"] == 1
    assert record["attempted"] > 1
    assert record["correct"], record["checks"]


def test_cli_prints_the_summary_last(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "retrieve-exact",
         "--seed", "2", "--trace", "0", "--quick",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == set(_units(SPEC["end_to_end"]))


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "train",
         "--seed", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert result.returncode != 0
    assert "{" not in result.stdout


def _write_results(directory, values, invalid=()):
    directory.mkdir()
    for seed, value in enumerate(values):
        record = {"workload": "train", "trace": False,
                  "info": {"valid": seed not in invalid}, "metrics": {
                      "throughput_per_s": {"value": value, "unit": "1/s"}}}
        (directory / f"train-seed{seed}.json").write_text(json.dumps(record))


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    _write_results(tmp_path / "base", [100.0, 101.0, 99.0, 100.5])
    _write_results(tmp_path / "same", [100.2, 99.5, 100.8, 99.9])
    _write_results(tmp_path / "slow", [60.0, 61.0, 59.0, 60.5])
    assert compare_dirs(str(tmp_path / "base"), str(tmp_path / "same")) == 0
    assert compare_dirs(str(tmp_path / "base"), str(tmp_path / "slow")) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_leaves_out_invalid_runs(tmp_path, capsys):
    _write_results(tmp_path / "base", [100.0, 101.0, 99.0, 100.5])
    _write_results(tmp_path / "new", [100.2, 10.0, 20.0, 99.9, 100.4],
                   invalid={1, 2})
    assert compare_dirs(str(tmp_path / "base"), str(tmp_path / "new")) == 0
    out = capsys.readouterr().out
    assert "n=3" in out
    assert "INVALID" in out and "train-seed1.json" in out
