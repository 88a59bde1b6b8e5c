"""Tests for the experiment-suite orchestrator (repro.experiments.suite).

The load-bearing guarantee pinned here: a suite executed through the
multiprocessing worker pool produces per-job metrics *bit-identical* to
serial execution, and to running each job by hand through the
``train`` / ``run_training_job`` path with the same seed.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments import (
    BUILTIN_SPECS,
    JobSpec,
    SuiteSpec,
    SuiteSpecError,
    expand_jobs,
    get_profile,
    job_key,
    load_suite_spec,
    model_display_name,
    parse_model,
    run_suite,
    spec_sha256,
)
from repro.experiments.reporting import file_sha256
from repro.experiments.suite import SUITE_MANIFEST_NAME

BASE_SPEC = {
    "name": "test-suite",
    "scenarios": ["game_video"],
    "models": ["CDRIB", "BPRMF"],
    "seeds": [0, 1],
    "profile": "smoke",
    "epochs": 2,
}


def make_spec(**overrides):
    raw = {**BASE_SPEC, **overrides}
    return SuiteSpec.from_dict(raw)


# --------------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------------- #
class TestSpecValidation:
    def test_valid_spec_round_trips(self):
        spec = make_spec()
        assert SuiteSpec.from_dict(spec.to_dict()) == spec
        assert spec_sha256(spec) == spec_sha256(SuiteSpec.from_dict(spec.to_dict()))

    def test_hash_changes_with_content(self):
        assert spec_sha256(make_spec()) != spec_sha256(make_spec(seeds=[0, 2]))

    def test_unknown_model_name(self):
        with pytest.raises(SuiteSpecError, match="unknown model"):
            make_spec(models=["CDRIB", "NotAModel"])

    def test_unknown_cdrib_variant(self):
        with pytest.raises(SuiteSpecError, match="unknown CDRIB variant"):
            make_spec(models=["CDRIB:wo_everything"])

    def test_cdrib_full_alias_rejected(self):
        # 'CDRIB:full' would duplicate 'CDRIB' under a different job key.
        with pytest.raises(SuiteSpecError, match="not 'CDRIB:full'"):
            make_spec(models=["CDRIB", "CDRIB:full"])

    @pytest.mark.parametrize("axis", ["scenarios", "models", "seeds"])
    def test_empty_grid_axis(self, axis):
        with pytest.raises(SuiteSpecError, match=f"grid axis '{axis}' is empty"):
            make_spec(**{axis: []})

    @pytest.mark.parametrize("axis,duplicated", [
        ("scenarios", ["game_video", "game_video"]),
        ("models", ["CDRIB", "CDRIB"]),
        ("seeds", [0, 0]),
    ])
    def test_duplicate_axis_entries_rejected(self, axis, duplicated):
        with pytest.raises(SuiteSpecError, match="duplicate"):
            make_spec(**{axis: duplicated})

    def test_unknown_scenario(self):
        with pytest.raises(SuiteSpecError, match="unknown scenario"):
            make_spec(scenarios=["books_tools"])

    def test_unknown_profile_engine_and_bad_epochs(self):
        with pytest.raises(SuiteSpecError, match="unknown profile"):
            make_spec(profile="gigantic")
        with pytest.raises(SuiteSpecError, match="unknown engine"):
            make_spec(engine="warp")
        with pytest.raises(SuiteSpecError, match="unknown engine"):
            make_spec(engine="subgraph")
        with pytest.raises(SuiteSpecError, match="epochs"):
            make_spec(epochs=0)

    def test_bad_seed_types(self):
        with pytest.raises(SuiteSpecError, match="seeds"):
            make_spec(seeds=[0, -3])
        with pytest.raises(SuiteSpecError, match="seeds"):
            make_spec(seeds=[True])

    def test_missing_and_unknown_keys(self):
        with pytest.raises(SuiteSpecError, match="missing required keys"):
            SuiteSpec.from_dict({"name": "x"})
        with pytest.raises(SuiteSpecError, match="unknown suite-spec keys"):
            SuiteSpec.from_dict({**BASE_SPEC, "workers": 4})

    def test_unsafe_suite_name(self):
        with pytest.raises(SuiteSpecError, match="filesystem-safe"):
            make_spec(name="bad/name")


# --------------------------------------------------------------------------- #
# Job-matrix expansion
# --------------------------------------------------------------------------- #
class TestExpansion:
    def test_matrix_size_and_order(self):
        spec = make_spec(scenarios=["game_video", "phone_elec"], seeds=[0, 1, 2])
        jobs = expand_jobs(spec)
        assert len(jobs) == 2 * 2 * 3
        # Scenario-major, then model, then seed.
        assert jobs[0].key == job_key("game_video", "CDRIB", 0)
        assert jobs[1].key == job_key("game_video", "CDRIB", 1)
        assert jobs[-1].key == job_key("phone_elec", "BPRMF", 2)
        assert len({job.key for job in jobs}) == len(jobs)

    def test_job_round_trip(self):
        for job in expand_jobs(make_spec()):
            assert JobSpec.from_dict(job.to_dict()) == job
            assert JobSpec.from_dict(json.loads(json.dumps(job.to_dict()))) == job

    def test_jobs_inherit_spec_settings(self):
        spec = make_spec(engine="reference", epochs=3)
        for job in expand_jobs(spec):
            assert job.engine == "reference"
            assert job.epochs == 3
            assert job.profile == "smoke"

    def test_keys_are_filesystem_safe(self):
        key = job_key("game_video", "EMCDR(BPRMF)", 7)
        assert key == "game_video__emcdr-bprmf__seed7"
        assert "/" not in key and "(" not in key

    def test_parse_model_and_display_names(self):
        assert parse_model("CDRIB") == ("cdrib", "full")
        assert parse_model("CDRIB:wo_con") == ("cdrib", "wo_con")
        assert parse_model("SA-VAE") == ("baseline", "SA-VAE")
        assert model_display_name("CDRIB:wo_inib_con") == "w/o In-IB&Con"
        assert model_display_name("BPRMF") == "BPRMF"

    def test_builtin_specs_all_validate_and_expand(self):
        for name in BUILTIN_SPECS:
            spec = load_suite_spec(name)
            jobs = expand_jobs(spec)
            assert len(jobs) == (len(spec.scenarios) * len(spec.models)
                                 * len(spec.seeds))
            assert spec.profile == "smoke"

    def test_load_spec_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASE_SPEC))
        assert load_suite_spec(str(path)) == make_spec()
        with pytest.raises(SuiteSpecError, match="neither a built-in"):
            load_suite_spec("no-such-spec")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SuiteSpecError, match="not valid JSON"):
            load_suite_spec(str(bad))


# --------------------------------------------------------------------------- #
# Execution: parallel == serial == the train path, bit for bit
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def suite_spec():
    return SuiteSpec.from_dict(BASE_SPEC)


@pytest.fixture(scope="module")
def parallel_run(suite_spec, tmp_path_factory):
    """The base spec executed through a 2-worker multiprocessing pool."""
    output = str(tmp_path_factory.mktemp("suite_parallel"))
    return output, run_suite(suite_spec, output, jobs=2)


@pytest.fixture(scope="module")
def serial_run(suite_spec, tmp_path_factory):
    """The identical spec executed serially in a separate directory."""
    output = str(tmp_path_factory.mktemp("suite_serial"))
    return output, run_suite(suite_spec, output, jobs=1)


class TestParallelMatchesSerial:
    def test_payloads_bit_identical(self, parallel_run, serial_run):
        _, parallel = parallel_run
        _, serial = serial_run
        assert parallel.spec_sha256 == serial.spec_sha256
        assert len(parallel.payloads) == len(serial.payloads) == 4
        # Exact equality — metrics, histories and rank vectors, no tolerance.
        for left, right in zip(parallel.payloads, serial.payloads):
            assert left == right

    def test_cdrib_job_matches_run_training_job_path(self, parallel_run):
        """Suite CDRIB jobs equal a hand-driven `repro train` run, bit for bit."""
        from repro.experiments import (
            build_paper_scenario,
            make_evaluator,
            run_training_job,
            train_cdrib,
        )

        _, result = parallel_run
        payload = next(p for p in result.payloads
                       if p["job"]["model"] == "CDRIB" and p["job"]["seed"] == 1)

        profile = get_profile("smoke")
        profile = dataclasses.replace(
            profile, seed=1, cdrib=profile.cdrib.variant(seed=1),
            baseline=profile.baseline.variant(seed=1))

        # Training trajectory: identical losses epoch by epoch.
        train_rows = run_training_job("game_video", profile=profile, epochs=2)
        assert [row["loss"] for row in train_rows] == \
            [entry["loss"] for entry in payload["history"]]

        # Evaluation metrics: identical to evaluating the serially trained model.
        scenario = build_paper_scenario("game_video", profile)
        evaluator = make_evaluator(scenario, profile)
        trainer = train_cdrib(scenario, profile.cdrib.variant(epochs=2))
        for split, row in zip(scenario.directions, payload["rows"]):
            evaluated = evaluator.evaluate_direction(
                trainer.make_scorer(split.source, split.target),
                split.source, split.target)
            metrics = evaluated.metrics.as_dict()
            assert row["direction"] == f"{split.source}->{split.target}"
            for column in ("MRR", "NDCG@5", "NDCG@10", "HR@1", "HR@5", "HR@10"):
                assert row[column] == metrics[column]

    def test_seeds_actually_vary_results(self, parallel_run):
        _, result = parallel_run
        by_seed = {p["job"]["seed"]: p for p in result.payloads
                   if p["job"]["model"] == "CDRIB"}
        assert by_seed[0]["rows"][0]["MRR"] != by_seed[1]["rows"][0]["MRR"]


# --------------------------------------------------------------------------- #
# Artifacts, manifest and resume-from-partial
# --------------------------------------------------------------------------- #
class TestArtifactsAndResume:
    def test_per_job_artifacts_exist(self, parallel_run, suite_spec):
        output, _ = parallel_run
        for job in expand_jobs(suite_spec):
            job_dir = os.path.join(output, "jobs", job.key)
            assert os.path.isfile(os.path.join(job_dir, "result.json"))
            assert os.path.isfile(os.path.join(job_dir, "result.manifest.json"))
            # Every job leaves a model checkpoint (CDRIB: repro.io dir with
            # payload+manifest; baselines: recommender state).
            assert os.path.exists(os.path.join(job_dir, "checkpoint"))

    def test_cdrib_checkpoint_carries_seed_provenance(self, parallel_run,
                                                      suite_spec):
        output, _ = parallel_run
        key = job_key("game_video", "CDRIB", 1)
        manifest_path = os.path.join(output, "jobs", key, "checkpoint",
                                     "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        provenance = manifest["provenance"]
        assert provenance["scenario"] == "game_video"
        assert provenance["profile"] == "smoke"
        assert provenance["seed"] == 1
        assert provenance["suite_job"] == key

    def test_suite_manifest_records_spec_hash_and_job_checksums(
            self, parallel_run, suite_spec):
        output, result = parallel_run
        with open(os.path.join(output, SUITE_MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["spec_sha256"] == spec_sha256(suite_spec)
        assert manifest["spec"] == suite_spec.to_dict()
        jobs = expand_jobs(suite_spec)
        assert set(manifest["jobs"]) == {job.key for job in jobs}
        for job in jobs:
            entry = manifest["jobs"][job.key]
            recorded = entry["sha256"]
            actual = file_sha256(os.path.join(output, entry["result"]))
            assert recorded == actual

    def test_resume_skips_valid_jobs_and_reruns_invalid(self, parallel_run,
                                                        suite_spec):
        output, first = parallel_run
        # Everything valid: full skip, identical rows.
        resumed = run_suite(suite_spec, output, jobs=1)
        assert resumed.skipped == 4
        assert resumed.rows() == first.rows()

        # Corrupt one result file: its checksum no longer validates, so just
        # that job reruns — and reproduces the identical payload.
        victim = os.path.join(output, "jobs",
                              job_key("game_video", "BPRMF", 0), "result.json")
        with open(victim, "a") as handle:
            handle.write("\n")
        resumed = run_suite(suite_spec, output, jobs=1)
        assert resumed.skipped == 3
        assert resumed.rows() == first.rows()

    def test_resume_refuses_mismatched_spec_hash(self, parallel_run):
        output, _ = parallel_run
        other = make_spec(epochs=1)
        with pytest.raises(SuiteSpecError, match="does not match"):
            run_suite(other, output, jobs=1)

    def test_invalid_worker_count(self, suite_spec, tmp_path):
        with pytest.raises(SuiteSpecError, match="worker count"):
            run_suite(suite_spec, str(tmp_path), jobs=0)


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
class TestAggregation:
    def test_mean_std_over_seeds(self, parallel_run):
        import numpy as np

        _, result = parallel_run
        aggregated = result.aggregate()
        # 2 models x 2 directions.
        assert len(aggregated) == 4
        for row in aggregated:
            assert row["seeds"] == 2
            assert set(("MRR_mean", "MRR_std", "MRR", "sig")) <= set(row)
        cdrib = next(r for r in aggregated
                     if r["model"] == "CDRIB" and r["direction"] == "game->video")
        per_seed = [row["MRR"] for row in result.rows()
                    if row["model"] == "CDRIB" and row["direction"] == "game->video"]
        assert cdrib["MRR_mean"] == pytest.approx(np.mean(per_seed))
        assert cdrib["MRR_std"] == pytest.approx(np.std(per_seed, ddof=1))
        assert cdrib["MRR"] == f"{cdrib['MRR_mean']:.2f}±{cdrib['MRR_std']:.2f}"

    def test_best_model_ranked_first_per_direction(self, parallel_run):
        _, result = parallel_run
        aggregated = result.aggregate()
        by_direction = {}
        for row in aggregated:
            by_direction.setdefault(row["direction"], []).append(row)
        for rows in by_direction.values():
            means = [row["MRR_mean"] for row in rows]
            assert means == sorted(means, reverse=True)

    def test_significance_marker_only_on_best(self, parallel_run):
        _, result = parallel_run
        for row in result.aggregate():
            assert row["sig"] in ("", "*")
        by_direction = {}
        for row in result.aggregate():
            by_direction.setdefault(row["direction"], []).append(row)
        for rows in by_direction.values():
            assert all(row["sig"] == "" for row in rows[1:])


# --------------------------------------------------------------------------- #
# ANN serving smoke (spec.ann_check)
# --------------------------------------------------------------------------- #
class TestAnnCheck:
    def test_ann_check_must_be_boolean(self):
        with pytest.raises(SuiteSpecError, match="ann_check"):
            make_spec(ann_check="yes")

    def test_ann_check_round_trips_and_changes_hash(self):
        spec = make_spec(ann_check=True)
        assert SuiteSpec.from_dict(spec.to_dict()) == spec
        assert spec_sha256(spec) != spec_sha256(make_spec())

    def test_jobs_inherit_ann_check(self):
        jobs = expand_jobs(make_spec(ann_check=True))
        assert all(job.ann_check for job in jobs)
        assert JobSpec.from_dict(jobs[0].to_dict()) == jobs[0]

    def test_smoke_builtin_spec_enables_ann_check(self):
        assert BUILTIN_SPECS["main-tables-smoke"]["ann_check"] is True
        assert load_suite_spec("main-tables-smoke").ann_check

    def test_default_spec_produces_no_ann_rows(self, parallel_run):
        _, result = parallel_run
        assert result.ann_rows() == []
        assert all("ann" not in payload for payload in result.payloads)

    def test_cdrib_jobs_carry_ann_rows(self, tmp_path):
        spec = make_spec(name="ann-check", models=["CDRIB", "BPRMF"],
                         seeds=[0], epochs=1, ann_check=True)
        result = run_suite(spec, str(tmp_path / "out"), jobs=1)
        rows = result.ann_rows()
        assert len(rows) == 1                      # CDRIB only, not baselines
        row = rows[0]
        assert row["model"] == "CDRIB" and row["backend"] == "ivf"
        assert 0.0 <= row["recall_vs_exact"] <= 1.0
        assert 1 <= row["nprobe"] <= row["num_clusters"] <= row["num_items"]
        # The row is part of the durable result artifact (resume-safe)...
        with open(tmp_path / "out" / "jobs" /
                  job_key("game_video", "CDRIB", 0) / "result.json") as handle:
            assert json.load(handle)["ann"] == row
        # ...and a resumed suite reloads it bit for bit.
        resumed = run_suite(spec, str(tmp_path / "out"), jobs=1)
        assert resumed.skipped == 2
        assert resumed.ann_rows() == rows
