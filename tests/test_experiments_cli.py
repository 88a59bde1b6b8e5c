"""Tests for the experiments CLI, including the ``serve`` subcommand."""

import numpy as np
import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, run_experiment


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_serve_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--batch-sizes", "1,8", "--top-k", "3"])
        assert args.batch_sizes == "1,8"
        assert args.top_k == 3

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
    def test_serve_runs_and_reports_throughput(self):
        rows = run_experiment("serve", "game_video", "smoke",
                              batch_sizes=[1, 16], top_k=4)
        batched = [r for r in rows if r["mode"] == "batched"]
        assert [r["batch_size"] for r in batched] == [1, 16]
        assert all(np.isfinite(r["users_per_sec"]) and r["users_per_sec"] > 0
                   for r in rows)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiment("tableX", "game_video", "smoke")

    def test_nonpositive_batch_sizes_rejected(self, capsys):
        from repro.experiments.cli import main
        from repro.experiments.runners import run_serving_benchmark

        with pytest.raises(SystemExit):
            main(["serve", "--profile", "smoke", "--batch-sizes", "0,32"])
        assert "batch-sizes" in capsys.readouterr().err
        with pytest.raises(ValueError):
            run_serving_benchmark("game_video", batch_sizes=(-5, 256))


class TestCheckpointPipeline:
    """train --save → serve --checkpoint: the acceptance path of repro.io."""

    def test_serve_checkpoint_matches_live_server(self, tmp_path):
        from repro.core import CDRIB, CDRIBTrainer
        from repro.experiments.config import get_profile
        from repro.experiments.runners import (
            build_paper_scenario,
            run_checkpoint_serving,
            run_training_job,
        )
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
        from repro.experiments.runners import run_checkpoint_serving
        from repro.io import CheckpointError

        trainer = CDRIBTrainer(CDRIB(tiny_scenario, fast_cdrib_config))
        path = trainer.save_checkpoint(str(tmp_path / "anon"))
        with pytest.raises(CheckpointError, match="provenance"):
            run_checkpoint_serving(path)

    def test_cli_main_writes_output_and_manifest(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main

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

        from repro.experiments.cli import main

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

        from repro.experiments.cli import main

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
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["suite", "--jobs", "0"])
        assert "--jobs" in capsys.readouterr().err

    def test_spec_errors_print_cleanly(self, capsys):
        from repro.experiments.cli import main

        code = main(["suite", "--spec", "no-such-spec"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "neither a built-in" in captured.err
