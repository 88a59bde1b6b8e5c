"""Command-line interface for the reproduction experiments.

Usage (after installation)::

    python -m repro.experiments.cli table2
    python -m repro.experiments.cli table3 --scenario music_movie --profile fast
    python -m repro.experiments.cli table7 --scenario phone_elec --output results/ablation.csv
    python -m repro.experiments.cli figure5 --scenario game_video --profile smoke
    python -m repro.experiments.cli serve --profile smoke --batch-sizes 1,64
    python -m repro.experiments.cli train --profile smoke --save runs/ckpt
    python -m repro.experiments.cli serve --checkpoint runs/ckpt --top-k 10
    python -m repro.experiments.cli serve --checkpoint runs/ckpt \
        --index ivf --nprobe 32 --index-dir runs/ivf-index
    python -m repro.experiments.cli ann --num-items 60000
    python -m repro.experiments.cli bench-serve --profile smoke \
        --batch-sizes 8,64 --workers 1,4 --bench-json runs/BENCH_serve.json
    repro suite --spec main-tables --jobs 4 --output runs/main
    repro suite --spec my_sweep.json --jobs 2

Each sub-command maps to one paper artefact (plus the ``serve`` throughput
demo for the :mod:`repro.serve` subsystem and the checkpointed ``train``
pipeline of :mod:`repro.io`), runs the corresponding experiment runner,
prints the resulting table and optionally writes it to CSV or JSON (decided
by the ``--output`` extension).  When ``--output`` is given, a companion
``<output>.manifest.json`` records what produced the file (experiment,
scenario, profile, row count, content checksum).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from ..core import CDRIBTrainer
from . import runners
from .config import PROFILES, get_profile
from .reporting import save_rows_csv, save_rows_json, save_run_manifest

EXPERIMENTS: Dict[str, str] = {
    "table2": "Table II — dataset statistics of every scenario",
    "table3": "Tables III-VI — main comparison on one scenario",
    "table7": "Table VII — ablation study",
    "table8": "Table VIII — overlap-ratio robustness",
    "table9": "Table IX — cold-start interaction-count groups",
    "figure5": "Figure 5 — Lagrangian multiplier sweep",
    "figure6": "Figure 6 — VBGE layer-count sweep",
    "serve": "Serving demo — batched cold-start throughput (repro.serve), "
             "or top-K lists from a saved artifact with --checkpoint; "
             "--index ivf serves through the approximate IVF index",
    "ann": "ANN retrieval benchmark — exact vs IVF top-K on a synthetic "
           "catalogue (recall + queries/sec; repro.serve.ann)",
    "bench-serve": "Concurrent serving load test — N closed-loop client "
                   "workers drive a started request batcher "
                   "(repro.serve.batching) and record p50/p90/p99 latency "
                   "and users/sec per batch size x workers x "
                   "nprobe configuration; --bench-json writes the "
                   "BENCH_serve.json artifact",
    "train": "Train CDRIB with durable checkpoints (--save) and bit-exact "
             "resume (--resume)",
    "suite": "Declarative sweep over scenarios x models x seeds with parallel "
             "workers, per-job artifacts and aggregated mean±std tables "
             "(--spec, --jobs, --output DIR)",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the CDRIB paper.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                        help="which paper artefact to regenerate")
    parser.add_argument("--scenario", default="game_video",
                        help="scenario name (music_movie, phone_elec, cloth_sport, "
                             "game_video); the suite sub-command ignores this — "
                             "use the spec's scenarios axis")
    parser.add_argument("--profile", default=None, choices=sorted(PROFILES),
                        help="budget profile (default: REPRO_BENCH_PROFILE or 'fast')")
    parser.add_argument("--output", default=None,
                        help="optional path to write the rows to (.csv or .json); "
                             "for suite: the artifact directory "
                             "(default: suite_runs/<name>)")
    parser.add_argument("--no-savae", action="store_true",
                        help="skip the SA-VAE comparison in table8/table9 (faster)")
    parser.add_argument("--batch-sizes", default="1,32,256",
                        help="comma-separated request batch sizes (serve only)")
    parser.add_argument("--top-k", type=int, default=10,
                        help="recommendation list length (serve only)")
    parser.add_argument("--save", default=None, metavar="DIR",
                        help="write a final checkpoint to this directory (train only)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="resume bit-exactly from this checkpoint (train only)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="save last/best checkpoints here during training (train only)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the profile's epoch budget (train only)")
    parser.add_argument("--engine", default="fused",
                        choices=CDRIBTrainer.ENGINES,
                        help="training engine (train only)")
    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="serve from this saved checkpoint instead of training "
                             "(serve only)")
    parser.add_argument("--num-users", type=int, default=8,
                        help="users to serve with --checkpoint (serve only)")
    parser.add_argument("--index", default="exact", choices=("exact", "ivf"),
                        dest="index_backend",
                        help="retrieval backend for serve: brute-force exact "
                             "search or the approximate IVF index (serve only)")
    parser.add_argument("--nprobe", type=int, default=None, metavar="N",
                        help="IVF cells probed per query; higher = better "
                             "recall, slower (serve/ann, --index ivf)")
    parser.add_argument("--index-dir", default=None, metavar="DIR",
                        help="load the serving index from this checksummed "
                             "artifact if it exists, else build and save it "
                             "there (serve --checkpoint only)")
    parser.add_argument("--num-items", type=int, default=200_000,
                        help="synthetic catalogue size for the ann benchmark "
                             "(ann only)")
    parser.add_argument("--workers", default="1,4",
                        help="comma-separated concurrent client worker counts "
                             "(bench-serve only)")
    parser.add_argument("--requests", type=int, default=256,
                        help="requests in the generated traffic stream "
                             "(bench-serve only)")
    parser.add_argument("--backends", default="exact,ivf",
                        help="comma-separated retrieval backends to sweep "
                             "(bench-serve only; exact and/or ivf)")
    parser.add_argument("--nprobes", default=None,
                        help="comma-separated IVF probe budgets to sweep "
                             "(bench-serve only; default: the backend's own "
                             "nprobe)")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="write the BENCH_serve.json perf-trajectory "
                             "artifact here (bench-serve only)")
    parser.add_argument("--spec", default="main-tables",
                        help="suite spec: a built-in name or a JSON file path "
                             "(suite only)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel worker processes; results are "
                             "bit-identical to serial (suite only)")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-run every job even if valid artifacts exist "
                             "(suite only)")
    return parser


def run_experiment(name: str, scenario: str, profile_name: Optional[str],
                   include_savae: bool = True,
                   batch_sizes: Optional[List[int]] = None,
                   top_k: int = 10,
                   save_path: Optional[str] = None,
                   resume_path: Optional[str] = None,
                   checkpoint_dir: Optional[str] = None,
                   epochs: Optional[int] = None,
                   engine: str = "fused",
                   checkpoint: Optional[str] = None,
                   num_users: int = 8,
                   index_backend: str = "exact",
                   nprobe: Optional[int] = None,
                   index_dir: Optional[str] = None,
                   num_items: int = 200_000,
                   workers: Optional[List[int]] = None,
                   requests: int = 256,
                   backends: Optional[List[str]] = None,
                   nprobes: Optional[List[int]] = None) -> List[dict]:
    """Dispatch one experiment by CLI name and return its result rows."""
    if name == "serve" and checkpoint is not None:
        # Artifact serving needs no profile: the checkpoint manifest's
        # provenance decides how the scenario is re-assembled.
        return runners.run_checkpoint_serving(checkpoint, top_k=top_k,
                                              num_users=num_users,
                                              index_backend=index_backend,
                                              nprobe=nprobe,
                                              index_dir=index_dir)
    if name == "ann":
        # Pure retrieval benchmark on synthetic latents; no profile either.
        return runners.run_ann_benchmark(num_items=num_items, top_k=top_k,
                                         nprobe=nprobe)
    profile = get_profile(profile_name)
    if name == "bench-serve":
        from .loadgen import run_loadgen_benchmark

        return run_loadgen_benchmark(
            scenario, batch_sizes=tuple(batch_sizes or (8, 64)),
            workers=tuple(workers or (1, 4)),
            nprobes=tuple(nprobes) if nprobes else (None,),
            backends=tuple(backends or ("exact", "ivf")),
            num_requests=requests, top_k=top_k, profile=profile,
        )
    if name == "train":
        return runners.run_training_job(
            scenario, profile=profile, epochs=epochs, engine=engine,
            save_path=save_path, resume_path=resume_path,
            checkpoint_dir=checkpoint_dir,
        )
    if name == "serve":
        return runners.run_serving_benchmark(
            scenario, batch_sizes=tuple(batch_sizes or (1, 32, 256)),
            top_k=top_k, profile=profile, index_backend=index_backend,
            index_options=({"nprobe": nprobe} if nprobe is not None
                           and index_backend == "ivf" else None),
        )
    if name == "table2":
        return runners.run_dataset_statistics(profile=profile)
    if name == "table3":
        return runners.run_main_comparison(scenario, profile=profile)
    if name == "table7":
        return runners.run_ablation(scenario, profile=profile)
    if name == "table8":
        return runners.run_overlap_ratio(scenario, profile=profile,
                                         compare_savae=include_savae)
    if name == "table9":
        return runners.run_interaction_groups(scenario, profile=profile,
                                              compare_savae=include_savae)
    if name == "figure5":
        return runners.run_beta_sweep(scenario, profile=profile)
    if name == "figure6":
        return runners.run_layer_sweep(scenario, profile=profile)
    raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")


def run_suite_command(spec_arg: str, output: Optional[str], jobs: int = 1,
                      resume: bool = True,
                      profile_override: Optional[str] = None,
                      epochs_override: Optional[int] = None) -> int:
    """Run the ``suite`` sub-command: execute a spec and render its tables.

    ``--profile`` / ``--epochs`` override the spec's corresponding fields
    (handy for running a built-in spec at another budget); the overridden
    spec re-validates and hashes as its own resume identity.  Writes per-job
    raw rows and the aggregated mean±std table (CSV and Markdown) under
    ``<output>/tables/``, next to the per-job artifacts and the
    ``suite_manifest.json`` that :func:`~repro.experiments.suite.run_suite`
    maintains.
    """
    import dataclasses

    from .reporting import save_rows_markdown
    from .suite import load_suite_spec, run_suite

    spec = load_suite_spec(spec_arg)
    overrides = {}
    if profile_override is not None:
        overrides["profile"] = profile_override
    if epochs_override is not None:
        overrides["epochs"] = epochs_override
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
        spec.validate()
        print(f"spec overrides from CLI flags: {overrides}")
    output_dir = output or os.path.join("suite_runs", spec.name)
    print(f"suite {spec.name!r}: {len(spec.scenarios)} scenario(s) x "
          f"{len(spec.models)} model(s) x {len(spec.seeds)} seed(s), "
          f"profile {spec.profile!r}, {jobs} worker(s)")
    result = run_suite(spec, output_dir, jobs=jobs, resume=resume)
    if result.skipped:
        print(f"resumed from partial output: {result.skipped} job(s) skipped")

    aggregated = result.aggregate()
    display_columns = ["scenario", "direction", "method", "MRR", "NDCG@10",
                       "HR@10", "seeds", "sig"]
    print()
    print(runners.format_rows(aggregated, columns=display_columns))
    print("\n(* = best model significantly better than the runner-up, "
          "paired t-test on reciprocal ranks, p < 0.05)")
    ann_rows = result.ann_rows()
    if ann_rows:
        print("\nANN serving smoke (spec.ann_check — IVF recall vs exact "
              "retrieval per trained CDRIB job):")
        print(runners.format_rows(ann_rows, columns=[
            "scenario", "model", "seed", "direction", "num_items",
            "num_clusters", "nprobe", "k", "recall_vs_exact"]))

    tables_dir = os.path.join(output_dir, "tables")
    per_job = save_rows_csv(result.rows(), os.path.join(tables_dir, "per_job.csv"))
    agg_csv = save_rows_csv(aggregated, os.path.join(tables_dir, "aggregate.csv"))
    agg_md = save_rows_markdown(
        aggregated, os.path.join(tables_dir, "aggregate.md"),
        columns=display_columns,
        title=f"Suite {spec.name} — {spec.description or 'aggregated results'}")
    for path in (per_job, agg_csv, agg_md):
        save_run_manifest(path, {
            "experiment": "suite",
            "suite": spec.name,
            "spec_sha256": result.spec_sha256,
            "rows": len(aggregated if path != per_job else result.rows()),
        })
    print(f"\nwrote {per_job}, {agg_csv} and {agg_md} "
          f"(manifest: {os.path.join(output_dir, 'suite_manifest.json')})")
    return 0


def save_rows(rows: List[dict], path: str) -> str:
    """Write rows to ``path``, choosing the format from the file extension."""
    if path.endswith(".json"):
        return save_rows_json(rows, path)
    if path.endswith(".csv"):
        return save_rows_csv(rows, path)
    raise ValueError(f"unsupported output extension for {path!r} (use .csv or .json)")


def parse_int_list(value: str, flag: str, parser: argparse.ArgumentParser
                   ) -> List[int]:
    """Parse a comma-separated list of positive integers for ``flag``."""
    try:
        numbers = [int(piece) for piece in value.split(",") if piece.strip()]
    except ValueError:
        parser.error(f"{flag} must be comma-separated integers, got {value!r}")
    if not numbers or any(number < 1 for number in numbers):
        parser.error(f"{flag} must all be >= 1, got {value!r}")
    return numbers


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    batch_sizes = parse_int_list(args.batch_sizes, "--batch-sizes", parser)
    workers = parse_int_list(args.workers, "--workers", parser)
    nprobes = (parse_int_list(args.nprobes, "--nprobes", parser)
               if args.nprobes is not None else None)
    backends = [piece.strip() for piece in args.backends.split(",")
                if piece.strip()]
    if not backends or any(backend not in ("exact", "ivf")
                           for backend in backends):
        parser.error(f"--backends must be a comma-separated subset of "
                     f"exact,ivf — got {args.backends!r}")
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if args.bench_json is not None and args.experiment != "bench-serve":
        parser.error("--bench-json only applies to the bench-serve experiment")
    if args.top_k < 1:
        parser.error(f"--top-k must be >= 1, got {args.top_k}")
    if args.epochs is not None and args.epochs < 1:
        parser.error(f"--epochs must be >= 1, got {args.epochs}")
    if args.num_users < 1:
        parser.error(f"--num-users must be >= 1, got {args.num_users}")
    if args.nprobe is not None and args.nprobe < 1:
        parser.error(f"--nprobe must be >= 1, got {args.nprobe}")
    if args.num_items < 1:
        parser.error(f"--num-items must be >= 1, got {args.num_items}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.experiment == "suite":
        # The suite writes a directory of artifacts, not a single rows file,
        # so it bypasses the generic --output handling below; --profile and
        # --epochs apply as spec overrides rather than being ignored.
        from .suite import SuiteSpecError

        try:
            return run_suite_command(args.spec, args.output, jobs=args.jobs,
                                     resume=not args.no_resume,
                                     profile_override=args.profile,
                                     epochs_override=args.epochs)
        except SuiteSpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    rows = run_experiment(args.experiment, args.scenario, args.profile,
                          include_savae=not args.no_savae,
                          batch_sizes=batch_sizes, top_k=args.top_k,
                          save_path=args.save, resume_path=args.resume,
                          checkpoint_dir=args.checkpoint_dir,
                          epochs=args.epochs, engine=args.engine,
                          checkpoint=args.checkpoint, num_users=args.num_users,
                          index_backend=args.index_backend, nprobe=args.nprobe,
                          index_dir=args.index_dir, num_items=args.num_items,
                          workers=workers, requests=args.requests,
                          backends=backends, nprobes=nprobes)
    print(runners.format_rows(rows))
    if args.bench_json:
        from .loadgen import save_bench_serve

        artifact = save_bench_serve(rows, args.bench_json, config={
            "experiment": args.experiment,
            "scenario": args.scenario,
            "profile": get_profile(args.profile).name,
            "batch_sizes": batch_sizes,
            "workers": workers,
            "backends": backends,
            "nprobes": nprobes,
            "requests": args.requests,
            "top_k": args.top_k,
        })
        print(f"\nwrote BENCH_serve artifact to {artifact}")
    if args.save:
        print(f"\nsaved checkpoint to {args.save}")
    if args.output:
        written = save_rows(rows, args.output)
        manifest = save_run_manifest(written, {
            "experiment": args.experiment,
            "scenario": args.scenario,
            # Resolve the profile the run actually used (REPRO_BENCH_PROFILE
            # or the 'fast' default when --profile was omitted) so archived
            # rows stay attributable; with --checkpoint the scenario/profile
            # of record come from the artifact's own manifest instead.
            "profile": get_profile(args.profile).name,
            "rows": len(rows),
            "checkpoint": args.checkpoint or args.save,
        })
        print(f"\nwrote {len(rows)} rows to {written} (manifest: {manifest})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
