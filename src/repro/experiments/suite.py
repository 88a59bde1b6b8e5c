"""Experiment-suite orchestrator: declarative sweeps over the paper's grid.

The paper's evidence is a grid of experiments — scenarios × models × seeds —
but a single :mod:`repro.experiments.cli` invocation runs exactly one job.
This module turns a *declarative suite spec* (a plain dict / JSON document)
into the whole grid:

1. :class:`SuiteSpec` validates the spec and :func:`expand_jobs` expands its
   axes into a deterministic job matrix of :class:`JobSpec` entries;
2. :func:`run_suite` executes the jobs — serially or through a
   ``multiprocessing`` worker pool — with *deterministic per-job seeding*:
   every job derives its scenario split, model initialisation and evaluator
   RNG from its own ``seed`` axis value, so parallel results are
   bit-identical to serial execution (pinned by
   ``tests/test_experiments_suite.py``);
3. every job writes durable artifacts (``result.json`` + a checksummed
   ``result.manifest.json`` via :func:`~repro.experiments.reporting.save_run_manifest`,
   plus a model checkpoint), and the suite writes a top-level
   ``suite_manifest.json`` recording the spec's SHA-256 and every job's
   result checksum — re-running with the same spec *resumes from partial
   output*, skipping jobs whose artifacts validate, and refuses an output
   directory produced by a different spec;
4. :class:`SuiteResult` aggregates per-seed metrics into mean±std tables
   with paired t-test significance markers
   (:func:`repro.eval.paired_t_test_ranks`).

Model axis entries are either baseline registry names (``"BPRMF"``,
``"SA-VAE"``, …), ``"CDRIB"`` (the full model) or ``"CDRIB:<variant>"`` for
the Table VII ablation variants (``CDRIB:wo_con`` etc.).  CDRIB jobs train
through the same :func:`~repro.experiments.runners.execute_training_job`
path as the ``train`` CLI sub-command.

Built-in specs (``BUILTIN_SPECS``) regenerate the Tables III–VI main
comparison and the Table VII ablation at the smoke profile::

    repro suite --spec main-tables --jobs 4 --output runs/main
    repro suite --spec ablation --jobs 4 --output runs/ablation
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import ALL_BASELINES, make_baseline
from ..core import CDRIBTrainer
from ..core.variants import (
    ABLATION_VARIANTS,
    make_ablation_config,
    variant_display_name,
)
from ..data import PAPER_SCENARIOS
from ..eval import paired_t_test_ranks
from .config import PROFILES, get_profile
from .reporting import file_sha256, format_mean_std, save_run_manifest
from .runners import build_paper_scenario, execute_training_job, make_evaluator

ROW = Dict[str, object]

SUITE_MANIFEST_NAME = "suite_manifest.json"
SUITE_FORMAT_VERSION = 1

#: Metric columns carried by every per-direction job row.
METRIC_COLUMNS = ("MRR", "NDCG@5", "NDCG@10", "HR@1", "HR@5", "HR@10")


class SuiteSpecError(ValueError):
    """A suite spec is malformed, or an output directory belongs to another spec."""


# --------------------------------------------------------------------------- #
# Spec and job matrix
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SuiteSpec:
    """Declarative description of one experiment sweep.

    The three grid axes (``scenarios`` × ``models`` × ``seeds``) expand into
    one job per combination; ``profile`` applies to every job, while
    ``engine`` and ``epochs`` configure the CDRIB trainer (baseline jobs
    train at the profile's own baseline budget — their epoch counts are not
    comparable to CDRIB's).  Specs are plain data: :meth:`from_dict` / :meth:`to_dict`
    round-trip losslessly and :func:`spec_sha256` hashes the canonical JSON
    form, which is what pins resume-from-partial to the exact spec.
    """

    name: str
    scenarios: Tuple[str, ...]
    models: Tuple[str, ...]
    seeds: Tuple[int, ...]
    profile: str = "smoke"
    engine: str = "fused"
    epochs: Optional[int] = None
    description: str = ""
    #: When true, every CDRIB job additionally builds exact + IVF retrieval
    #: indexes over its trained target catalogue and records the IVF
    #: recall@10 against exact search in its result payload (an "ann" row;
    #: see :meth:`SuiteResult.ann_rows`).  A serving-stack smoke wired into
    #: the grid — it never changes the job's metrics.
    ann_check: bool = False

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "SuiteSpec":
        """Build and validate a spec from its dict / parsed-JSON form."""
        if not isinstance(raw, dict):
            raise SuiteSpecError(f"suite spec must be a dict, got {type(raw).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise SuiteSpecError(f"unknown suite-spec keys {unknown}; known: {sorted(known)}")
        missing = [key for key in ("name", "scenarios", "models", "seeds") if key not in raw]
        if missing:
            raise SuiteSpecError(f"suite spec is missing required keys {missing}")
        spec = cls(
            name=str(raw["name"]),
            scenarios=tuple(raw["scenarios"]),
            models=tuple(raw["models"]),
            seeds=tuple(raw["seeds"]),
            profile=str(raw.get("profile", "smoke")),
            engine=str(raw.get("engine", "fused")),
            epochs=(None if raw.get("epochs") is None else int(raw["epochs"])),
            description=str(raw.get("description", "")),
            ann_check=raw.get("ann_check", False),
        )
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, object]:
        """The spec's canonical dict form (JSON-serialisable, round-trips)."""
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "models": list(self.models),
            "seeds": list(self.seeds),
            "profile": self.profile,
            "engine": self.engine,
            "epochs": self.epochs,
            "description": self.description,
            "ann_check": self.ann_check,
        }

    def validate(self) -> None:
        """Raise :class:`SuiteSpecError` on any malformed field or axis."""
        if not self.name or not re.fullmatch(r"[A-Za-z0-9._-]+", self.name):
            raise SuiteSpecError(
                f"suite name {self.name!r} must be a non-empty filesystem-safe "
                f"token ([A-Za-z0-9._-]+)")
        for axis, values in (("scenarios", self.scenarios),
                             ("models", self.models), ("seeds", self.seeds)):
            if len(values) == 0:
                raise SuiteSpecError(f"grid axis {axis!r} is empty")
            if len(set(values)) != len(values):
                duplicates = sorted({v for v in values if list(values).count(v) > 1},
                                    key=str)
                raise SuiteSpecError(
                    f"grid axis {axis!r} has duplicate entries {duplicates}, "
                    f"which would collide on job keys")
        for scenario in self.scenarios:
            if scenario not in PAPER_SCENARIOS:
                raise SuiteSpecError(
                    f"unknown scenario {scenario!r}; available: {sorted(PAPER_SCENARIOS)}")
        for model in self.models:
            parse_model(model)  # raises on unknown names/variants
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
                raise SuiteSpecError(f"seeds must be non-negative integers, got {seed!r}")
        if self.profile not in PROFILES:
            raise SuiteSpecError(
                f"unknown profile {self.profile!r}; available: {sorted(PROFILES)}")
        if self.engine not in CDRIBTrainer.ENGINES:
            raise SuiteSpecError(
                f"unknown engine {self.engine!r}; available: {CDRIBTrainer.ENGINES}")
        if self.epochs is not None and self.epochs < 1:
            raise SuiteSpecError(f"epochs must be >= 1, got {self.epochs}")
        if not isinstance(self.ann_check, bool):
            raise SuiteSpecError(
                f"ann_check must be a boolean, got {self.ann_check!r}")


@dataclass(frozen=True)
class JobSpec:
    """One cell of the expanded job matrix.

    ``key`` is the job's stable, filesystem-safe identity — the per-job
    artifact directory name and the unit of resume-from-partial.
    """

    key: str
    scenario: str
    model: str
    seed: int
    profile: str
    engine: str
    epochs: Optional[int]
    ann_check: bool = False

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "JobSpec":
        """Rebuild a job from its dict form (inverse of :meth:`to_dict`)."""
        return cls(key=str(raw["key"]), scenario=str(raw["scenario"]),
                   model=str(raw["model"]), seed=int(raw["seed"]),
                   profile=str(raw["profile"]), engine=str(raw["engine"]),
                   epochs=(None if raw.get("epochs") is None else int(raw["epochs"])),
                   ann_check=bool(raw.get("ann_check", False)))

    def to_dict(self) -> Dict[str, object]:
        """The job's canonical dict form (stored in every result artifact)."""
        return {"key": self.key, "scenario": self.scenario, "model": self.model,
                "seed": self.seed, "profile": self.profile,
                "engine": self.engine, "epochs": self.epochs,
                "ann_check": self.ann_check}


def parse_model(name: str) -> Tuple[str, str]:
    """Classify a model-axis entry as ``("cdrib", variant)`` or ``("baseline", name)``.

    Raises :class:`SuiteSpecError` for names in neither the baseline registry
    nor the CDRIB ablation-variant set.
    """
    if name == "CDRIB":
        return "cdrib", "full"
    if name.startswith("CDRIB:"):
        variant = name.split(":", 1)[1]
        if variant == "full":
            # One spelling per model, or the duplicate-axis guard can be
            # evaded by listing the same model under both names.
            raise SuiteSpecError("spell the full model 'CDRIB', not 'CDRIB:full'")
        if variant not in ABLATION_VARIANTS:
            raise SuiteSpecError(
                f"unknown CDRIB variant {variant!r}; available: {ABLATION_VARIANTS}")
        return "cdrib", variant
    if name in ALL_BASELINES:
        return "baseline", name
    raise SuiteSpecError(
        f"unknown model {name!r}; available: 'CDRIB', "
        f"'CDRIB:<{'|'.join(ABLATION_VARIANTS)}>' or one of {ALL_BASELINES}")


def model_display_name(name: str) -> str:
    """The paper display name of a model-axis entry (``CDRIB:wo_con`` → ``w/o Con``)."""
    kind, detail = parse_model(name)
    return variant_display_name(detail) if kind == "cdrib" else name


def job_key(scenario: str, model: str, seed: int) -> str:
    """The deterministic, filesystem-safe key of one job."""
    slug = re.sub(r"[^A-Za-z0-9.]+", "-", model).strip("-").lower()
    return f"{scenario}__{slug}__seed{seed}"


def expand_jobs(spec: SuiteSpec) -> List[JobSpec]:
    """Expand a validated spec's axes into the deterministic job matrix.

    Order is scenario-major, then model, then seed — the serial execution
    order that parallel runs must reproduce bit-identically.  Duplicate job
    keys (two model names collapsing to one slug) raise.
    """
    spec.validate()
    jobs: List[JobSpec] = []
    seen: Dict[str, str] = {}
    for scenario in spec.scenarios:
        for model in spec.models:
            for seed in spec.seeds:
                key = job_key(scenario, model, seed)
                if key in seen:
                    raise SuiteSpecError(
                        f"duplicate job key {key!r}: models {seen[key]!r} and "
                        f"{model!r} collide after slugging")
                seen[key] = model
                jobs.append(JobSpec(key=key, scenario=scenario, model=model,
                                    seed=seed, profile=spec.profile,
                                    engine=spec.engine, epochs=spec.epochs,
                                    ann_check=spec.ann_check))
    return jobs


def spec_sha256(spec: SuiteSpec) -> str:
    """SHA-256 of the spec's canonical JSON form (the resume identity)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Built-in specs
# --------------------------------------------------------------------------- #
BUILTIN_SPECS: Dict[str, Dict[str, object]] = {
    # Tables III-VI: every baseline family + CDRIB on all four scenarios.
    "main-tables": {
        "name": "main-tables",
        "description": "Tables III-VI main comparison (all scenarios x all "
                       "baselines + CDRIB) at smoke profile",
        "scenarios": ["music_movie", "phone_elec", "cloth_sport", "game_video"],
        "models": list(ALL_BASELINES) + ["CDRIB"],
        "seeds": [0, 1, 2],
        "profile": "smoke",
    },
    # A CI-sized slice of the above: one scenario, one model per family.
    # ann_check additionally smokes the IVF serving path on every trained
    # CDRIB cell (see SuiteResult.ann_rows).
    "main-tables-smoke": {
        "name": "main-tables-smoke",
        "description": "CI slice of the Tables III-VI comparison: one scenario, "
                       "one model per baseline family, two seeds",
        "scenarios": ["game_video"],
        "models": ["BPRMF", "PPGN", "EMCDR(BPRMF)", "SA-VAE", "CDRIB"],
        "seeds": [0, 1],
        "profile": "smoke",
        "ann_check": True,
    },
    # Table VII: the paper's two degenerate variants against full CDRIB.
    "ablation": {
        "name": "ablation",
        "description": "Table VII ablation (CDRIB vs w/o Con vs w/o In-IB&Con) "
                       "on all four scenarios at smoke profile",
        "scenarios": ["music_movie", "phone_elec", "cloth_sport", "game_video"],
        "models": ["CDRIB", "CDRIB:wo_con", "CDRIB:wo_inib_con"],
        "seeds": [0, 1, 2],
        "profile": "smoke",
    },
    "ablation-smoke": {
        "name": "ablation-smoke",
        "description": "CI slice of the Table VII ablation: one scenario, two seeds",
        "scenarios": ["game_video"],
        "models": ["CDRIB", "CDRIB:wo_con", "CDRIB:wo_inib_con"],
        "seeds": [0, 1],
        "profile": "smoke",
    },
}


def load_suite_spec(name_or_path: str) -> SuiteSpec:
    """Resolve a ``--spec`` argument: a built-in name or a JSON file path."""
    if name_or_path in BUILTIN_SPECS:
        return SuiteSpec.from_dict(BUILTIN_SPECS[name_or_path])
    if os.path.exists(name_or_path):
        with open(name_or_path) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as error:
                raise SuiteSpecError(f"{name_or_path} is not valid JSON: {error}")
        return SuiteSpec.from_dict(raw)
    raise SuiteSpecError(
        f"{name_or_path!r} is neither a built-in spec ({sorted(BUILTIN_SPECS)}) "
        f"nor an existing JSON file")


# --------------------------------------------------------------------------- #
# Job execution
# --------------------------------------------------------------------------- #
def run_suite_job(job: JobSpec, artifact_dir: Optional[str] = None) -> Dict[str, object]:
    """Execute one job and return its JSON-serialisable result payload.

    The job's ``seed`` overrides the profile's scenario-split seed, the
    model-config seed and the evaluator seed, so the job is a pure function
    of its :class:`JobSpec` — which is what makes parallel execution
    bit-identical to serial.  CDRIB jobs train through
    :func:`~repro.experiments.runners.execute_training_job` (the ``train``
    CLI path) and write a provenance-carrying checkpoint into
    ``artifact_dir``; baseline jobs fit and save their recommender state.

    The payload carries one metrics row per transfer direction plus the raw
    per-record reciprocal ranks that the aggregator's paired t-tests use.
    """
    profile = get_profile(job.profile)
    profile = dataclasses.replace(
        profile, seed=job.seed,
        cdrib=profile.cdrib.variant(seed=job.seed),
        baseline=profile.baseline.variant(seed=job.seed))
    kind, detail = parse_model(job.model)
    scenario = build_paper_scenario(job.scenario, profile)
    evaluator = make_evaluator(scenario, profile)
    checkpoint_path = (os.path.join(artifact_dir, "checkpoint")
                      if artifact_dir else None)

    history: List[ROW] = []
    ann_row: Optional[ROW] = None
    if kind == "cdrib":
        config = make_ablation_config(profile.cdrib, detail)
        if job.epochs is not None:
            config = config.variant(epochs=job.epochs)
        trainer, result = execute_training_job(
            scenario, config, engine=job.engine, save_path=checkpoint_path,
            provenance={"scenario": job.scenario, "profile": job.profile,
                        "seed": job.seed, "suite_job": job.key},
        )
        scorer_factory = trainer.make_scorer
        history = [{"epoch": log.epoch, "loss": log.loss} for log in result.history]
        if job.ann_check:
            ann_row = _ann_check_row(trainer.model, scenario, job)
    else:
        model = make_baseline(job.model, profile.baseline)
        model.fit(scenario)
        scorer_factory = model.scorer
        if checkpoint_path is not None:
            model.save(checkpoint_path)

    rows: List[ROW] = []
    reciprocal_ranks: Dict[str, List[float]] = {}
    for split in scenario.directions:
        result = evaluator.evaluate_direction(
            scorer_factory(split.source, split.target), split.source, split.target)
        direction = f"{split.source}->{split.target}"
        metrics = result.metrics.as_dict()
        row: ROW = {
            "scenario": job.scenario,
            "model": job.model,
            "method": model_display_name(job.model),
            "seed": job.seed,
            "direction": direction,
        }
        for column in METRIC_COLUMNS:
            row[column] = metrics[column]
        row["records"] = metrics["records"]
        rows.append(row)
        reciprocal_ranks[direction] = [float(r) for r in result.reciprocal_ranks()]

    payload: Dict[str, object] = {
        "job": job.to_dict(),
        "rows": rows,
        "reciprocal_ranks": reciprocal_ranks,
        "history": history,
        "checkpoint": os.path.basename(checkpoint_path) if checkpoint_path else None,
    }
    if ann_row is not None:
        payload["ann"] = ann_row
    return payload


def _ann_check_row(model, scenario, job: JobSpec) -> ROW:
    """Serving-stack smoke for one trained CDRIB job (``spec.ann_check``).

    Builds both retrieval backends over the job's trained X→Y target
    catalogue, serves the test cold-start users through each, and reports
    the IVF recall@10 against the exact lists.  Probes a quarter of the
    cells — smoke-profile catalogues are tiny, so the row documents that the
    approximate path works end to end, not production recall (that is
    ``tests/test_serve_ann.py``'s job).  Deterministic given the
    job spec, so parallel suites stay bit-identical to serial ones.
    """
    from ..eval import recall_against_exact
    from ..serve import build_index

    split = scenario.x_to_y
    users = sorted({int(user.source_user) for user in split.test})[:32]
    if not users:
        users = list(range(min(8, scenario.domain(split.source).num_users)))
    latents = model.encode_users_batch(split.source)[users]

    exact = build_index(model, split.target, backend="exact")
    ivf = build_index(model, split.target, backend="ivf", seed=job.seed)
    ivf.nprobe = max(ivf.nprobe, max(1, ivf.num_clusters // 4))
    k = min(10, exact.num_items)
    exact_items, _ = exact.top_k(latents, k)
    ivf_items, _ = ivf.top_k(latents, k)
    return {
        "scenario": job.scenario,
        "model": job.model,
        "seed": job.seed,
        "direction": f"{split.source}->{split.target}",
        "backend": "ivf",
        "num_items": exact.num_items,
        "num_clusters": ivf.num_clusters,
        "nprobe": ivf.nprobe,
        "users": len(users),
        "k": k,
        "recall_vs_exact": recall_against_exact(ivf_items, exact_items),
    }


def _job_dir(output_dir: str, job: JobSpec) -> str:
    return os.path.join(output_dir, "jobs", job.key)


def _result_paths(job_dir: str) -> Tuple[str, str]:
    result_path = os.path.join(job_dir, "result.json")
    return result_path, os.path.join(job_dir, "result.manifest.json")


def _execute_and_persist(args: Tuple[Dict[str, object], str, str]) -> Dict[str, object]:
    """Worker entry point: run one job and write its durable artifacts.

    Top-level (picklable) so it works under every ``multiprocessing`` start
    method.  Artifacts are written by the worker itself, so partially
    completed suites leave every finished job resumable on disk.
    """
    job_dict, spec_hash, job_dir = args
    job = JobSpec.from_dict(job_dict)
    os.makedirs(job_dir, exist_ok=True)
    payload = run_suite_job(job, artifact_dir=job_dir)
    payload["spec_sha256"] = spec_hash
    result_path, _ = _result_paths(job_dir)
    with open(result_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    save_run_manifest(result_path, {
        "experiment": "suite",
        "suite_job": job.key,
        "spec_sha256": spec_hash,
        "rows": len(payload["rows"]),
        "checkpoint": payload.get("checkpoint"),
    })
    return payload


def _load_valid_result(job_dir: str, job: JobSpec,
                       spec_hash: str) -> Optional[Dict[str, object]]:
    """Load a finished job's payload iff its artifacts validate, else None.

    "Validates" means: both files exist, the manifest's recorded SHA-256
    matches the result file's current content, the manifest was produced
    under the same spec hash, and the stored job identity equals the
    requested one.  Anything else means the job reruns.
    """
    result_path, manifest_path = _result_paths(job_dir)
    if not (os.path.exists(result_path) and os.path.exists(manifest_path)):
        return None
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        with open(result_path) as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, OSError):
        return None
    recorded = (manifest.get("output") or {}).get("sha256")
    if recorded != file_sha256(result_path):
        return None
    if manifest.get("spec_sha256") != spec_hash:
        return None
    if payload.get("spec_sha256") != spec_hash:
        return None
    if payload.get("job") != job.to_dict():
        return None
    return payload


# --------------------------------------------------------------------------- #
# Suite execution and aggregation
# --------------------------------------------------------------------------- #
@dataclass
class SuiteResult:
    """All job payloads of one suite run, plus aggregation over seeds."""

    spec: SuiteSpec
    spec_sha256: str
    payloads: List[Dict[str, object]]
    skipped: int = 0

    def rows(self) -> List[ROW]:
        """Every per-job, per-direction metrics row in job-matrix order."""
        rows: List[ROW] = []
        for payload in self.payloads:
            rows.extend(payload["rows"])
        return rows

    def ann_rows(self) -> List[ROW]:
        """The per-job ANN serving-smoke rows (``spec.ann_check`` jobs only).

        One row per CDRIB job when the spec enabled ``ann_check``: the IVF
        recall against exact retrieval on that job's trained catalogue.
        Empty for specs without the check.
        """
        return [dict(payload["ann"]) for payload in self.payloads
                if "ann" in payload]

    def aggregate(self, metrics: Sequence[str] = ("MRR", "NDCG@10", "HR@10"),
                  alpha: float = 0.05) -> List[ROW]:
        """Mean±std per (scenario, direction, model) over seeds, with markers.

        Within each (scenario, direction) the models are ordered by mean of
        ``metrics[0]`` (best first).  The best model gets a ``sig`` marker
        ``"*"`` when a paired t-test on the per-record reciprocal ranks
        (concatenated across seeds, aligned because every model of a
        (scenario, seed) cell is evaluated on the identical record set)
        finds it significantly better than the runner-up at ``alpha`` —
        the paper's Tables III-VI footnote convention.
        """
        grouped: Dict[Tuple[str, str, str], List[Dict[str, object]]] = {}
        for payload in self.payloads:
            job = payload["job"]
            for row in payload["rows"]:
                group = (str(row["scenario"]), str(row["direction"]), str(row["model"]))
                grouped.setdefault(group, []).append({"row": row, "seed": job["seed"]})
        cells = sorted(grouped)
        scenario_directions = sorted({(s, d) for s, d, _ in cells})

        out: List[ROW] = []
        for scenario, direction in scenario_directions:
            models = [m for s, d, m in cells if (s, d) == (scenario, direction)]
            stats_by_model: Dict[str, ROW] = {}
            for model in models:
                entries = sorted(grouped[(scenario, direction, model)],
                                 key=lambda e: e["seed"])
                row: ROW = {
                    "scenario": scenario,
                    "direction": direction,
                    "model": model,
                    "method": model_display_name(model),
                    "seeds": len(entries),
                }
                for metric in metrics:
                    values = np.array([float(e["row"][metric]) for e in entries])
                    row[f"{metric}_mean"] = float(values.mean())
                    row[f"{metric}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
                    row[metric] = format_mean_std(row[f"{metric}_mean"],
                                                  row[f"{metric}_std"])
                row["sig"] = ""
                stats_by_model[model] = row
            ranked = sorted(stats_by_model.values(),
                            key=lambda r: -float(r[f"{metrics[0]}_mean"]))
            if len(ranked) >= 2:
                best, runner_up = ranked[0], ranked[1]
                outcome = self._significance(
                    scenario, direction, str(best["model"]),
                    str(runner_up["model"]), alpha)
                if outcome is not None and outcome.significant and outcome.better:
                    best["sig"] = "*"
            out.extend(ranked)
        return out

    def _significance(self, scenario: str, direction: str, model_a: str,
                      model_b: str, alpha: float):
        """Paired t-test of two models' rank vectors, concatenated over seeds."""
        ranks: Dict[str, Dict[int, List[float]]] = {model_a: {}, model_b: {}}
        for payload in self.payloads:
            job = payload["job"]
            if job["scenario"] != scenario or job["model"] not in ranks:
                continue
            vector = payload["reciprocal_ranks"].get(direction)
            if vector:
                ranks[job["model"]][int(job["seed"])] = vector
        shared_seeds = sorted(set(ranks[model_a]) & set(ranks[model_b]))
        if not shared_seeds:
            return None
        vec_a = np.concatenate([ranks[model_a][s] for s in shared_seeds])
        vec_b = np.concatenate([ranks[model_b][s] for s in shared_seeds])
        if vec_a.shape != vec_b.shape:
            return None
        return paired_t_test_ranks(vec_a, vec_b, alpha=alpha)


def run_suite(spec: SuiteSpec, output_dir: str, jobs: int = 1,
              resume: bool = True) -> SuiteResult:
    """Execute every job of a suite spec and aggregate the results.

    ``jobs`` > 1 runs the job matrix through a ``multiprocessing`` pool;
    because every job is a pure function of its :class:`JobSpec`, the
    results are bit-identical to serial execution.  With ``resume`` (the
    default), jobs whose on-disk artifacts validate against this spec's
    SHA-256 are skipped — but an ``output_dir`` whose ``suite_manifest.json``
    records a *different* spec hash is refused outright rather than silently
    mixed.  On completion the suite manifest records every job's result
    checksum.
    """
    spec.validate()
    if jobs < 1:
        raise SuiteSpecError(f"worker count must be >= 1, got {jobs}")
    matrix = expand_jobs(spec)
    spec_hash = spec_sha256(spec)
    os.makedirs(output_dir, exist_ok=True)

    manifest_path = os.path.join(output_dir, SUITE_MANIFEST_NAME)
    if os.path.exists(manifest_path):
        with open(manifest_path) as handle:
            existing = json.load(handle)
        if existing.get("spec_sha256") != spec_hash:
            raise SuiteSpecError(
                f"{output_dir!r} holds results of suite "
                f"{existing.get('name')!r} with spec hash "
                f"{existing.get('spec_sha256')!r}, which does not match this "
                f"spec's {spec_hash!r}; refusing to resume — use a fresh "
                f"output directory")

    completed: Dict[str, Dict[str, object]] = {}
    pending: List[JobSpec] = []
    for job in matrix:
        payload = (_load_valid_result(_job_dir(output_dir, job), job, spec_hash)
                   if resume else None)
        if payload is not None:
            completed[job.key] = payload
        else:
            pending.append(job)

    if pending:
        worker_args = [(job.to_dict(), spec_hash, _job_dir(output_dir, job))
                       for job in pending]
        if jobs > 1 and len(pending) > 1:
            with multiprocessing.Pool(processes=min(jobs, len(pending))) as pool:
                payloads = pool.map(_execute_and_persist, worker_args)
        else:
            payloads = [_execute_and_persist(args) for args in worker_args]
        for job, payload in zip(pending, payloads):
            completed[job.key] = payload

    job_entries = {}
    for job in matrix:
        result_path, job_manifest = _result_paths(_job_dir(output_dir, job))
        # The per-job manifest's recorded digest is authoritative here: the
        # worker just computed it for fresh jobs, and _load_valid_result
        # verified it against the file for resumed ones — no need to re-read
        # potentially large result files a second time.
        with open(job_manifest) as handle:
            recorded = json.load(handle)["output"]["sha256"]
        job_entries[job.key] = {
            "result": os.path.relpath(result_path, output_dir),
            "manifest": os.path.relpath(job_manifest, output_dir),
            "sha256": recorded,
        }
    with open(manifest_path, "w") as handle:
        json.dump({
            "format_version": SUITE_FORMAT_VERSION,
            "name": spec.name,
            "spec": spec.to_dict(),
            "spec_sha256": spec_hash,
            "jobs": job_entries,
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")

    return SuiteResult(spec=spec, spec_sha256=spec_hash,
                       payloads=[completed[job.key] for job in matrix],
                       skipped=len(matrix) - len(pending))
