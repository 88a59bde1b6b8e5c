"""Experiment runners: one function per table / figure of the paper.

Every runner returns plain dictionaries (rows) that the benchmark harness
prints and the tests assert on, so results stay machine-checkable.  The
mapping from paper artefact to runner:

===========================  ==========================================
Paper artefact               Runner
===========================  ==========================================
Table II (statistics)        :func:`run_dataset_statistics`
Tables III-VI (main)         :func:`run_main_comparison`
Table VII (ablation)         :func:`run_ablation`
Table VIII (overlap ratio)   :func:`run_overlap_ratio`
Table IX (interaction #)     :func:`run_interaction_groups`
Figure 5 (beta sweep)        :func:`run_beta_sweep`
Figure 6 (layer count)       :func:`run_layer_sweep`
===========================  ==========================================

Next to them sit the checkpoint pipeline (:func:`run_training_job`,
:func:`run_checkpoint_serving`) and :func:`make_synthetic_catalog`, the
catalogue generator of the ANN tests and the ``retrieve-*`` workloads of
``bench/``.  Timing lives in ``bench/`` alone (``python3 -m bench run``).
"""

from __future__ import annotations

import copy
import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import ALL_BASELINES, make_baseline
from ..core import CDRIB, CDRIBConfig, CDRIBTrainer
from ..core.variants import make_ablation_config, variant_display_name
from ..data import (
    CDRScenario,
    SyntheticCrossDomainGenerator,
    build_scenario,
    paper_scenario_config,
    scenario_statistics,
)
from ..eval import (
    LeaveOneOutEvaluator,
    group_by_interaction_count,
)
from .config import ExperimentProfile, get_profile

ROW = Dict[str, object]


# --------------------------------------------------------------------------- #
# Scenario assembly
# --------------------------------------------------------------------------- #
def build_paper_scenario(name: str, profile: Optional[ExperimentProfile] = None
                         ) -> CDRScenario:
    """Generate and split one of the paper's four scenarios at profile scale."""
    profile = profile if profile is not None else get_profile()
    config = paper_scenario_config(name, scale=profile.scenario_scale)
    data = SyntheticCrossDomainGenerator(config).generate()
    # The synthetic generator produces denser graphs than raw Amazon dumps,
    # so a milder item threshold keeps the post-filter scenario non-trivial
    # at small scales while still exercising the k-core filtering code.
    return build_scenario(data.table_x, data.table_y, cold_start_ratio=0.2,
                          min_user_interactions=5, min_item_interactions=3,
                          seed=profile.seed)


def make_evaluator(scenario: CDRScenario, profile: ExperimentProfile
                   ) -> LeaveOneOutEvaluator:
    """Build the leave-one-out evaluator at the profile's evaluation budget."""
    return LeaveOneOutEvaluator(
        scenario, num_negatives=profile.eval_negatives, seed=profile.seed,
        max_users_per_direction=profile.max_eval_users,
    )


def train_cdrib(scenario: CDRScenario, config: CDRIBConfig,
                evaluator: Optional[LeaveOneOutEvaluator] = None) -> CDRIBTrainer:
    """Train a CDRIB model and return its trainer (which exposes scorers)."""
    model = CDRIB(scenario, config)
    trainer = CDRIBTrainer(model, evaluator=evaluator)
    trainer.fit()
    return trainer


# --------------------------------------------------------------------------- #
# Checkpointed training and serving (repro.io)
# --------------------------------------------------------------------------- #
def execute_training_job(scenario: CDRScenario, config: CDRIBConfig,
                         engine: str = "fused",
                         epochs: Optional[int] = None,
                         evaluator: Optional[LeaveOneOutEvaluator] = None,
                         eval_every: int = 0,
                         save_path: Optional[str] = None,
                         resume_path: Optional[str] = None,
                         checkpoint_dir: Optional[str] = None,
                         provenance: Optional[Dict[str, object]] = None):
    """Train one CDRIB model on an assembled scenario; the shared job core.

    Both the ``train`` CLI path (:func:`run_training_job`) and the suite
    orchestrator (:mod:`repro.experiments.suite`) execute jobs through this
    function, so every job gets the identical trainer wiring: optional
    bit-exact resume from ``resume_path``, periodic last/best checkpoints in
    ``checkpoint_dir``, a final checkpoint at ``save_path`` whose manifest
    carries ``provenance``, and the trainer's fit history.

    Returns ``(trainer, result)`` so callers can build scorers for
    evaluation without retraining.
    """
    model = CDRIB(scenario, config)
    trainer = CDRIBTrainer(model, evaluator=evaluator, engine=engine)
    if provenance is not None:
        trainer.provenance = dict(provenance)
    result = trainer.fit(epochs=epochs, eval_every=eval_every,
                         checkpoint_dir=checkpoint_dir, resume_from=resume_path)
    if save_path is not None:
        final = result.history[-1] if result.history else None
        trainer.save_checkpoint(save_path, metrics={
            "epoch": final.epoch if final else 0,
            "loss": final.loss if final else None,
            "best_validation_mrr": result.best_validation_mrr,
            "best_epoch": result.best_epoch,
        })
    return trainer, result


def run_training_job(scenario_name: str,
                     profile: Optional[ExperimentProfile] = None,
                     epochs: Optional[int] = None,
                     engine: str = "fused",
                     save_path: Optional[str] = None,
                     resume_path: Optional[str] = None,
                     checkpoint_dir: Optional[str] = None,
                     eval_every: int = 0) -> List[ROW]:
    """Train CDRIB with optional checkpoint save / bit-exact resume.

    Backs the ``train`` CLI sub-command: builds the scenario at profile
    scale, optionally resumes from ``resume_path`` (model + optimizer +
    every RNG stream, so the run continues the saved trajectory exactly),
    trains for ``epochs`` (defaults to the profile's budget), and writes a
    final checkpoint to ``save_path``.  The checkpoint manifest records the
    scenario / profile / seed provenance that ``serve --checkpoint`` later
    uses to rebuild the serving graph without retraining.

    Returns one row per epoch of the run's history.
    """
    profile = profile if profile is not None else get_profile()
    scenario = build_paper_scenario(scenario_name, profile)
    evaluator = make_evaluator(scenario, profile) if eval_every else None
    _, result = execute_training_job(
        scenario, profile.cdrib, engine=engine, epochs=epochs,
        evaluator=evaluator, eval_every=eval_every, save_path=save_path,
        resume_path=resume_path, checkpoint_dir=checkpoint_dir,
        provenance={"scenario": scenario_name, "profile": profile.name,
                    "seed": profile.seed},
    )
    rows: List[ROW] = []
    for log in result.history:
        rows.append({
            "scenario": scenario_name,
            "engine": engine,
            "epoch": log.epoch,
            "loss": log.loss,
            "validation_mrr": (log.validation_mrr
                               if log.validation_mrr is not None else ""),
            "checkpoint": save_path or "",
        })
    return rows


def load_cdrib_checkpoint(path: str):
    """Rebuild a trained :class:`CDRIB` from a checkpoint — no training.

    The manifest's provenance names the scenario, profile and (for suite
    jobs) the split seed, which are deterministic together, so the serving
    graph is re-assembled identically to the training run's; the payload
    then restores every parameter (checksum-verified).  Returns
    ``(model, checkpoint)``.
    """
    from ..io import CheckpointError, load_checkpoint

    checkpoint = load_checkpoint(path, expect_kind=CDRIBTrainer.CHECKPOINT_KIND)
    provenance = checkpoint.manifest.get("provenance") or {}
    if "scenario" not in provenance or "profile" not in provenance:
        raise CheckpointError(
            f"checkpoint {path!r} has no scenario/profile provenance; "
            f"it cannot be re-assembled by the CLI (save it through "
            f"run_training_job or set trainer.provenance)"
        )
    profile = get_profile(provenance["profile"])
    if "seed" in provenance:
        profile = dataclasses.replace(profile, seed=int(provenance["seed"]))
    scenario = build_paper_scenario(provenance["scenario"], profile)
    config = CDRIBConfig(**checkpoint.manifest["model"]["config"])
    model = CDRIB(scenario, config)

    recorded = checkpoint.manifest.get("domains", {})
    current = {
        "x": {"name": scenario.domain_x.name,
              "num_users": scenario.domain_x.num_users,
              "num_items": scenario.domain_x.num_items},
        "y": {"name": scenario.domain_y.name,
              "num_users": scenario.domain_y.num_users,
              "num_items": scenario.domain_y.num_items},
    }
    if recorded != current:
        raise CheckpointError(
            f"checkpoint {path!r} was trained on domains {recorded}, "
            f"the re-assembled scenario has {current}"
        )
    model.load_state_dict(checkpoint.namespace("model"))
    if "model" in checkpoint.rng_states:
        model._rng.bit_generator.state = copy.deepcopy(
            checkpoint.rng_states["model"])
    return model, checkpoint


def run_checkpoint_serving(checkpoint_path: str, top_k: int = 10,
                           users: Optional[Sequence[int]] = None,
                           num_users: int = 8,
                           index_backend: str = "exact",
                           nprobe: Optional[int] = None,
                           index_dir: Optional[str] = None) -> List[ROW]:
    """Serve top-K lists from a saved checkpoint (``serve --checkpoint``).

    Builds a :class:`~repro.serve.ColdStartServer` for the X -> Y direction
    from the artifact alone and serves a deterministic user set (the first
    ``num_users`` test cold-start users unless ``users`` is given).  With the
    default exact backend the lists are bit-identical to a server built from
    the live trained model — the whole point of the checkpoint subsystem.

    ``index_backend="ivf"`` serves through the approximate index instead
    (``nprobe`` optionally overrides its probe budget; it is ignored for
    exact search, which has no tunables).  ``index_dir`` makes the *index
    itself* a durable artifact: when the directory holds an index
    checkpoint it is loaded (checksum-validated, k-means not re-run) and
    verified against the checkpoint's own item latents — a stale artifact
    from an older training run refuses to serve; otherwise the freshly
    built index is saved there, so the next invocation round-trips through
    the exact same index structure.
    """
    from ..io import CheckpointError
    from ..serve import ColdStartServer, load_index, save_index

    model, checkpoint = load_cdrib_checkpoint(checkpoint_path)
    scenario = model.scenario
    split = scenario.x_to_y
    # nprobe only means something to the IVF backend; exact search has no
    # tunables.
    index_options = ({"nprobe": int(nprobe)}
                     if nprobe is not None and index_backend == "ivf" else {})
    prebuilt = None
    if index_dir is not None and os.path.isdir(index_dir):
        prebuilt = load_index(index_dir)
        if prebuilt.backend != index_backend:
            raise CheckpointError(
                f"index checkpoint {index_dir!r} holds backend "
                f"{prebuilt.backend!r}, but --index {index_backend!r} was "
                f"requested")
        if nprobe is not None and prebuilt.backend == "ivf":
            prebuilt.nprobe = int(nprobe)
    try:
        server = ColdStartServer(model, split.source, split.target,
                                 top_k=top_k, index_backend=index_backend,
                                 index_options=index_options, index=prebuilt)
    except ValueError as error:
        # The server validates a prebuilt index against the model's own item
        # latents (catalogue size + content); translate a rejection into the
        # artifact-layer error with the path the operator needs.
        if prebuilt is None:
            raise
        raise CheckpointError(
            f"index checkpoint {index_dir!r} does not match checkpoint "
            f"{checkpoint_path!r} ({error}); delete the index directory to "
            f"rebuild it") from error
    if index_dir is not None and prebuilt is None:
        save_index(index_dir, server.index)
    if users is None:
        pool = [int(user.source_user) for user in split.test]
        if not pool:
            pool = list(range(min(num_users,
                                  scenario.domain(split.source).num_users)))
        users = sorted(set(pool))[:num_users]
    rows: List[ROW] = []
    for rec in server.recommend(list(users), k=top_k):
        rows.append({
            "checkpoint": checkpoint_path,
            "direction": f"{split.source}->{split.target}",
            "index": index_backend,
            "user": rec.user,
            "items": [int(item) for item in rec.items],
            "scores": [float(score) for score in rec.scores],
        })
    return rows


# --------------------------------------------------------------------------- #
# Table II — dataset statistics
# --------------------------------------------------------------------------- #
def run_dataset_statistics(scenario_names: Optional[Sequence[str]] = None,
                           profile: Optional[ExperimentProfile] = None) -> List[ROW]:
    """Statistics of every CDR scenario after preprocessing (Table II)."""
    profile = profile if profile is not None else get_profile()
    names = list(scenario_names) if scenario_names else [
        "music_movie", "phone_elec", "cloth_sport", "game_video",
    ]
    rows: List[ROW] = []
    for name in names:
        scenario = build_paper_scenario(name, profile)
        for stat in scenario_statistics(name, scenario):
            rows.append(stat.as_dict())
    return rows


# --------------------------------------------------------------------------- #
# Tables III-VI — main comparison
# --------------------------------------------------------------------------- #
def run_main_comparison(scenario_name: str,
                        baselines: Optional[Iterable[str]] = None,
                        profile: Optional[ExperimentProfile] = None,
                        include_cdrib: bool = True) -> List[ROW]:
    """Bi-directional comparison of CDRIB against the baselines (Tables III-VI).

    Returns one row per (method, target domain) with MRR / NDCG / HR metrics.
    """
    profile = profile if profile is not None else get_profile()
    scenario = build_paper_scenario(scenario_name, profile)
    evaluator = make_evaluator(scenario, profile)
    baseline_names = list(baselines) if baselines is not None else list(ALL_BASELINES)

    rows: List[ROW] = []
    for name in baseline_names:
        model = make_baseline(name, profile.baseline)
        model.fit(scenario)
        for split in scenario.directions:
            result = evaluator.evaluate_direction(
                model.scorer(split.source, split.target), split.source, split.target
            )
            rows.append(_result_row(scenario_name, name, split, result))

    if include_cdrib:
        trainer = train_cdrib(scenario, profile.cdrib, evaluator=None)
        for split in scenario.directions:
            result = evaluator.evaluate_direction(
                trainer.make_scorer(split.source, split.target),
                split.source, split.target,
            )
            rows.append(_result_row(scenario_name, "CDRIB", split, result))
    return rows


# --------------------------------------------------------------------------- #
# Table VII — ablation study
# --------------------------------------------------------------------------- #
def run_ablation(scenario_name: str,
                 variants: Sequence[str] = ("wo_inib_con", "wo_con", "full"),
                 profile: Optional[ExperimentProfile] = None) -> List[ROW]:
    """Table VII: CDRIB against its w/o Con and w/o In-IB&Con variants."""
    profile = profile if profile is not None else get_profile()
    scenario = build_paper_scenario(scenario_name, profile)
    evaluator = make_evaluator(scenario, profile)
    rows: List[ROW] = []
    for variant in variants:
        config = make_ablation_config(profile.cdrib, variant)
        trainer = train_cdrib(scenario, config)
        for split in scenario.directions:
            result = evaluator.evaluate_direction(
                trainer.make_scorer(split.source, split.target),
                split.source, split.target,
            )
            row = _result_row(scenario_name, variant_display_name(variant), split, result)
            row["variant"] = variant
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table VIII — overlap-ratio robustness
# --------------------------------------------------------------------------- #
def run_overlap_ratio(scenario_name: str,
                      ratios: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
                      profile: Optional[ExperimentProfile] = None,
                      compare_savae: bool = True) -> List[ROW]:
    """Table VIII: CDRIB (and SA-VAE) under shrinking training overlap."""
    profile = profile if profile is not None else get_profile()
    base_scenario = build_paper_scenario(scenario_name, profile)
    rows: List[ROW] = []
    for ratio in ratios:
        scenario = base_scenario.with_overlap_ratio(ratio, seed=profile.seed)
        evaluator = make_evaluator(scenario, profile)
        trainer = train_cdrib(scenario, profile.cdrib)
        models = {"CDRIB": trainer.make_scorer}
        if compare_savae:
            savae = make_baseline("SA-VAE", profile.baseline)
            savae.fit(scenario)
            models["SA-VAE"] = savae.scorer
        for method, scorer_factory in models.items():
            for split in scenario.directions:
                result = evaluator.evaluate_direction(
                    scorer_factory(split.source, split.target),
                    split.source, split.target,
                )
                row = _result_row(scenario_name, method, split, result)
                row["overlap_ratio"] = ratio
                rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table IX — cold-start interaction-count groups
# --------------------------------------------------------------------------- #
def run_interaction_groups(scenario_name: str,
                           profile: Optional[ExperimentProfile] = None,
                           compare_savae: bool = True) -> List[ROW]:
    """Table IX: per-group performance by number of source-domain interactions."""
    profile = profile if profile is not None else get_profile()
    scenario = build_paper_scenario(scenario_name, profile)
    evaluator = make_evaluator(scenario, profile)

    methods = {}
    trainer = train_cdrib(scenario, profile.cdrib)
    methods["CDRIB"] = trainer.make_scorer
    if compare_savae:
        savae = make_baseline("SA-VAE", profile.baseline)
        savae.fit(scenario)
        methods["SA-VAE"] = savae.scorer

    rows: List[ROW] = []
    for method, scorer_factory in methods.items():
        for split in scenario.directions:
            result = evaluator.evaluate_direction(
                scorer_factory(split.source, split.target), split.source, split.target
            )
            for group in group_by_interaction_count(result):
                metrics = group.metrics.as_dict()
                rows.append({
                    "scenario": scenario_name,
                    "method": method,
                    "direction": f"{split.source}->{split.target}",
                    "interactions": group.label,
                    "MRR": metrics["MRR"],
                    "NDCG@10": metrics["NDCG@10"],
                    "HR@10": metrics["HR@10"],
                    "records": metrics["records"],
                })
    return rows


# --------------------------------------------------------------------------- #
# Figure 5 — Lagrangian multiplier sweep
# --------------------------------------------------------------------------- #
def run_beta_sweep(scenario_name: str,
                   betas: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
                   profile: Optional[ExperimentProfile] = None) -> List[ROW]:
    """Figure 5: effect of the Lagrangian multiplier beta on CDRIB."""
    profile = profile if profile is not None else get_profile()
    scenario = build_paper_scenario(scenario_name, profile)
    evaluator = make_evaluator(scenario, profile)
    rows: List[ROW] = []
    for beta in betas:
        config = profile.cdrib.variant(beta1=beta, beta2=beta)
        trainer = train_cdrib(scenario, config)
        for split in scenario.directions:
            result = evaluator.evaluate_direction(
                trainer.make_scorer(split.source, split.target),
                split.source, split.target,
            )
            row = _result_row(scenario_name, "CDRIB", split, result)
            row["beta"] = beta
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figure 6 — VBGE layer count sweep
# --------------------------------------------------------------------------- #
def run_layer_sweep(scenario_name: str,
                    layer_counts: Sequence[int] = (1, 2, 3, 4),
                    profile: Optional[ExperimentProfile] = None) -> List[ROW]:
    """Figure 6: effect of the number of VBGE propagation layers."""
    profile = profile if profile is not None else get_profile()
    scenario = build_paper_scenario(scenario_name, profile)
    evaluator = make_evaluator(scenario, profile)
    rows: List[ROW] = []
    for layers in layer_counts:
        config = profile.cdrib.variant(num_layers=layers)
        trainer = train_cdrib(scenario, config)
        for split in scenario.directions:
            result = evaluator.evaluate_direction(
                trainer.make_scorer(split.source, split.target),
                split.source, split.target,
            )
            row = _result_row(scenario_name, "CDRIB", split, result)
            row["num_layers"] = layers
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Synthetic catalogue (ANN tests and bench/'s retrieve-* workloads)
# --------------------------------------------------------------------------- #
def make_synthetic_catalog(num_items: int, dim: int, seed: int = 0,
                           num_centers: int = 512, noise: float = 0.25,
                           num_queries: int = 256
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded (catalog, queries) latents mimicking a trained model's geometry.

    Trained recommendation latents are not isotropic Gaussian noise — items
    concentrate around taste clusters and user queries point at those same
    clusters.  The generator therefore draws ``num_centers`` cluster centers
    and scatters items (and queries) around them; ``noise`` controls how
    blurred the cluster structure is (higher = harder for IVF).
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_centers, dim))
    catalog = (centers[rng.integers(0, num_centers, size=num_items)]
               + noise * rng.standard_normal((num_items, dim)))
    queries = (centers[rng.integers(0, num_centers, size=num_queries)]
               + noise * rng.standard_normal((num_queries, dim)))
    return catalog, queries


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _result_row(scenario_name: str, method: str, split, result) -> ROW:
    metrics = result.metrics.as_dict()
    return {
        "scenario": scenario_name,
        "method": method,
        "direction": f"{split.source}->{split.target}",
        "target_domain": split.target,
        "MRR": metrics["MRR"],
        "NDCG@5": metrics["NDCG@5"],
        "NDCG@10": metrics["NDCG@10"],
        "HR@1": metrics["HR@1"],
        "HR@5": metrics["HR@5"],
        "HR@10": metrics["HR@10"],
        "records": metrics["records"],
    }


def format_rows(rows: List[ROW], columns: Optional[Sequence[str]] = None,
                float_digits: int = 2) -> str:
    """Render result rows as an aligned plain-text table (for bench output)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value):
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    widths = {c: max(len(str(c)), max(len(fmt(r.get(c, ""))) for r in rows)) for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append("  ".join(fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
