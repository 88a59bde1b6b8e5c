"""Training loop for CDRIB and its ablation variants.

The trainer prepares four edge pools per scenario —

* in-domain edges of domain X and Y (for Eq. 8's reconstruction terms),
* cross-domain edges: target-domain interactions of *training* overlapping
  users, with the user column mapped to their source-domain index (for
  Eq. 7's reconstruction terms),

— plus the overlapping-user index pairs feeding the contrastive regularizer,
then runs mini-batch Adam updates on the joint objective (Eq. 16).
Validation MRR (averaged over both transfer directions) is optionally used
for early model selection, mirroring the paper's selection by best
validation MRR.
"""

from __future__ import annotations

import copy
import os

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.sampling import NegativeSampler
from ..data.scenario import CDRScenario
from ..eval import LeaveOneOutEvaluator
from ..io import CheckpointError, load_checkpoint, save_checkpoint
from ..optim import Adam, clip_grad_norm
from .cdrib import CDRIB, CDRIBConfig


@dataclass
class EpochLog:
    """Diagnostics of one training epoch."""

    epoch: int
    loss: float
    term_means: Dict[str, float]
    validation_mrr: Optional[float] = None


@dataclass
class TrainResult:
    """Outcome of a training run."""

    history: List[EpochLog] = field(default_factory=list)
    best_validation_mrr: Optional[float] = None
    best_epoch: Optional[int] = None


class _EdgePool:
    """A pool of (user, target_user, item) rows with per-step batch sampling.

    ``vectorized`` selects the negative pool's draw strategy: the fused
    engine presamples with the sampler's stream-exact block draw, the
    reference engine keeps the seed per-user loop (identical negatives either
    way — the flag exists so benchmarks compare true seed behaviour).
    """

    def __init__(self, rows: np.ndarray, sampler: NegativeSampler,
                 rng: np.random.Generator, vectorized: bool = True):
        self.rows = rows
        self.sampler = sampler
        self.rng = rng
        self.vectorized = vectorized

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def pick_rows(self, batch_size: int
                  ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Draw one batch of pool rows (trainer RNG only, no negatives yet)."""
        if len(self) == 0:
            return None
        size = min(batch_size, len(self))
        picks = self.rng.choice(len(self), size=size, replace=False)
        batch = self.rows[picks]
        return batch[:, 0], batch[:, 1], batch[:, 2]

    def sample_batch(self, batch_size: int, num_negatives: int
                     ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        picked = self.pick_rows(batch_size)
        if picked is None:
            return None
        users, target_users, items = picked
        negatives = self.sampler.sample_batch(target_users, num_negatives,
                                              vectorized=self.vectorized)
        return users, items, negatives


class CDRIBTrainer:
    """Fits a :class:`CDRIB` model on a :class:`CDRScenario`.

    Parameters
    ----------
    engine:
        ``"fused"`` (default) — fused propagation/loss kernels, a vectorized
        flat-buffer Adam with in-step gradient clipping, and epoch-level
        presampling of every step's edge picks and negative pools.
        ``"reference"`` — the seed op-by-op implementation, kept as the
        faithfulness baseline: both engines consume identical RNG
        streams and produce per-step losses equal to ~1e-12 (pinned by the
        golden-trajectory tests), and ``fused`` must stay faster than this
        path (``tests/test_core_trainer_golden.py``).
    """

    ENGINES = ("fused", "reference")

    def __init__(self, model: CDRIB, scenario: Optional[CDRScenario] = None,
                 evaluator: Optional[LeaveOneOutEvaluator] = None,
                 engine: str = "fused"):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.model = model
        self.scenario = scenario if scenario is not None else model.scenario
        self.config: CDRIBConfig = model.config
        self.evaluator = evaluator
        self.engine = engine
        self.max_grad_norm = 5.0
        self._rng = np.random.default_rng(self.config.seed + 1)
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate,
                              weight_decay=self.config.weight_decay,
                              fused=engine != "reference")
        self._pools = self._build_pools()
        self._pending_batches: List[Dict[str, np.ndarray]] = []
        # Batch-RNG snapshot taken right before the current epoch was
        # presampled, plus how many of its steps were consumed — together
        # they make mid-epoch checkpoints exact (see save_checkpoint).
        self._batch_rng_snapshot: Optional[Dict[str, dict]] = None
        self._steps_into_epoch = 0
        self._global_step = 0
        self._epochs_done = 0
        # False once fit() rolls the model back to its best-validation state:
        # from then on the model no longer matches the optimizer moments and
        # RNG streams, so checkpoints become publish-only (serve, not resume).
        self._trajectory_intact = True
        # Optional provenance recorded into checkpoint manifests (scenario /
        # profile names), set by the experiment runners.
        self.provenance: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------ #
    # Data preparation
    # ------------------------------------------------------------------ #
    def _build_pools(self) -> Dict[str, _EdgePool]:
        scenario = self.scenario
        vectorized = self.engine != "reference"
        dx, dy = scenario.domain_x, scenario.domain_y
        sampler_x = NegativeSampler(dx.graph, seed=self.config.seed + 11)
        sampler_y = NegativeSampler(dy.graph, seed=self.config.seed + 13)

        def in_domain_rows(graph) -> np.ndarray:
            edges = graph.edges
            # Columns: (user used for representation, user used for negative
            # sampling, item); in-domain both user columns coincide.
            return np.column_stack([edges[:, 0], edges[:, 0], edges[:, 1]])

        pools = {
            "in_x": _EdgePool(in_domain_rows(dx.graph), sampler_x, self._rng,
                              vectorized=vectorized),
            "in_y": _EdgePool(in_domain_rows(dy.graph), sampler_y, self._rng,
                              vectorized=vectorized),
        }

        # Cross-domain pools: target-domain edges of training overlap users,
        # with the user column re-expressed in source-domain indices so the
        # source-domain encoder output can be plugged into the score function.
        pairs = scenario.overlap_pairs
        map_y_to_x = {int(y): int(x) for x, y in pairs}
        map_x_to_y = {int(x): int(y) for x, y in pairs}

        cross_rows_y = [
            (map_y_to_x[int(u)], int(u), int(i))
            for u, i in dy.graph.edges if int(u) in map_y_to_x
        ]
        cross_rows_x = [
            (map_x_to_y[int(u)], int(u), int(i))
            for u, i in dx.graph.edges if int(u) in map_x_to_y
        ]
        pools["cross_x_to_y"] = _EdgePool(
            np.asarray(cross_rows_y, dtype=np.int64).reshape(-1, 3), sampler_y,
            self._rng, vectorized=vectorized,
        )
        pools["cross_y_to_x"] = _EdgePool(
            np.asarray(cross_rows_x, dtype=np.int64).reshape(-1, 3), sampler_x,
            self._rng, vectorized=vectorized,
        )
        return pools

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def steps_per_epoch(self) -> int:
        """Steps that cover the largest edge pool once at ``batch_size``."""
        largest = max(len(pool) for pool in self._pools.values())
        return max(1, int(np.ceil(largest / self.config.batch_size)))

    def _build_batches(self) -> Dict[str, np.ndarray]:
        cfg = self.config
        batches: Dict[str, np.ndarray] = {}
        for name, pool in self._pools.items():
            batch = pool.sample_batch(cfg.batch_size, cfg.num_negatives)
            if batch is not None:
                batches[name] = batch
        pairs = self.scenario.overlap_pairs
        if pairs.shape[0]:
            size = min(cfg.batch_size, pairs.shape[0])
            picks = self._rng.choice(pairs.shape[0], size=size, replace=False)
            batches["overlap"] = pairs[picks]
        return batches

    def _presample_epoch(self, steps: int) -> List[Dict[str, np.ndarray]]:
        """Draw every step's edge picks and negative pools for one epoch.

        Trainer-RNG draws (pool picks, overlap picks) happen step-major in
        the reference per-step order; each negative sampler then serves *all*
        of its pool batches of the epoch in one chained block draw — valid
        because the trainer and the two samplers are independent generators,
        and within each sampler's own stream the epoch's batches are
        consecutive.  Batches are identical to the reference engine's lazy
        per-step :meth:`_build_batches` draws.
        """
        cfg = self.config
        picked_steps = []
        overlaps = []
        pairs = self.scenario.overlap_pairs
        for _ in range(steps):
            picked_steps.append({name: pool.pick_rows(cfg.batch_size)
                                 for name, pool in self._pools.items()})
            overlap = None
            if pairs.shape[0]:
                size = min(cfg.batch_size, pairs.shape[0])
                picks = self._rng.choice(pairs.shape[0], size=size, replace=False)
                overlap = pairs[picks]
            overlaps.append(overlap)

        batches_steps: List[Dict[str, np.ndarray]] = [{} for _ in range(steps)]
        # Pool pairs per sampler; groups chained step-major, matching the
        # reference order of that sampler's draws.
        for keys in (("in_x", "cross_y_to_x"), ("in_y", "cross_x_to_y")):
            groups = []
            slots = []
            for step, picked in enumerate(picked_steps):
                for key in keys:
                    if picked[key] is not None:
                        groups.append(picked[key][1])
                        slots.append((step, key))
            if not groups:
                continue
            sampler = self._pools[keys[0]].sampler
            negatives = sampler.sample_batch_chained(groups, cfg.num_negatives)
            for (step, key), negs in zip(slots, negatives):
                users, _, items = picked_steps[step][key]
                batches_steps[step][key] = (users, items, negs)
        for step, overlap in enumerate(overlaps):
            if overlap is not None:
                batches_steps[step]["overlap"] = overlap
        return batches_steps

    def _next_batch(self) -> Dict[str, np.ndarray]:
        """Return the next step's batches.

        The fused engine presamples a whole epoch at a time; leftovers survive
        in ``_pending_batches`` across :meth:`run_steps` / :meth:`train_epoch`
        calls so the number of *consumed* step draws — and therefore the RNG
        stream — always equals the reference engine's lazy per-step draws.
        """
        if self.engine == "reference":
            return self._build_batches()
        if not self._pending_batches:
            self._batch_rng_snapshot = self._batch_rng_states()
            self._pending_batches = self._presample_epoch(self.steps_per_epoch())
            self._steps_into_epoch = 0
        self._steps_into_epoch += 1
        return self._pending_batches.pop(0)

    def _apply_step(self, batches: Dict[str, np.ndarray]) -> Dict[str, float]:
        """One optimisation step on prepared batches; returns diagnostics."""
        self.optimizer.zero_grad()
        if self.engine == "reference":
            loss, diagnostics = self.model.training_loss(batches, fused=False)
            loss.backward()
            clip_grad_norm(self.optimizer.parameters, max_norm=self.max_grad_norm)
            self.optimizer.step()
        else:
            loss, diagnostics = self.model.training_loss(batches, fused=True)
            loss.backward()
            self.optimizer.step(max_grad_norm=self.max_grad_norm)
        self._global_step += 1
        return diagnostics

    def train_epoch(self) -> Tuple[float, Dict[str, float]]:
        """Run one epoch of mini-batch updates; returns (mean loss, mean terms)."""
        self.model.train()
        losses: List[float] = []
        term_sums: Dict[str, float] = {}
        for _ in range(self.steps_per_epoch()):
            diagnostics = self._apply_step(self._next_batch())
            losses.append(diagnostics["total"])
            for key, value in diagnostics.items():
                term_sums[key] = term_sums.get(key, 0.0) + value
        steps = max(1, len(losses))
        term_means = {key: value / steps for key, value in term_sums.items()}
        self._epochs_done += 1
        return float(np.mean(losses)), term_means

    def run_steps(self, num_steps: int) -> List[float]:
        """Run exactly ``num_steps`` optimisation steps; returns per-step losses.

        Batches are drawn with the same epoch structure (and therefore the
        same RNG streams) as :meth:`fit`, so the returned loss sequence is
        the prefix of a normal training run — the contract the
        golden-trajectory tests and the repo benchmark rely on.
        """
        self.model.train()
        losses: List[float] = []
        for _ in range(num_steps):
            diagnostics = self._apply_step(self._next_batch())
            losses.append(diagnostics["total"])
        return losses

    def fit(self, epochs: Optional[int] = None, eval_every: int = 0,
            verbose: bool = False, checkpoint_dir: Optional[str] = None,
            checkpoint_every: int = 1,
            resume_from: Optional[str] = None) -> TrainResult:
        """Train for ``epochs`` epochs (defaults to the config value).

        When ``eval_every`` > 0 and an evaluator is attached, validation MRR
        is computed every ``eval_every`` epochs and the best-scoring model
        state is restored at the end (paper-style model selection).

        ``resume_from`` restores a checkpoint (model, optimizer, every RNG
        stream) before training, making the run a *bit-exact* continuation
        of the saved one; epoch numbering continues from the checkpoint.
        With ``checkpoint_dir`` set, the trainer saves ``<dir>/last`` every
        ``checkpoint_every`` epochs and ``<dir>/best`` whenever validation
        MRR improves, so a crash loses at most ``checkpoint_every`` epochs
        and the best model survives the end-of-fit state restore.  A run
        whose parameters turn non-finite stops with :class:`ValueError` at
        its next checkpoint save (:meth:`save_checkpoint` refuses them).
        """
        if resume_from is not None:
            self.restore_checkpoint(resume_from)
        epochs = epochs if epochs is not None else self.config.epochs
        result = TrainResult()
        best_state = None
        start = self._epochs_done
        for epoch in range(start + 1, start + epochs + 1):
            loss, term_means = self.train_epoch()
            log = EpochLog(epoch=epoch, loss=loss, term_means=term_means)
            if eval_every and self.evaluator is not None and epoch % eval_every == 0:
                log.validation_mrr = self.validation_mrr()
                if (result.best_validation_mrr is None
                        or log.validation_mrr > result.best_validation_mrr):
                    result.best_validation_mrr = log.validation_mrr
                    result.best_epoch = epoch
                    best_state = self.model.state_dict()
                    if checkpoint_dir is not None:
                        self.save_checkpoint(os.path.join(checkpoint_dir, "best"),
                                             metrics=self._fit_metrics(log, result))
            result.history.append(log)
            if checkpoint_dir is not None and (epoch - start) % max(1, checkpoint_every) == 0:
                self.save_checkpoint(os.path.join(checkpoint_dir, "last"),
                                     metrics=self._fit_metrics(log, result))
            if verbose:
                extra = (f", val MRR {log.validation_mrr:.4f}"
                         if log.validation_mrr is not None else "")
                print(f"[CDRIB] epoch {epoch:3d} loss {loss:.4f}{extra}")
        if best_state is not None:
            self.model.load_state_dict(best_state)
            self._trajectory_intact = False
        self.model.refresh_eval_cache()
        return result

    @staticmethod
    def _fit_metrics(log: EpochLog, result: TrainResult) -> Dict[str, object]:
        return {
            "epoch": log.epoch,
            "loss": log.loss,
            "validation_mrr": log.validation_mrr,
            "best_validation_mrr": result.best_validation_mrr,
            "best_epoch": result.best_epoch,
        }

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.io)
    # ------------------------------------------------------------------ #
    CHECKPOINT_KIND = "cdrib-trainer"

    def _batch_rng_states(self) -> Dict[str, dict]:
        """Current states of the three batch-drawing generators.

        ``sampler_x`` is shared by the ``in_x`` / ``cross_y_to_x`` pools and
        ``sampler_y`` by the other two, so these three streams (plus the
        model's own generator) fully determine every future batch.
        """
        return {
            "trainer": copy.deepcopy(self._rng.bit_generator.state),
            "sampler_x": self._pools["in_x"].sampler.get_state(),
            "sampler_y": self._pools["in_y"].sampler.get_state(),
        }

    def _restore_batch_rng_states(self, states: Dict[str, dict]) -> None:
        self._rng.bit_generator.state = copy.deepcopy(states["trainer"])
        self._pools["in_x"].sampler.set_state(states["sampler_x"])
        self._pools["in_y"].sampler.set_state(states["sampler_y"])

    def _domain_manifest(self) -> Dict[str, Dict[str, object]]:
        out = {}
        for slot, domain in (("x", self.scenario.domain_x),
                             ("y", self.scenario.domain_y)):
            out[slot] = {"name": domain.name,
                         "num_users": int(domain.num_users),
                         "num_items": int(domain.num_items)}
        return out

    def save_checkpoint(self, path: str,
                        metrics: Optional[Dict[str, object]] = None,
                        provenance: Optional[Dict[str, str]] = None) -> str:
        """Write a resumable checkpoint directory (payload.npz + manifest).

        The payload holds the model parameters, the Adam moments and step
        count, the trainer's step/epoch counters and the bit-generator
        states of every RNG stream involved in training (model noise /
        dropout, trainer picks, both negative samplers).  The fused engine
        presamples whole epochs, so a *mid-epoch* save records the batch-RNG
        states as of the epoch's start plus the number of steps already
        consumed; :meth:`restore_checkpoint` replays those steps, leaving
        every stream exactly where an uninterrupted run would have it.
        Resume is therefore bit-exact for both engines, at any step.

        Raises :class:`ValueError`, before anything is written, when a
        parameter is not all finite: a diverged run is not a checkpoint.
        """
        params = list(self.model.named_parameters())
        for name, param in params:
            if not np.isfinite(param.data).all():
                raise ValueError(f"parameter {name!r} is not all finite; "
                                 f"refusing to save a diverged model")
        arrays: Dict[str, np.ndarray] = {
            f"model/{name}": param.data.copy() for name, param in params
        }
        optim_state = self.optimizer.state_dict()
        arrays["optim/step"] = np.int64(optim_state["step_count"])
        for (name, _), m, v in zip(params, optim_state["m"], optim_state["v"]):
            arrays[f"optim/m/{name}"] = m
            arrays[f"optim/v/{name}"] = v

        if self._pending_batches:
            batch_states = self._batch_rng_snapshot
            consumed = self._steps_into_epoch
        else:
            batch_states = self._batch_rng_states()
            consumed = 0
        arrays["trainer/global_step"] = np.int64(self._global_step)
        arrays["trainer/epochs_done"] = np.int64(self._epochs_done)
        arrays["trainer/steps_into_epoch"] = np.int64(consumed)

        rng_states = dict(batch_states)
        rng_states["model"] = copy.deepcopy(self.model._rng.bit_generator.state)

        manifest: Dict[str, object] = {
            "model": {"class": type(self.model).__name__,
                      "config": asdict(self.config)},
            "domains": self._domain_manifest(),
            "engine": self.engine,
            "metrics": metrics or {},
            # After fit()'s best-model rollback the saved parameters no
            # longer match the optimizer/RNG trajectory: such artifacts
            # still serve, but restore_checkpoint refuses to resume them.
            "resumable": self._trajectory_intact,
        }
        provenance = provenance if provenance is not None else self.provenance
        if provenance:
            manifest["provenance"] = dict(provenance)
        return save_checkpoint(path, arrays, manifest=manifest,
                               rng_states=rng_states, kind=self.CHECKPOINT_KIND)

    def restore_checkpoint(self, path: str) -> "CDRIBTrainer":
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        The trainer must already be built on the *same scenario and config*
        (domain shapes are validated against the manifest; parameter shapes
        against the payload).  Any engine can restore any checkpoint: the
        engines draw identical batch streams, so the replay of a mid-epoch
        save positions the generators correctly on every path.
        """
        checkpoint = load_checkpoint(path, expect_kind=self.CHECKPOINT_KIND)
        if not checkpoint.manifest.get("resumable", True):
            raise CheckpointError(
                f"checkpoint {path!r} is publish-only: it was saved after a "
                f"best-model rollback, so its parameters do not match its "
                f"optimizer/RNG trajectory.  Serve it, or resume from a "
                f"'last' checkpoint written during fit()"
            )
        recorded = checkpoint.manifest.get("domains", {})
        current = self._domain_manifest()
        if recorded != current:
            raise CheckpointError(
                f"checkpoint {path!r} was trained on domains {recorded}, "
                f"this trainer's scenario has {current}"
            )
        recorded_config = checkpoint.manifest.get("model", {}).get("config")
        if recorded_config is not None:
            current_config = asdict(self.config)
            if recorded_config != current_config:
                differing = sorted(
                    key for key in set(recorded_config) | set(current_config)
                    if recorded_config.get(key) != current_config.get(key)
                )
                raise CheckpointError(
                    f"checkpoint {path!r} was trained with a different config "
                    f"(fields {differing}); bit-exact resume requires the "
                    f"identical configuration (train longer via fit(epochs=...))"
                )

        self.model.load_state_dict(checkpoint.namespace("model"))
        params = list(self.model.named_parameters())
        moments_m = checkpoint.namespace("optim/m")
        moments_v = checkpoint.namespace("optim/v")
        missing = [name for name, _ in params
                   if name not in moments_m or name not in moments_v]
        if missing:
            raise CheckpointError(
                f"checkpoint {path!r} lacks optimizer moments for {missing}"
            )
        self.optimizer.load_state_dict({
            "num_parameters": len(params),
            "step_count": checkpoint.scalar("optim/step"),
            "m": [moments_m[name] for name, _ in params],
            "v": [moments_v[name] for name, _ in params],
        })

        states = checkpoint.rng_states
        self.model._rng.bit_generator.state = copy.deepcopy(states["model"])
        self._restore_batch_rng_states(states)
        self.model.refresh_eval_cache()

        self._pending_batches = []
        self._batch_rng_snapshot = None
        self._steps_into_epoch = 0
        self._global_step = checkpoint.scalar("trainer/global_step", 0)
        self._epochs_done = checkpoint.scalar("trainer/epochs_done", 0)
        consumed = checkpoint.scalar("trainer/steps_into_epoch", 0)
        if consumed >= self.steps_per_epoch() and consumed > 0:
            raise CheckpointError(
                f"checkpoint {path!r} consumed {consumed} steps of a "
                f"{self.steps_per_epoch()}-step epoch; scenario mismatch?"
            )
        # Fast-forward the already-consumed prefix of the saved epoch through
        # this engine's own batch path: the fused engine re-presamples from the
        # restored pre-epoch states and drop the prefix, the reference engine
        # replays the lazy per-step draws.  Either way every generator ends up
        # exactly where the uninterrupted run left it.
        for _ in range(consumed):
            self._next_batch()
        self._trajectory_intact = True  # full state restored -> consistent again
        return self

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validation_mrr(self) -> float:
        """Mean validation MRR over both transfer directions."""
        if self.evaluator is None:
            raise ValueError("no evaluator attached to the trainer")
        self.model.refresh_eval_cache()
        scores = []
        for split in self.scenario.directions:
            scorer = self.make_scorer(split.source, split.target)
            result = self.evaluator.evaluate_direction(
                scorer, split.source, split.target, split_name="validation"
            )
            scores.append(result.metrics.mrr)
        return float(np.mean(scores)) if scores else 0.0

    def make_scorer(self, source: str, target: str):
        """Return the pairwise scorer callable for a transfer direction."""
        def scorer(users: np.ndarray, items: np.ndarray) -> np.ndarray:
            return self.model.cold_start_scores(source, target, users, items)

        return scorer
