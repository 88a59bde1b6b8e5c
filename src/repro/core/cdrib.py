"""The CDRIB model (Section III, Fig. 2).

CDRIB learns user/item representations of *both* domains jointly:

* an embedding layer provides initial representations per domain
  (Section III-A),
* one :class:`~repro.core.vbge.VBGE` per domain turns the bipartite
  interaction graph into Gaussian latent variables (Section III-B),
* the in-domain and cross-domain information bottleneck regularizers plus
  the contrastive information regularizer couple the two domains
  (Section III-C), optimised through their tractable bounds
  (Section III-D, Eq. 16).

At inference time a cold-start user observed only in the source domain is
encoded by the source-domain VBGE and scored directly against target-domain
item representations — no mapping function is needed, which is the core
departure from the EMCDR paradigm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad, ops
from ..data.scenario import CDRScenario
from ..nn import Embedding, Module
from .regularizers import (
    ContrastiveDiscriminator,
    contrastive_term,
    fused_contrastive_term,
    fused_minimality_total,
    fused_reconstruction_group,
    interaction_score,
    minimality_term,
    reconstruction_term,
)
from .vbge import VBGE, GaussianLatent


@dataclass
class CDRIBConfig:
    """Hyperparameters of CDRIB (defaults follow Section IV-B3 at small scale)."""

    embedding_dim: int = 64
    num_layers: int = 2
    dropout: float = 0.1
    beta1: float = 1.0
    beta2: float = 1.0
    learning_rate: float = 0.02
    weight_decay: float = 1e-4
    batch_size: int = 256
    num_negatives: int = 4
    epochs: int = 60
    negative_slope: float = 0.1
    contrastive_weight: float = 0.2
    seed: int = 0
    # Ablation switches (Table VII and the design-choice ablations).
    use_in_domain_ib: bool = True
    use_contrastive: bool = True
    use_cross_domain_ib: bool = True
    deterministic_encoder: bool = False
    use_discriminator: bool = True

    def variant(self, **overrides) -> "CDRIBConfig":
        """Return a copy with some fields replaced (ablation helper)."""
        params = {**self.__dict__, **overrides}
        return CDRIBConfig(**params)


@dataclass
class DomainLatents:
    """Latent variables of every user and item of one domain."""

    users: GaussianLatent
    items: GaussianLatent


class CDRIB(Module):
    """Cross-Domain Recommendation via variational Information Bottleneck."""

    def __init__(self, scenario: CDRScenario, config: Optional[CDRIBConfig] = None):
        super().__init__()
        self.config = config if config is not None else CDRIBConfig()
        self.scenario = scenario
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)

        dx, dy = scenario.domain_x, scenario.domain_y
        self.user_embedding_x = Embedding(dx.num_users, cfg.embedding_dim, rng=self._rng)
        self.item_embedding_x = Embedding(dx.num_items, cfg.embedding_dim, rng=self._rng)
        self.user_embedding_y = Embedding(dy.num_users, cfg.embedding_dim, rng=self._rng)
        self.item_embedding_y = Embedding(dy.num_items, cfg.embedding_dim, rng=self._rng)

        self.vbge_x = VBGE(cfg.embedding_dim, cfg.num_layers, cfg.dropout,
                           cfg.negative_slope, cfg.deterministic_encoder, rng=self._rng)
        self.vbge_y = VBGE(cfg.embedding_dim, cfg.num_layers, cfg.dropout,
                           cfg.negative_slope, cfg.deterministic_encoder, rng=self._rng)

        if cfg.use_contrastive and cfg.use_discriminator:
            self.discriminator = ContrastiveDiscriminator(cfg.embedding_dim, rng=self._rng)
        else:
            self.discriminator = None

        self._eval_cache: Optional[Dict[str, DomainLatents]] = None

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_domains(self, fused: bool = True) -> Dict[str, DomainLatents]:
        """Run both VBGEs over the full training graphs."""
        users_x, items_x = self.vbge_x.encode(
            self.user_embedding_x.all(), self.item_embedding_x.all(),
            self.scenario.domain_x.graph, fused=fused,
        )
        users_y, items_y = self.vbge_y.encode(
            self.user_embedding_y.all(), self.item_embedding_y.all(),
            self.scenario.domain_y.graph, fused=fused,
        )
        return {
            self.scenario.domain_x.name: DomainLatents(users_x, items_x),
            self.scenario.domain_y.name: DomainLatents(users_y, items_y),
        }

    def forward(self) -> Dict[str, DomainLatents]:
        """Latents of every user and item of both domains (fused encode)."""
        return self.encode_domains()

    # ------------------------------------------------------------------ #
    # Training loss (Eq. 16)
    # ------------------------------------------------------------------ #
    def training_loss(self, batches: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]],
                      fused: bool = True) -> Tuple[Tensor, Dict[str, float]]:
        """Compute the full CDRIB objective on one step's mini-batches.

        Parameters
        ----------
        batches:
            Dictionary with optional keys ``"in_x"``, ``"in_y"`` (in-domain
            edges of each domain), ``"cross_x_to_y"`` (edges in Y whose user
            is an overlapping user, with the user column already mapped to
            domain-X indices), ``"cross_y_to_x"`` (symmetric) — each a tuple
            ``(users, pos_items, neg_items)`` — and ``"overlap"`` with the
            (idx_x, idx_y) pairs used for the contrastive regularizer.
        fused:
            Use the fused propagation/head/loss kernels (default).  The
            reference op-by-op pipeline (``fused=False``) produces the same
            losses and gradients; the golden-trajectory tests pin the two
            paths against each other.  Either way the whole graph is
            encoded every step: the minimality term (Eq. 11) averages the KL
            over *all* users and items, not only the rows a batch touches.

        Returns
        -------
        (total loss tensor, per-term float diagnostics)
        """
        cfg = self.config
        latents = self.encode_domains(fused=fused)
        name_x = self.scenario.domain_x.name
        name_y = self.scenario.domain_y.name
        lx, ly = latents[name_x], latents[name_y]

        terms: Dict[str, Tensor] = {}

        # --- Minimality (Eq. 11): KL of every posterior against N(0, I). ---
        # The KL is normalised per latent dimension so that the Lagrangian
        # multipliers beta explore the same {0.5 ... 2.0} range as the paper
        # regardless of the embedding size used in an experiment.
        kl_scale = 1.0 / cfg.embedding_dim
        if fused:
            minimality = fused_minimality_total(
                lx, ly, cfg.beta1, cfg.beta2, kl_scale
            )
            interaction, diagnostics, contrast = self._fused_interaction_terms(
                batches, lx, ly
            )
            total = minimality
            if interaction is not None:
                total = ops.add(total, interaction)
            if contrast is not None:
                total = ops.add(total, contrast)
            diagnostics = {"minimality": float(minimality.data), **diagnostics}
            if contrast is not None:
                diagnostics["contrastive"] = float(contrast.data)
            diagnostics["total"] = float(total.data)
            return total, diagnostics

        kl_x = ops.add(minimality_term(lx.users.mu, lx.users.sigma),
                       minimality_term(lx.items.mu, lx.items.sigma))
        kl_y = ops.add(minimality_term(ly.users.mu, ly.users.sigma),
                       minimality_term(ly.items.mu, ly.items.sigma))
        terms["minimality"] = ops.mul(
            ops.add(ops.mul(kl_x, cfg.beta1), ops.mul(kl_y, cfg.beta2)), kl_scale
        )
        self._reference_interaction_terms(terms, batches, lx, ly)

        total: Optional[Tensor] = None
        for value in terms.values():
            total = value if total is None else ops.add(total, value)
        if total is None:
            raise ValueError("training_loss received no batches")
        diagnostics = {key: float(value.data) for key, value in terms.items()}
        diagnostics["total"] = float(total.data)
        return total, diagnostics

    def _reference_interaction_terms(self, terms, batches, lx, ly) -> None:
        """Seed op-by-op reconstruction + contrastive terms (faithfulness path)."""
        cfg = self.config

        # --- In-domain reconstruction (Eq. 8). ---
        if cfg.use_in_domain_ib:
            if "in_x" in batches:
                users, pos, neg = batches["in_x"]
                terms["in_domain_x"] = reconstruction_term(
                    lx.users.z[users], lx.items.z[pos], lx.items.z[neg.reshape(-1)]
                )
            if "in_y" in batches:
                users, pos, neg = batches["in_y"]
                terms["in_domain_y"] = reconstruction_term(
                    ly.users.z[users], ly.items.z[pos], ly.items.z[neg.reshape(-1)]
                )

        # --- Cross-domain reconstruction (Eq. 7). ---
        if cfg.use_cross_domain_ib:
            if "cross_x_to_y" in batches:
                users_x_idx, pos, neg = batches["cross_x_to_y"]
                terms["cross_o2y"] = reconstruction_term(
                    lx.users.z[users_x_idx], ly.items.z[pos], ly.items.z[neg.reshape(-1)]
                )
            if "cross_y_to_x" in batches:
                users_y_idx, pos, neg = batches["cross_y_to_x"]
                terms["cross_o2x"] = reconstruction_term(
                    ly.users.z[users_y_idx], lx.items.z[pos], lx.items.z[neg.reshape(-1)]
                )

        # --- Contrastive information regularizer (Eq. 14). ---
        # The term is down-weighted by ``contrastive_weight``: at the small
        # scales used here the discriminator otherwise dominates the
        # overlapping users' gradients and drags the cold-start ranking down
        # (the paper's GPU-scale setting is less sensitive to this).
        if cfg.use_contrastive and "overlap" in batches:
            pairs = batches["overlap"]
            if pairs.shape[0] >= 2:
                overlap_x = lx.users.z[pairs[:, 0]]
                overlap_y = ly.users.z[pairs[:, 1]]
                terms["contrastive"] = ops.mul(
                    self._contrast(overlap_x, overlap_y), cfg.contrastive_weight
                )

    def _fused_interaction_terms(self, batches, lx, ly):
        """Fused reconstruction + contrastive terms (training fast path).

        Returns ``(interaction_node, per_term_diagnostics, contrastive_node)``
        where the interaction node covers every active Eq. 7/8 term in one
        fused graph node (see :func:`fused_reconstruction_group`).
        """
        cfg = self.config
        specs = []
        if cfg.use_in_domain_ib:
            if "in_x" in batches:
                users, pos, neg = batches["in_x"]
                specs.append(("in_domain_x", lx.users.z, lx.items.z,
                              users, pos, neg.reshape(-1)))
            if "in_y" in batches:
                users, pos, neg = batches["in_y"]
                specs.append(("in_domain_y", ly.users.z, ly.items.z,
                              users, pos, neg.reshape(-1)))
        if cfg.use_cross_domain_ib:
            if "cross_x_to_y" in batches:
                users_x_idx, pos, neg = batches["cross_x_to_y"]
                specs.append(("cross_o2y", lx.users.z, ly.items.z,
                              users_x_idx, pos, neg.reshape(-1)))
            if "cross_y_to_x" in batches:
                users_y_idx, pos, neg = batches["cross_y_to_x"]
                specs.append(("cross_o2x", ly.users.z, lx.items.z,
                              users_y_idx, pos, neg.reshape(-1)))
        if specs:
            interaction, diagnostics = fused_reconstruction_group(specs)
        else:
            interaction, diagnostics = None, {}
        contrast = None
        pairs = batches.get("overlap") if cfg.use_contrastive else None
        if pairs is not None and pairs.shape[0] >= 2:
            overlap_x = ops.gather_rows(lx.users.z, pairs[:, 0])
            overlap_y = ops.gather_rows(ly.users.z, pairs[:, 1])
            contrast = ops.mul(
                self._contrast(overlap_x, overlap_y, fused=True),
                cfg.contrastive_weight,
            )
        return interaction, diagnostics, contrast

    def _contrast(self, overlap_x: Tensor, overlap_y: Tensor,
                  fused: bool = False) -> Tensor:
        """Contrastive term through the discriminator (or the ablation variant)."""
        if self.discriminator is not None:
            term = fused_contrastive_term if fused else contrastive_term
            return term(self.discriminator, overlap_x, overlap_y, self._rng)
        return self._inner_product_contrast(overlap_x, overlap_y)

    def _inner_product_contrast(self, overlap_x: Tensor, overlap_y: Tensor) -> Tensor:
        """Discriminator-free contrastive variant (ablation): dot-product InfoNCE-style BCE."""
        count = overlap_x.shape[0]
        permutation = self._rng.permutation(count)
        pos_logits = interaction_score(overlap_x, overlap_y)
        neg_logits = interaction_score(overlap_x, overlap_y[permutation])
        pos_loss = ops.binary_cross_entropy_with_logits(pos_logits, np.ones(count))
        neg_loss = ops.binary_cross_entropy_with_logits(neg_logits, np.zeros(count))
        return ops.add(pos_loss, neg_loss)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _domain_parts(self, domain: str):
        """Return (vbge, user_embedding, item_embedding, graph) for a domain."""
        if domain == self.scenario.domain_x.name:
            return (self.vbge_x, self.user_embedding_x, self.item_embedding_x,
                    self.scenario.domain_x.graph)
        if domain == self.scenario.domain_y.name:
            return (self.vbge_y, self.user_embedding_y, self.item_embedding_y,
                    self.scenario.domain_y.graph)
        raise KeyError(f"unknown domain {domain!r}")

    @no_grad()
    def encode_users_batch(self, domain: str) -> np.ndarray:
        """Posterior-mean latents of every user of one domain.

        This is the serving entry point: one vectorized no-grad VBGE pass,
        independent of the training state (dropout and sampling are bypassed
        exactly as in eval mode) and bitwise equal to the eval cache.  The
        computation runs on raw numpy arrays; the ``no_grad`` guard
        additionally ensures nothing under this call can record an autograd
        graph.  Computed once per checkpoint by
        :class:`~repro.serve.ColdStartServer`; shape (num_users, dim).
        """
        vbge, user_emb, _, graph = self._domain_parts(domain)
        mu, _ = vbge.encode_users_batch(user_emb.weight.data, graph)
        return mu

    @no_grad()
    def encode_items(self, domain: str) -> np.ndarray:
        """Posterior-mean latents of every item of one domain.

        Computed once per checkpoint by the serving :class:`~repro.serve.ItemIndex`;
        shape (num_items, dim).
        """
        vbge, _, item_emb, graph = self._domain_parts(domain)
        mu, _ = vbge.encode_items(item_emb.weight.data, graph)
        return mu

    def refresh_eval_cache(self) -> None:
        """Recompute the deterministic latent variables used for scoring."""
        was_training = self.training
        self.eval()
        with no_grad():
            self._eval_cache = self.encode_domains()
        if was_training:
            self.train()

    def cold_start_scores(self, source: str, target: str,
                          source_users: np.ndarray, target_items: np.ndarray) -> np.ndarray:
        """Score (source-domain user, target-domain item) pairs.

        Both index arrays must have equal length (else :class:`ValueError`:
        pairs never broadcast); the returned array contains the inner-product
        scores used for ranking (monotone in the sigmoid probability, so the
        ranking metrics are unaffected by skipping the sigmoid).
        """
        source_users, target_items = np.asarray(source_users), np.asarray(target_items)
        if source_users.shape != target_items.shape:
            raise ValueError(
                f"source_users and target_items must pair up, got shapes "
                f"{source_users.shape} and {target_items.shape}")
        if self._eval_cache is None:
            self.refresh_eval_cache()
        source_latents = self._eval_cache[source]
        target_latents = self._eval_cache[target]
        user_repr = source_latents.users.deterministic().data[source_users]
        item_repr = target_latents.items.deterministic().data[target_items]
        return np.sum(user_repr * item_repr, axis=-1)
