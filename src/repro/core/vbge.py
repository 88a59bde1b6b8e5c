"""Variational Bipartite Graph Encoder (VBGE, Section III-B).

The encoder follows the paper's two-step scheme:

1. *Interim step* (Eq. 2): user embeddings are pushed to their item
   neighbours through the row-normalised transposed adjacency, producing
   interim representations that live on item nodes but only carry
   homogeneous (user-side) information.
2. *Variational step* (Eq. 3): the interim representations are pulled back
   through the row-normalised adjacency, concatenated with the original
   embeddings and projected to the mean and standard deviation of a diagonal
   Gaussian; Eq. 4 samples latent variables with the reparameterisation
   trick.

Items are encoded by the mirrored computation.  Stacking ``num_layers``
propagation blocks and concatenating their outputs (as the paper does,
following NGCF/LightGCN practice) yields the multi-layer variant analysed in
Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, ops, sparse_matmul, sparse_propagate, sparse_propagate_grad
from ..graph import BipartiteGraph
from ..nn import Dropout, Linear, Module


def _as_ndarray(features) -> np.ndarray:
    """Accept either a Tensor or an ndarray and return the raw array."""
    if isinstance(features, Tensor):
        return features.data
    return np.asarray(features, dtype=np.float64)


@dataclass
class GaussianLatent:
    """Mean / standard deviation / sample triple for one node set.

    ``z`` is the reparameterised sample ``mu + sigma * noise`` in training
    mode and ``mu`` itself in eval mode or under the deterministic-encoder
    ablation.
    """

    mu: Tensor
    sigma: Tensor
    z: Tensor

    def deterministic(self) -> Tensor:
        """Representation to use at inference time (the posterior mean)."""
        return self.mu


class PropagationBlock(Module):
    """One two-step even-hop propagation block (Eq. 2 and the message part of Eq. 3)."""

    def __init__(self, dim: int, negative_slope: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.to_neighbor = Linear(dim, dim, bias=False, rng=rng)
        self.from_neighbor = Linear(dim, dim, bias=False, rng=rng)
        self.negative_slope = negative_slope

    def forward(self, features: Tensor, push, pull,
                push_t=None, pull_t=None) -> Tensor:
        """Propagate ``features`` out through ``push`` and back through ``pull``.

        ``push`` has shape (n_other, n_self) and ``pull`` (n_self, n_other);
        for users these are Norm(A^T) and Norm(A) respectively.  When the
        cached CSR transposes ``push_t`` / ``pull_t`` are supplied the block
        runs as one fused :func:`sparse_propagate_grad` node (same values and
        gradients, a fraction of the bookkeeping); otherwise the op-by-op
        reference pipeline is used.
        """
        if push_t is not None and pull_t is not None:
            return sparse_propagate_grad(
                push, pull, features,
                self.to_neighbor.weight, self.from_neighbor.weight,
                self.negative_slope, push_t=push_t, pull_t=pull_t,
            )
        interim = ops.leaky_relu(
            sparse_matmul(push, self.to_neighbor(features)), self.negative_slope
        )
        returned = ops.leaky_relu(
            sparse_matmul(pull, self.from_neighbor(interim)), self.negative_slope
        )
        return returned

    def infer(self, features: np.ndarray, push, pull) -> np.ndarray:
        """No-grad propagation on raw numpy arrays (serving fast path).

        Performs the same operations as :meth:`forward` in the same order.
        """
        return sparse_propagate(
            push, pull, features,
            self.to_neighbor.weight.data, self.from_neighbor.weight.data,
            self.negative_slope,
        )


class GaussianHead(Module):
    """Project concatenated propagation outputs + base embedding to (mu, sigma).

    The sigma branch is shifted by ``sigma_bias`` before the softplus so the
    posterior starts narrow (sigma ~ 0.1); without this the sampling noise of
    a freshly initialised encoder swamps the inner-product score function and
    slows training dramatically at the small scales used in the benchmarks.
    The KL minimality term is free to widen the posterior during training.
    """

    def __init__(self, in_dim: int, out_dim: int, negative_slope: float = 0.1,
                 sigma_bias: float = -2.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.mu_layer = Linear(in_dim, out_dim, rng=rng)
        self.sigma_layer = Linear(in_dim, out_dim, rng=rng)
        self.negative_slope = negative_slope
        self.sigma_bias = sigma_bias

    def forward(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        """Op-by-op (mu, sigma) of the reference engine."""
        mu = ops.leaky_relu(self.mu_layer(features), self.negative_slope)
        sigma = ops.softplus(ops.add(self.sigma_layer(features), self.sigma_bias))
        # Clamp the standard deviation away from zero for numerical stability
        # of the KL term; the offset is tiny and does not bias training.
        sigma = ops.add(sigma, 1e-4)
        return mu, sigma

    def forward_fused(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        """Grad-aware fused (mu, sigma): two nodes instead of ~eight.

        Bitwise-equal to :meth:`forward` — the fused kernels perform the same
        numpy operations in the same order (see
        :func:`repro.autograd.ops.fused_linear_leaky_relu`).
        """
        mu = ops.fused_linear_leaky_relu(
            features, self.mu_layer.weight, self.mu_layer.bias, self.negative_slope
        )
        sigma = ops.fused_linear_softplus(
            features, self.sigma_layer.weight, self.sigma_layer.bias,
            pre_shift=self.sigma_bias, post_shift=1e-4,
        )
        return mu, sigma

    def infer(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """No-grad (mu, sigma) on raw numpy arrays, matching :meth:`forward`."""
        pre_mu = features @ self.mu_layer.weight.data + self.mu_layer.bias.data
        mu = pre_mu * np.where(pre_mu > 0, 1.0, self.negative_slope)
        pre_sigma = (features @ self.sigma_layer.weight.data
                     + self.sigma_layer.bias.data + self.sigma_bias)
        sigma = np.logaddexp(0.0, pre_sigma) + 1e-4
        return mu, sigma


class VBGE(Module):
    """Variational bipartite graph encoder for one domain.

    Parameters
    ----------
    dim:
        Embedding dimension F.
    num_layers:
        Number of propagation blocks; their outputs are concatenated before
        the Gaussian heads (paper default is analysed in Fig. 6).
    dropout:
        Dropout applied to the input embeddings during training.
    negative_slope:
        LeakyReLU slope (paper fixes 0.1).
    deterministic:
        When True, ``z`` equals ``mu`` (no sampling); used by the
        deterministic-encoder ablation.
    """

    def __init__(self, dim: int, num_layers: int = 2, dropout: float = 0.2,
                 negative_slope: float = 0.1, deterministic: bool = False,
                 rng: Optional[np.random.Generator] = None, seed: int = 0):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        self.dim = dim
        self.num_layers = num_layers
        self.deterministic = deterministic
        self._rng = rng if rng is not None else np.random.default_rng(seed)

        self.user_dropout = Dropout(dropout, rng=self._rng)
        self.item_dropout = Dropout(dropout, rng=self._rng)
        self.user_blocks: List[PropagationBlock] = []
        self.item_blocks: List[PropagationBlock] = []
        for layer in range(num_layers):
            user_block = PropagationBlock(dim, negative_slope, rng=self._rng)
            item_block = PropagationBlock(dim, negative_slope, rng=self._rng)
            self.register_module(f"user_block_{layer}", user_block)
            self.register_module(f"item_block_{layer}", item_block)
            self.user_blocks.append(user_block)
            self.item_blocks.append(item_block)

        head_in = dim * (num_layers + 1)  # concatenated layer outputs + base embedding
        self.user_head = GaussianHead(head_in, dim, negative_slope, rng=self._rng)
        self.item_head = GaussianHead(head_in, dim, negative_slope, rng=self._rng)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, user_embeddings: Tensor, item_embeddings: Tensor,
               graph: BipartiteGraph, fused: bool = True
               ) -> Tuple[GaussianLatent, GaussianLatent]:
        """Encode every user and item of the domain.

        Returns a pair of :class:`GaussianLatent` objects (users, items).

        Parameters
        ----------
        fused:
            Run each propagation block and Gaussian head as fused autograd
            nodes with the graph's cached CSR transposes (default).  The
            reference op-by-op pipeline (``fused=False``) computes identical
            values and gradients and is kept for the faithfulness tests.
        """
        norm_i2u = graph.norm_item_to_user()   # (|U|, |V|)  — Norm(A)
        norm_u2i = graph.norm_user_to_item()   # (|V|, |U|)  — Norm(A^T)
        if fused:
            norm_i2u_t = graph.norm_item_to_user_t()
            norm_u2i_t = graph.norm_user_to_item_t()
        else:
            norm_i2u_t = norm_u2i_t = None

        users = self.user_dropout(user_embeddings)
        items = self.item_dropout(item_embeddings)

        user_outputs = [users]
        hidden = users
        for block in self.user_blocks:
            hidden = block(hidden, push=norm_u2i, pull=norm_i2u,
                           push_t=norm_u2i_t, pull_t=norm_i2u_t)
            user_outputs.append(hidden)

        item_outputs = [items]
        hidden = items
        for block in self.item_blocks:
            hidden = block(hidden, push=norm_i2u, pull=norm_u2i,
                           push_t=norm_i2u_t, pull_t=norm_u2i_t)
            item_outputs.append(hidden)

        user_features = ops.concat(user_outputs, axis=-1)
        item_features = ops.concat(item_outputs, axis=-1)
        if fused:
            user_mu, user_sigma = self.user_head.forward_fused(user_features)
            item_mu, item_sigma = self.item_head.forward_fused(item_features)
        else:
            user_mu, user_sigma = self.user_head(user_features)
            item_mu, item_sigma = self.item_head(item_features)

        user_latent = self._sample(user_mu, user_sigma)
        item_latent = self._sample(item_mu, item_sigma)
        return user_latent, item_latent

    # ------------------------------------------------------------------ #
    # Inference fast paths (serving)
    # ------------------------------------------------------------------ #
    def encode_users_batch(self, user_embeddings, graph: BipartiteGraph
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode every user of the domain in one vectorized no-grad pass.

        Unlike :meth:`encode` this skips dropout, sampling, the item-side
        Gaussian head and all autograd bookkeeping.  It runs the same-shaped
        products as the eval-mode ``encode``, so the result is bitwise equal
        to it.  (The two-step even-hop propagation means user latents
        depend only on the user embedding table, so no item table is needed.)

        Parameters
        ----------
        user_embeddings:
            Full user embedding table (Tensor or ndarray).
        graph:
            The domain's training interaction graph.

        Returns
        -------
        ``(mu, sigma)`` arrays of shape (num_users, dim) — the posterior means
        are the representations to score with at inference time.
        """
        return self._infer(self.user_blocks, self.user_head,
                           _as_ndarray(user_embeddings),
                           push=graph.norm_user_to_item(),
                           pull=graph.norm_item_to_user())

    def encode_items(self, item_embeddings,
                     graph: BipartiteGraph) -> Tuple[np.ndarray, np.ndarray]:
        """Encode every item of the domain in one no-grad pass.

        The mirrored computation of :meth:`encode_users_batch`, used to build
        the serving :class:`~repro.serve.ItemIndex` once per checkpoint.
        Returns ``(mu, sigma)`` arrays of shape (num_items, dim).
        """
        return self._infer(self.item_blocks, self.item_head,
                           _as_ndarray(item_embeddings),
                           push=graph.norm_item_to_user(),
                           pull=graph.norm_user_to_item())

    @staticmethod
    def _infer(blocks: List[PropagationBlock], head: GaussianHead,
               features: np.ndarray, push, pull
               ) -> Tuple[np.ndarray, np.ndarray]:
        """No-grad stacked propagation plus Gaussian head for one node set."""
        outputs = [features]
        hidden = features
        for block in blocks:
            hidden = block.infer(hidden, push=push, pull=pull)
            outputs.append(hidden)
        return head.infer(np.concatenate(outputs, axis=-1))

    def _sample(self, mu: Tensor, sigma: Tensor) -> GaussianLatent:
        if self.deterministic or not self.training:
            return GaussianLatent(mu=mu, sigma=sigma, z=mu)
        z = ops.gaussian_reparameterize(mu, sigma, rng=self._rng)
        return GaussianLatent(mu=mu, sigma=sigma, z=z)
