"""Tractable objective terms of CDRIB (Section III-C / III-D).

Three groups of terms:

* **Minimality** (Eq. 11): KL divergence between each approximate posterior
  and the standard-normal prior; penalises domain-specific information kept
  in the latent variables.
* **Reconstruction** (Eq. 13): negative log-likelihood of observed user-item
  interactions under the inner-product score function, estimated with
  negative sampling.  Used for both the in-domain (Eq. 8) and the
  cross-domain (Eq. 7) information bottleneck regularizers — the only
  difference is *which* user representations are paired with the items.
* **Contrastive** (Eq. 14-15): an MLP discriminator scores aligned
  overlapping-user representation pairs against shuffled negatives, lower
  bounding the cross-domain user-user mutual information.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd import Tensor, ops
from ..nn import MLP, Activation, Linear, Module


def minimality_term(latent_mu: Tensor, latent_sigma: Tensor) -> Tensor:
    """KL( q(Z|·) || N(0, I) ) averaged over nodes — one minimality term of Eq. 11."""
    return ops.gaussian_kl(latent_mu, latent_sigma, reduce="mean")


def _kl_mean_forward(mu: np.ndarray, sigma: np.ndarray):
    """Forward pieces of the mean KL: (value, rows, shifted variance)."""
    var = sigma * sigma
    shifted_var = var + 1e-12
    per_dim = (mu * mu - 1.0) + (var - np.log(shifted_var))
    per_row = per_dim.sum(axis=-1) * 0.5
    rows = per_row.shape[0] if per_row.shape else 1
    return per_row.mean(), rows, shifted_var


def _kl_mean_backward(upstream: float, rows: int, mu: np.ndarray,
                      sigma: np.ndarray, shifted_var: np.ndarray):
    """(d/dmu, d/dsigma) of the mean KL, matching the op chain bitwise."""
    g_per_dim = (upstream / rows) * 0.5
    half_mu = g_per_dim * mu
    g_var = g_per_dim - g_per_dim / shifted_var
    half_sigma = g_var * sigma
    return half_mu + half_mu, half_sigma + half_sigma


def fused_minimality_total(latents_x, latents_y, beta1: float, beta2: float,
                           kl_scale: float) -> Tensor:
    """The whole minimality term of Eq. 16 as one graph node.

    ``(KL_x_users + KL_x_items) * beta1 + (KL_y_users + KL_y_items) * beta2``
    scaled by ``kl_scale``, with parents (mu, sigma) of all four posteriors.
    Expression order matches the composed pipeline bitwise; the backward
    closure replays each per-posterior KL chain with the appropriately
    scaled upstream gradient.
    """
    pairs = (latents_x.users, latents_x.items, latents_y.users, latents_y.items)
    forwards = [_kl_mean_forward(p.mu.data, p.sigma.data) for p in pairs]
    kl_x = forwards[0][0] + forwards[1][0]
    kl_y = forwards[2][0] + forwards[3][0]
    out = (kl_x * beta1 + kl_y * beta2) * kl_scale

    def backward(g):
        scaled = float(np.asarray(g)) * kl_scale
        upstreams = (scaled * beta1, scaled * beta1,
                     scaled * beta2, scaled * beta2)
        grads = []
        for (value, rows, shifted_var), latent, upstream in zip(
                forwards, pairs, upstreams):
            d_mu, d_sigma = _kl_mean_backward(
                upstream, rows, latent.mu.data, latent.sigma.data, shifted_var
            )
            grads.extend((d_mu, d_sigma))
        return tuple(grads)

    parents = tuple(t for p in pairs for t in (p.mu, p.sigma))
    return ops._make(np.asarray(out), parents, backward)


def interaction_score(user_repr: Tensor, item_repr: Tensor) -> Tensor:
    """Plausibility logits s(z_u, z_v) as row-wise inner products.

    The paper applies a sigmoid on top; we keep logits and use the
    numerically stable BCE-with-logits formulation for training, and apply
    the sigmoid only when a probability is explicitly needed.
    """
    return ops.dot_rows(user_repr, item_repr)


def reconstruction_term(user_repr: Tensor, pos_item_repr: Tensor,
                        neg_item_repr: Tensor) -> Tensor:
    """Negative-sampling estimate of the reconstruction term (Eq. 13).

    ``neg_item_repr`` may contain several negatives per positive, flattened
    to shape (batch * num_negatives, F); the corresponding user rows must be
    repeated by the caller.
    Returns the *loss* (the negated lower bound), to be minimised.
    """
    pos_logits = interaction_score(user_repr, pos_item_repr)
    pos_loss = ops.binary_cross_entropy_with_logits(
        pos_logits, np.ones(pos_logits.shape), reduce="mean"
    )
    if neg_item_repr is None:
        return pos_loss
    repeat = neg_item_repr.shape[0] // user_repr.shape[0]
    if repeat * user_repr.shape[0] != neg_item_repr.shape[0]:
        raise ValueError(
            "neg_item_repr rows must be a multiple of user_repr rows "
            f"({neg_item_repr.shape[0]} vs {user_repr.shape[0]})"
        )
    if repeat > 1:
        index = np.repeat(np.arange(user_repr.shape[0]), repeat)
        neg_users = user_repr[index]
    else:
        neg_users = user_repr
    neg_logits = interaction_score(neg_users, neg_item_repr)
    neg_loss = ops.binary_cross_entropy_with_logits(
        neg_logits, np.zeros(neg_logits.shape), reduce="mean"
    )
    return ops.add(pos_loss, neg_loss)


def fused_reconstruction_group(specs) -> Tuple[Tensor, Dict[str, float]]:
    """Every reconstruction term of one training step as a single graph node.

    ``specs`` is a list of ``(name, user_z, item_z, users, pos_items,
    neg_items)`` tuples — one per active Eq. 7/8 term; each behaves like
    ``reconstruction_term(user_z[users], item_z[pos], item_z[neg])``.  The
    row gathers, inner-product logits, stable BCE terms and their mean
    reductions run in one forward pass, and the backward merges the
    scatters: each ``z`` tensor receives *one* combined bincount scatter-add
    for all terms touching it, with the negatives' user-side contributions
    folded per batch row first.  Returns the summed loss tensor plus
    per-term float values for the trainer's diagnostics.
    """
    prepared = []
    term_values: Dict[str, float] = {}
    total = None
    for name, user_z, item_z, users, pos_items, neg_items in specs:
        users = np.asarray(users, dtype=np.int64)
        pos_items = np.asarray(pos_items, dtype=np.int64)
        neg_items = np.asarray(neg_items, dtype=np.int64).reshape(-1)
        batch = users.shape[0]
        if batch == 0:
            raise ValueError(f"reconstruction term {name!r} received an empty batch")
        repeat = neg_items.shape[0] // batch
        if repeat * batch != neg_items.shape[0]:
            raise ValueError(
                f"neg_items rows of term {name!r} must be a multiple of the "
                f"batch ({neg_items.shape[0]} vs {batch})"
            )
        rep_users = np.repeat(users, repeat)
        user_rows = user_z.data[users]
        pos_rows = item_z.data[pos_items]
        neg_user_rows = user_z.data[rep_users]
        neg_rows = item_z.data[neg_items]
        pos_logits = (user_rows * pos_rows).sum(axis=-1)
        neg_logits = (neg_user_rows * neg_rows).sum(axis=-1)
        value = _bce_pair_forward(pos_logits, neg_logits)
        term_values[name] = float(value)
        total = value if total is None else total + value
        prepared.append((user_z, item_z, users, pos_items, neg_items, batch,
                         repeat, user_rows, pos_rows, neg_user_rows, neg_rows,
                         pos_logits, neg_logits))

    parents = []
    for entry in prepared:
        for tensor in entry[:2]:
            if not any(tensor is seen for seen in parents):
                parents.append(tensor)

    def backward(g):
        g = float(np.asarray(g))
        pending: Dict[int, list] = {id(t): [] for t in parents}
        for (user_z, item_z, users, pos_items, neg_items, batch, repeat,
             user_rows, pos_rows, neg_user_rows, neg_rows,
             pos_logits, neg_logits) in prepared:
            d_pos = _bce_grad(pos_logits, True, g)[:, None]
            d_neg = _bce_grad(neg_logits, False, g)[:, None]
            weighted_neg = d_neg * neg_rows
            user_contrib = (d_pos * pos_rows
                            + weighted_neg.reshape(batch, repeat, -1).sum(axis=1))
            pending[id(user_z)].append((users, user_contrib))
            pending[id(item_z)].append((pos_items, d_pos * user_rows))
            pending[id(item_z)].append((neg_items, d_neg * neg_user_rows))
        grads = []
        for tensor in parents:
            chunks = pending[id(tensor)]
            if len(chunks) == 1:
                index, values = chunks[0]
            else:
                index = np.concatenate([c[0] for c in chunks])
                values = np.concatenate([c[1] for c in chunks])
            grads.append(ops.scatter_add_rows(tensor.data.shape[0], index, values))
        return tuple(grads)

    return ops._make(np.asarray(total), tuple(parents), backward), term_values


def _bce_pair_forward(pos_logits: np.ndarray, neg_logits: np.ndarray) -> float:
    """mean BCE(pos, target=1) + mean BCE(neg, target=0), stable form.

    Identical expression chain to the composed
    ``binary_cross_entropy_with_logits`` ops:
    ``max(x, 0) - x*t + log(1 + exp(-|x|))`` averaged per group.
    """
    pos_losses = (np.maximum(pos_logits, 0.0) - pos_logits
                  + np.logaddexp(0.0, -np.abs(pos_logits)))
    neg_losses = np.maximum(neg_logits, 0.0) + np.logaddexp(0.0, -np.abs(neg_logits))
    return pos_losses.mean() + neg_losses.mean()


def _bce_grad(logits: np.ndarray, targets_one: bool, upstream: float) -> np.ndarray:
    """d(mean stable-BCE)/d(logits) for all-ones or all-zeros targets."""
    sig_neg = _stable_sigmoid_grad(logits)
    grad = (logits >= 0).astype(np.float64) - sig_neg * np.sign(logits)
    if targets_one:
        grad = grad - 1.0
    return grad * (upstream / logits.shape[0])


def _stable_sigmoid_grad(x: np.ndarray) -> np.ndarray:
    """sigmoid(-|x|) without overflow (softplus'(-|x|) of the BCE backward)."""
    z = np.exp(-np.abs(x))
    return z / (1.0 + z)


def fused_bce_pair(pos_logits: Tensor, neg_logits: Tensor) -> Tensor:
    """``mean BCE(pos, 1) + mean BCE(neg, 0)`` as one graph node.

    The contrastive regularizer's loss head: both stable BCE terms, their
    mean reductions and the final add collapse into a single node over the
    two logit tensors.
    """
    out = _bce_pair_forward(pos_logits.data, neg_logits.data)

    def backward(g):
        g = float(np.asarray(g))
        return (_bce_grad(pos_logits.data, True, g),
                _bce_grad(neg_logits.data, False, g))

    return ops._make(np.asarray(out), (pos_logits, neg_logits), backward)


def _fused_discriminator_logits(discriminator: "ContrastiveDiscriminator",
                                repr_x: Tensor, repr_y: Tensor,
                                permutation: Optional[np.ndarray]) -> Optional[Tensor]:
    """Whole discriminator pass (concat + MLP + reshape) as one graph node.

    ``permutation`` optionally re-pairs the Y-side rows (the negative pairs
    of Eq. 14).  The forward replays the exact op-by-op expressions (affine
    then ``pre * (pre > 0)`` ReLU masks), the backward the exact chain of
    products, so values and gradients match the composed pipeline to fp
    accumulation order.  Returns None when the MLP contains layers the fused
    kernel does not know (the caller then falls back to the op-by-op path).
    """
    layers = list(discriminator.mlp.net)
    for layer in layers:
        if isinstance(layer, Linear):
            continue
        if isinstance(layer, Activation) and layer.name == "relu":
            continue
        return None

    y_rows = repr_y.data if permutation is None else repr_y.data[permutation]
    pair = np.concatenate([repr_x.data, y_rows], axis=-1)
    hidden = pair
    pre_masks = []       # ReLU masks, in application order
    linear_inputs = []   # input to each Linear, in application order
    for layer in layers:
        if isinstance(layer, Linear):
            linear_inputs.append(hidden)
            hidden = hidden @ layer.weight.data
            if layer.bias is not None:
                hidden = hidden + layer.bias.data
        else:
            mask = hidden > 0
            pre_masks.append(mask)
            hidden = hidden * mask
    logits = hidden.reshape(hidden.shape[0])

    parents = [repr_x, repr_y]
    for layer in layers:
        if isinstance(layer, Linear):
            parents.append(layer.weight)
            if layer.bias is not None:
                parents.append(layer.bias)

    def backward(g):
        grad = np.asarray(g).reshape(-1, 1)
        param_grads = []
        mask_pos = len(pre_masks)
        linear_pos = len(linear_inputs)
        for layer in reversed(layers):
            if isinstance(layer, Linear):
                linear_pos -= 1
                taken = linear_inputs[linear_pos]
                if layer.bias is not None:
                    param_grads.append(grad.sum(axis=0))
                param_grads.append(taken.T @ grad)
                grad = grad @ layer.weight.data.T
            else:
                mask_pos -= 1
                grad = grad * pre_masks[mask_pos]
        dim = repr_x.data.shape[1]
        grad_x = grad[:, :dim]
        grad_y_rows = grad[:, dim:]
        if permutation is None:
            grad_y = grad_y_rows
        else:
            grad_y = ops.scatter_add_rows(repr_y.data.shape[0], permutation,
                                          grad_y_rows)
        return (grad_x, grad_y, *reversed(param_grads))

    return ops._make(logits, tuple(parents), backward)


def fused_contrastive_term(discriminator: "ContrastiveDiscriminator",
                           overlap_x: Tensor, overlap_y: Tensor,
                           rng: np.random.Generator) -> Tensor:
    """Fused-loss version of :func:`contrastive_term` (training fast path).

    Each discriminator pass (pair concat + three-layer MLP) runs as one
    fused node, and the twin BCE heads collapse into another; unknown MLP
    layouts fall back to the op-by-op pipeline.  Consumes the RNG
    identically to the reference (one derangement draw).
    """
    count = overlap_x.shape[0]
    if count < 2:
        return Tensor(0.0)
    permutation = _derangement(count, rng)
    pos_logits = _fused_discriminator_logits(discriminator, overlap_x, overlap_y, None)
    if pos_logits is None:
        pos_logits = discriminator(overlap_x, overlap_y)
        neg_logits = discriminator(overlap_x, ops.gather_rows(overlap_y, permutation))
    else:
        neg_logits = _fused_discriminator_logits(
            discriminator, overlap_x, overlap_y, permutation
        )
    return fused_bce_pair(pos_logits, neg_logits)


class ContrastiveDiscriminator(Module):
    """The discriminator D of Eq. 15: a three-layer MLP over concatenated pairs."""

    def __init__(self, dim: int, hidden_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        hidden = hidden_dim if hidden_dim is not None else dim
        self.mlp = MLP([2 * dim, hidden, hidden // 2 or 1, 1], activation="relu", rng=rng)

    def forward(self, repr_x: Tensor, repr_y: Tensor) -> Tensor:
        """Return similarity logits for row-aligned pairs (z^xo_ui, z^yo_ui)."""
        pair = ops.concat([repr_x, repr_y], axis=-1)
        logits = self.mlp(pair)
        return ops.reshape(logits, (logits.shape[0],))


def contrastive_term(discriminator: ContrastiveDiscriminator,
                     overlap_x: Tensor, overlap_y: Tensor,
                     rng: np.random.Generator) -> Tensor:
    """Contrastive information regularizer loss (the negated bound of Eq. 14).

    Positive pairs align the same overlapping user across domains; negative
    pairs are built by pairing each X-side representation with a *different*
    user's Y-side representation (a derangement-style shuffle).
    """
    count = overlap_x.shape[0]
    if count < 2:
        # A single overlapping user cannot form a negative pair; the
        # regularizer degenerates to zero.
        return Tensor(0.0)
    permutation = _derangement(count, rng)
    pos_logits = discriminator(overlap_x, overlap_y)
    neg_logits = discriminator(overlap_x, overlap_y[permutation])
    pos_loss = ops.binary_cross_entropy_with_logits(
        pos_logits, np.ones(count), reduce="mean"
    )
    neg_loss = ops.binary_cross_entropy_with_logits(
        neg_logits, np.zeros(count), reduce="mean"
    )
    return ops.add(pos_loss, neg_loss)


def _derangement(count: int, rng: np.random.Generator) -> np.ndarray:
    """Random permutation of ``range(count)`` with no fixed points."""
    permutation = rng.permutation(count)
    for position in range(count):
        if permutation[position] == position:
            swap_with = (position + 1) % count
            permutation[position], permutation[swap_with] = (
                permutation[swap_with], permutation[position]
            )
    return permutation
