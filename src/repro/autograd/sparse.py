"""Sparse-matrix support for the autograd engine.

The bipartite user-item graphs used by the VBGE encoder are stored as
``scipy.sparse`` CSR matrices.  Those matrices are *constants* of the
computation (the adjacency structure is data, not a learnable parameter), so
only the dense operand needs a gradient: for ``y = A @ x`` the backward pass
is ``dL/dx = A.T @ dL/dy``.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, as_tensor, is_grad_enabled

try:  # pragma: no cover - exercised indirectly by every fused propagation
    from scipy.sparse import _sparsetools as _sptools
    _csr_matvecs_kernel = getattr(_sptools, "csr_matvecs", None)
except ImportError:  # very old scipy layouts
    _csr_matvecs_kernel = None


def _csr_dot(matrix: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` via the raw CSR kernel scipy itself dispatches to.

    ``csr_matrix.__matmul__`` burns ~10us per call on format/validation
    plumbing, which the training loop pays 16 times per step; calling
    ``csr_matvecs`` directly produces bitwise-identical results (it *is*
    scipy's multivector kernel) without the overhead.  Falls back to the
    operator when the private module is unavailable or operands are exotic.
    """
    if (_csr_matvecs_kernel is None or dense.dtype != matrix.dtype
            or not dense.flags.c_contiguous):
        return matrix @ dense
    n_vecs = dense.shape[1]
    out = np.zeros((matrix.shape[0], n_vecs), dtype=dense.dtype)
    _csr_matvecs_kernel(matrix.shape[0], matrix.shape[1], n_vecs,
                        matrix.indptr, matrix.indices, matrix.data,
                        dense.ravel(), out.ravel())
    return out


def _ensure_csr(matrix: Union[sp.spmatrix, np.ndarray]) -> sp.csr_matrix:
    """Coerce ``matrix`` to CSR, preserving float32/float64 dtypes.

    Non-float inputs (integer/bool adjacency dumps) are promoted to float64,
    but an explicitly float32 operand stays float32 so mixed-precision
    callers are not silently upcast.
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        if csr.dtype not in (np.float32, np.float64):
            csr = csr.astype(np.float64)
        return csr
    array = np.asarray(matrix)
    if array.dtype not in (np.float32, np.float64):
        array = array.astype(np.float64)
    return sp.csr_matrix(array)


def sparse_matmul(matrix: Union[sp.spmatrix, np.ndarray], dense: Tensor) -> Tensor:
    """Compute ``matrix @ dense`` where ``matrix`` is a constant sparse matrix.

    Recording a node transposes ``matrix`` for the backward pass on every
    call; hot paths that need cached transposes use the fused
    :func:`sparse_propagate_grad` block instead.

    Parameters
    ----------
    matrix:
        A scipy sparse matrix (or ndarray, converted to CSR) of shape (m, n).
    dense:
        A tensor of shape (n, f) that may require gradients.

    Returns
    -------
    Tensor of shape (m, f) wired into the autograd graph.
    """
    matrix = _ensure_csr(matrix)
    dense = as_tensor(dense)
    if matrix.shape[1] != dense.shape[0]:
        raise ValueError(
            f"sparse_matmul shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    out = matrix @ dense.data
    if not is_grad_enabled() or not dense.needs_grad:
        return Tensor(out)
    matrix_t = matrix.T.tocsr()

    def backward(grad):
        return (matrix_t @ np.asarray(grad),)

    return Tensor(out, parents=(dense,), backward_fn=backward)


def sparse_propagate_grad(push: Union[sp.spmatrix, np.ndarray],
                          pull: Union[sp.spmatrix, np.ndarray],
                          features: Union[Tensor, np.ndarray],
                          weight_to: Union[Tensor, np.ndarray],
                          weight_from: Union[Tensor, np.ndarray],
                          negative_slope: float = 0.1,
                          push_t: Union[sp.spmatrix, None] = None,
                          pull_t: Union[sp.spmatrix, None] = None) -> Tensor:
    """Gradient-aware fused two-step propagation (training fast path).

    Computes ``leaky_relu(pull @ (leaky_relu(push @ (features @ W_to)) @
    W_from))`` — the same expression, in the same operation order, as the
    op-by-op ``PropagationBlock.forward`` pipeline — while recording a
    *single* autograd node with parents ``(features, weight_to,
    weight_from)``.  The backward pass replays the exact vector-Jacobian
    chain of the unfused pipeline (LeakyReLU masks, cached ``A.T`` CSR
    products, weight grads) without materialising the five intermediate
    graph nodes or their gradient buffers, so multi-layer propagation only
    keeps one dense gradient per block boundary.

    Parameters
    ----------
    push:
        Sparse (n_other, n_self) matrix pushing features to the neighbour side.
    pull:
        Sparse (n_self, n_other) matrix pulling interim messages back.
    features:
        (n_self, f) input features; Tensor inputs may require gradients.
    weight_to, weight_from:
        The two linear projections of the propagation block (Tensor inputs
        may require gradients).
    negative_slope:
        LeakyReLU slope (paper fixes 0.1).
    push_t, pull_t:
        Optional precomputed CSR transposes of ``push`` / ``pull``; computed
        on the fly when omitted.

    Returns
    -------
    (n_self, f) Tensor wired into the autograd graph.
    """
    push = _ensure_csr(push)
    pull = _ensure_csr(pull)
    feats = as_tensor(features)
    w_to = as_tensor(weight_to)
    w_from = as_tensor(weight_from)
    if push.shape[1] != feats.shape[0]:
        raise ValueError(
            f"sparse_propagate_grad shape mismatch: push {push.shape} "
            f"@ features {feats.shape}"
        )
    if pull.shape[1] != push.shape[0]:
        raise ValueError(
            f"sparse_propagate_grad shape mismatch: pull {pull.shape} "
            f"@ interim ({push.shape[0]}, ...)"
        )

    projected = feats.data @ w_to.data
    interim_pre = _csr_dot(push, projected)
    scale_in = np.where(interim_pre > 0, 1.0, negative_slope)
    interim = interim_pre * scale_in
    messages = interim @ w_from.data
    returned_pre = _csr_dot(pull, messages)
    scale_out = np.where(returned_pre > 0, 1.0, negative_slope)
    out = returned_pre * scale_out

    if not is_grad_enabled() or not (
            feats.needs_grad or w_to.needs_grad or w_from.needs_grad):
        return Tensor(out)

    push_back = push.T.tocsr() if push_t is None else _ensure_csr(push_t)
    pull_back = pull.T.tocsr() if pull_t is None else _ensure_csr(pull_t)

    def backward(grad):
        g_returned = np.asarray(grad) * scale_out
        g_messages = _csr_dot(pull_back, g_returned)
        g_interim = (g_messages @ w_from.data.T) * scale_in
        g_w_from = interim.T @ g_messages
        g_projected = _csr_dot(push_back, g_interim)
        g_features = g_projected @ w_to.data.T
        g_w_to = feats.data.T @ g_projected
        return (g_features, g_w_to, g_w_from)

    return Tensor(out, parents=(feats, w_to, w_from), backward_fn=backward)


def sparse_propagate(push: Union[sp.spmatrix, np.ndarray],
                     pull: Union[sp.spmatrix, np.ndarray],
                     features: np.ndarray,
                     weight_to: np.ndarray,
                     weight_from: np.ndarray,
                     negative_slope: float = 0.1) -> np.ndarray:
    """Fused no-grad two-step propagation (Eq. 2 + the message part of Eq. 3).

    Computes ``leaky_relu(pull @ (leaky_relu(push @ (features @ W_to)) @ W_from))``
    entirely on raw numpy arrays — no autograd :class:`Tensor` bookkeeping, no
    intermediate graph nodes.  This is the inference path: the operations and
    their order are identical to the Tensor-based forward pass of
    ``repro.core.vbge.PropagationBlock``, so the result is bitwise equal to an
    eval-mode forward without the per-op allocation overhead.

    Parameters
    ----------
    push:
        Sparse (n_other, n_self) matrix pushing features to the neighbour side.
    pull:
        Sparse (n_self, n_other) matrix pulling interim messages back.
    features:
        Dense (n_self, f) input features.
    weight_to, weight_from:
        The two linear projections of the propagation block.
    negative_slope:
        LeakyReLU slope (paper fixes 0.1).

    Returns
    -------
    (n_self, f) array.
    """
    push = _ensure_csr(push)
    pull = _ensure_csr(pull)
    interim = push @ (np.asarray(features) @ np.asarray(weight_to))
    np.multiply(interim, np.where(interim > 0, 1.0, negative_slope), out=interim)
    returned = pull @ (interim @ np.asarray(weight_from))
    np.multiply(returned, np.where(returned > 0, 1.0, negative_slope), out=returned)
    return returned


def row_normalize(matrix: Union[sp.spmatrix, np.ndarray]) -> sp.csr_matrix:
    """Return a row-normalised copy of ``matrix`` (the Norm(.) of Eq. 2/3).

    Rows whose sum is zero are left as all-zeros instead of producing NaNs,
    which matters for users/items that end up isolated after filtering.
    """
    matrix = _ensure_csr(matrix).astype(np.float64)
    row_sum = np.asarray(matrix.sum(axis=1)).ravel()
    inverse = np.zeros_like(row_sum)
    nonzero = row_sum > 0
    inverse[nonzero] = 1.0 / row_sum[nonzero]
    scaling = sp.diags(inverse)
    return (scaling @ matrix).tocsr()


def symmetric_normalize(matrix: Union[sp.spmatrix, np.ndarray]) -> sp.csr_matrix:
    """Return D^{-1/2} A D^{-1/2} used by GCN-style baselines (NGCF/PPGN)."""
    matrix = _ensure_csr(matrix).astype(np.float64)
    row_sum = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(row_sum)
    nonzero = row_sum > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(row_sum[nonzero])
    scaling = sp.diags(inv_sqrt)
    return (scaling @ matrix @ scaling).tocsr()
