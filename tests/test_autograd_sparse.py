"""Tests for sparse-matrix operations and graph normalisations."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    check_gradients,
    ops,
    row_normalize,
    sparse_matmul,
    sparse_propagate,
    sparse_propagate_grad,
    symmetric_normalize,
)
from repro.autograd.sparse import _ensure_csr


class TestSparseMatmul:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(0)
        dense_matrix = (rng.random((5, 7)) < 0.4).astype(float)
        matrix = sp.csr_matrix(dense_matrix)
        x = Tensor(rng.standard_normal((7, 3)))
        out = sparse_matmul(matrix, x)
        np.testing.assert_allclose(out.data, dense_matrix @ x.data)

    def test_gradient_is_transpose_product(self):
        rng = np.random.default_rng(1)
        dense_matrix = (rng.random((4, 6)) < 0.5).astype(float)
        matrix = sp.csr_matrix(dense_matrix)
        x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        out = sparse_matmul(matrix, x)
        upstream = rng.standard_normal(out.shape)
        out.backward(upstream)
        np.testing.assert_allclose(x.grad, dense_matrix.T @ upstream)

    def test_accepts_dense_ndarray(self):
        matrix = np.eye(3)
        x = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(sparse_matmul(matrix, x).data, x.data)

    def test_shape_mismatch_raises(self):
        matrix = sp.eye(3, format="csr")
        with pytest.raises(ValueError):
            sparse_matmul(matrix, Tensor(np.zeros((4, 2))))

    def test_constant_input_produces_constant_output(self):
        matrix = sp.eye(2, format="csr")
        x = Tensor(np.ones((2, 2)))  # no grad required
        out = sparse_matmul(matrix, x)
        assert out._parents == ()


def _random_propagation_case(seed, n_self, n_other, dim, density):
    """Random push/pull CSR pair plus dense operands for one block."""
    rng = np.random.default_rng(seed)
    push_dense = (rng.random((n_other, n_self)) < density).astype(float)
    pull_dense = (rng.random((n_self, n_other)) < density).astype(float)
    features = Tensor(rng.standard_normal((n_self, dim)), requires_grad=True)
    weight_to = Tensor(rng.standard_normal((dim, dim)) * 0.5, requires_grad=True)
    weight_from = Tensor(rng.standard_normal((dim, dim)) * 0.5, requires_grad=True)
    return push_dense, pull_dense, features, weight_to, weight_from


def _unfused_forward(push, pull, features, weight_to, weight_from, slope=0.1):
    """The op-by-op pipeline the fused kernel must reproduce."""
    interim = ops.leaky_relu(sparse_matmul(push, ops.matmul(features, weight_to)),
                             slope)
    return ops.leaky_relu(sparse_matmul(pull, ops.matmul(interim, weight_from)),
                          slope)


class TestSparsePropagateGrad:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8),
           st.integers(1, 5), st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    def test_forward_matches_unfused_pipeline(self, seed, n_self, n_other,
                                              dim, density):
        """Property: fused forward == composed ops on random CSR graphs.

        Densities 0.0 and shapes with a single row/column cover the
        empty-row and single-column edge cases.
        """
        push, pull, features, w_to, w_from = _random_propagation_case(
            seed, n_self, n_other, dim, density)
        fused = sparse_propagate_grad(push, pull, features, w_to, w_from)
        unfused = _unfused_forward(push, pull, features, w_to, w_from)
        np.testing.assert_array_equal(fused.data, unfused.data)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8),
           st.integers(1, 5), st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    def test_backward_matches_unfused_pipeline(self, seed, n_self, n_other,
                                               dim, density):
        """Property: fused gradients == composed-op gradients, all parents."""
        push, pull, features, w_to, w_from = _random_propagation_case(
            seed, n_self, n_other, dim, density)
        upstream = np.random.default_rng(seed + 1).standard_normal((n_self, dim))

        fused = sparse_propagate_grad(push, pull, features, w_to, w_from)
        fused.backward(upstream)
        fused_grads = [t.grad.copy() for t in (features, w_to, w_from)]
        for tensor in (features, w_to, w_from):
            tensor.zero_grad()
        unfused = _unfused_forward(push, pull, features, w_to, w_from)
        unfused.backward(upstream)
        for got, tensor in zip(fused_grads, (features, w_to, w_from)):
            np.testing.assert_allclose(got, tensor.grad, rtol=0, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_numerical_gradcheck(self, seed):
        """Property: fused analytic gradients agree with finite differences."""
        push, pull, features, w_to, w_from = _random_propagation_case(
            seed, 4, 5, 3, 0.4)

        def fn(f, wt, wf):
            return ops.sum(sparse_propagate_grad(push, pull, f, wt, wf))

        assert check_gradients(fn, [features, w_to, w_from])

    def test_empty_graph_propagates_zeros(self):
        """All-empty rows: forward is zero and gradients stay finite."""
        push, pull, features, w_to, w_from = _random_propagation_case(3, 5, 4, 3, 0.0)
        out = sparse_propagate_grad(push, pull, features, w_to, w_from)
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))
        out.backward(np.ones((5, 3)))
        np.testing.assert_array_equal(features.grad, np.zeros((5, 3)))

    def test_single_column_graph(self):
        """A (m, 1) push / (1, m) pull pair — the degenerate bipartite case."""
        push, pull, features, w_to, w_from = _random_propagation_case(4, 1, 6, 2, 1.0)
        fused = sparse_propagate_grad(push, pull, features, w_to, w_from)
        unfused = _unfused_forward(push, pull, features, w_to, w_from)
        np.testing.assert_array_equal(fused.data, unfused.data)
        assert check_gradients(
            lambda f, wt, wf: ops.sum(sparse_propagate_grad(push, pull, f, wt, wf)),
            [features, w_to, w_from],
        )

    def test_matches_nograd_serving_kernel(self):
        """The grad-aware kernel and the serving kernel agree bitwise."""
        push, pull, features, w_to, w_from = _random_propagation_case(9, 8, 5, 4, 0.4)
        fused = sparse_propagate_grad(push, pull, features, w_to, w_from)
        served = sparse_propagate(push, pull, features.data, w_to.data, w_from.data)
        np.testing.assert_array_equal(fused.data, served)

    def test_cached_transposes_do_not_change_results(self):
        push, pull, features, w_to, w_from = _random_propagation_case(10, 6, 7, 3, 0.4)
        push_t = _ensure_csr(push).T.tocsr()
        pull_t = _ensure_csr(pull).T.tocsr()
        plain = sparse_propagate_grad(push, pull, features, w_to, w_from)
        plain.backward(np.ones_like(plain.data))
        plain_grad = features.grad.copy()
        features.zero_grad()
        cached = sparse_propagate_grad(push, pull, features, w_to, w_from,
                                       push_t=push_t, pull_t=pull_t)
        cached.backward(np.ones_like(cached.data))
        np.testing.assert_array_equal(plain.data, cached.data)
        np.testing.assert_array_equal(plain_grad, features.grad)

    def test_shape_mismatch_raises(self):
        features = Tensor(np.zeros((4, 2)))
        weights = Tensor(np.eye(2))
        with pytest.raises(ValueError):
            sparse_propagate_grad(sp.eye(3, format="csr"), sp.eye(3, format="csr"),
                                  features, weights, weights)

    def test_constant_inputs_produce_constant_output(self):
        push, pull, features, w_to, w_from = _random_propagation_case(11, 4, 4, 2, 0.5)
        out = sparse_propagate_grad(push, pull, features.detach(),
                                    w_to.detach(), w_from.detach())
        assert out._parents == ()


class TestEnsureCsrDtype:
    def test_float32_dense_preserved(self):
        matrix = np.eye(3, dtype=np.float32)
        assert _ensure_csr(matrix).dtype == np.float32

    def test_float32_sparse_preserved(self):
        matrix = sp.random(5, 4, density=0.5, format="coo", dtype=np.float32,
                           random_state=0)
        assert _ensure_csr(matrix).dtype == np.float32

    def test_float64_preserved(self):
        assert _ensure_csr(np.eye(2)).dtype == np.float64

    def test_integer_promoted_to_float64(self):
        matrix = np.array([[0, 1], [1, 0]], dtype=np.int64)
        assert _ensure_csr(matrix).dtype == np.float64
        sparse_int = sp.csr_matrix(matrix)
        assert _ensure_csr(sparse_int).dtype == np.float64

    def test_float32_propagation_stays_float32(self):
        """A float32 graph + float32 operands run the fused kernel in fp32."""
        rng = np.random.default_rng(0)
        push = sp.csr_matrix((rng.random((5, 4)) < 0.5).astype(np.float32))
        pull = sp.csr_matrix((rng.random((4, 5)) < 0.5).astype(np.float32))
        out = sparse_propagate(push, pull,
                               rng.standard_normal((4, 3)).astype(np.float32),
                               np.eye(3, dtype=np.float32),
                               np.eye(3, dtype=np.float32))
        assert out.dtype == np.float32


class TestNormalisations:
    def test_row_normalize_rows_sum_to_one(self):
        matrix = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]]))
        normalised = row_normalize(matrix)
        np.testing.assert_allclose(np.asarray(normalised.sum(axis=1)).ravel(), [1.0, 1.0])

    def test_row_normalize_handles_zero_rows(self):
        matrix = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        normalised = row_normalize(matrix)
        np.testing.assert_allclose(normalised.toarray()[0], [0.0, 0.0])
        assert np.all(np.isfinite(normalised.toarray()))

    def test_symmetric_normalize_known_values(self):
        # Two nodes connected by one edge plus self-loops.
        adjacency = np.array([[1.0, 1.0], [1.0, 1.0]])
        normalised = symmetric_normalize(adjacency).toarray()
        np.testing.assert_allclose(normalised, np.full((2, 2), 0.5))

    def test_symmetric_normalize_isolated_node(self):
        adjacency = np.array([[0.0, 0.0], [0.0, 1.0]])
        normalised = symmetric_normalize(adjacency).toarray()
        assert np.all(np.isfinite(normalised))
        np.testing.assert_allclose(normalised[0], [0.0, 0.0])
