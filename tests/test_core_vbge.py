"""Tests for the variational bipartite graph encoder."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.core import VBGE
from repro.graph import BipartiteGraph
from repro.nn import Embedding


@pytest.fixture
def graph():
    rng = np.random.default_rng(0)
    edges = np.unique(
        np.column_stack([rng.integers(0, 12, 120), rng.integers(0, 15, 120)]), axis=0
    )
    return BipartiteGraph(12, 15, edges)


@pytest.fixture
def embeddings(graph):
    rng = np.random.default_rng(1)
    users = Embedding(graph.num_users, 8, rng=rng)
    items = Embedding(graph.num_items, 8, rng=rng)
    return users, items


class TestVBGEShapes:
    def test_latent_shapes(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=2, dropout=0.0, seed=0)
        user_latent, item_latent = encoder.encode(users.all(), items.all(), graph)
        assert user_latent.mu.shape == (graph.num_users, 8)
        assert user_latent.sigma.shape == (graph.num_users, 8)
        assert user_latent.z.shape == (graph.num_users, 8)
        assert item_latent.mu.shape == (graph.num_items, 8)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_layer_count_does_not_change_output_dim(self, graph, embeddings, layers):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=layers, dropout=0.0, seed=0)
        user_latent, _ = encoder.encode(users.all(), items.all(), graph)
        assert user_latent.z.shape == (graph.num_users, 8)

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            VBGE(dim=8, num_layers=0)

    def test_sigma_is_positive(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=1, dropout=0.0, seed=0)
        user_latent, item_latent = encoder.encode(users.all(), items.all(), graph)
        assert np.all(user_latent.sigma.data > 0)
        assert np.all(item_latent.sigma.data > 0)


class TestSamplingBehaviour:
    def test_training_mode_samples_around_mu(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=1, dropout=0.0, seed=0)
        encoder.train()
        user_latent, _ = encoder.encode(users.all(), items.all(), graph)
        assert not np.allclose(user_latent.z.data, user_latent.mu.data)

    def test_eval_mode_returns_mean(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=1, dropout=0.0, seed=0)
        encoder.eval()
        user_latent, _ = encoder.encode(users.all(), items.all(), graph)
        np.testing.assert_allclose(user_latent.z.data, user_latent.mu.data)

    def test_deterministic_flag_disables_sampling(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=1, dropout=0.0, deterministic=True, seed=0)
        encoder.train()
        user_latent, _ = encoder.encode(users.all(), items.all(), graph)
        np.testing.assert_allclose(user_latent.z.data, user_latent.mu.data)

    def test_deterministic_latent_accessor(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=1, dropout=0.0, seed=0)
        user_latent, _ = encoder.encode(users.all(), items.all(), graph)
        np.testing.assert_allclose(user_latent.deterministic().data, user_latent.mu.data)


class TestGradientsAndStructure:
    def test_gradients_reach_embeddings(self, graph, embeddings):
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=2, dropout=0.0, seed=0)
        encoder.train()
        user_latent, item_latent = encoder.encode(users.all(), items.all(), graph)
        loss = ops.add(ops.mean(ops.mul(user_latent.z, user_latent.z)),
                       ops.mean(ops.mul(item_latent.z, item_latent.z)))
        loss.backward()
        assert users.weight.grad is not None
        assert items.weight.grad is not None
        assert np.any(users.weight.grad != 0)

    def test_parameter_count_grows_with_layers(self):
        shallow = VBGE(dim=8, num_layers=1)
        deep = VBGE(dim=8, num_layers=3)
        assert deep.num_parameters() > shallow.num_parameters()

    def test_isolated_user_still_gets_representation(self, embeddings):
        # User 11 has no edges at all: the encoder must not produce NaNs.
        edges = np.array([[0, 0], [1, 1], [2, 2]])
        graph = BipartiteGraph(12, 15, edges)
        users, items = embeddings
        encoder = VBGE(dim=8, num_layers=2, dropout=0.0, seed=0)
        user_latent, _ = encoder.encode(users.all(), items.all(), graph)
        assert np.all(np.isfinite(user_latent.mu.data))
        assert np.all(np.isfinite(user_latent.sigma.data))


class TestEncodeVariants:
    def test_fused_encode_matches_reference_encode(self, graph, embeddings):
        """The fused path is bitwise the op-by-op path (values and grads)."""
        users, items = embeddings
        grads = {}
        for fused in (True, False):
            users.weight.zero_grad()
            encoder = VBGE(dim=8, num_layers=2, dropout=0.0, seed=0)
            user_latent, item_latent = encoder.encode(
                users.all(), items.all(), graph, fused=fused
            )
            grads[fused] = (user_latent.mu.data.copy(), item_latent.sigma.data.copy())
            ops.sum(user_latent.mu).backward()
            grads[fused] += (users.weight.grad.copy(),)
        for got, expected in zip(grads[True], grads[False]):
            np.testing.assert_array_equal(got, expected)
