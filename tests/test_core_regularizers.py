"""Tests for the IB / contrastive regularizer objective terms."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import ContrastiveDiscriminator, contrastive_term, interaction_score
from repro.core.regularizers import _derangement, minimality_term, reconstruction_term


class TestMinimality:
    def test_zero_at_standard_normal(self):
        mu = Tensor(np.zeros((6, 4)))
        sigma = Tensor(np.ones((6, 4)))
        assert minimality_term(mu, sigma).item() == pytest.approx(0.0, abs=1e-10)

    def test_grows_with_mean_magnitude(self):
        sigma = Tensor(np.ones((6, 4)))
        small = minimality_term(Tensor(np.full((6, 4), 0.1)), sigma).item()
        large = minimality_term(Tensor(np.full((6, 4), 2.0)), sigma).item()
        assert large > small


class TestInteractionScore:
    def test_matches_inner_product(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        scores = interaction_score(Tensor(a), Tensor(b))
        np.testing.assert_allclose(scores.data, np.sum(a * b, axis=-1))


class TestReconstruction:
    def test_aligned_representations_have_lower_loss(self):
        rng = np.random.default_rng(0)
        users = rng.standard_normal((20, 8))
        aligned = reconstruction_term(
            Tensor(users), Tensor(users * 2.0), Tensor(-users)
        ).item()
        random_items = reconstruction_term(
            Tensor(users), Tensor(rng.standard_normal((20, 8))),
            Tensor(rng.standard_normal((20, 8))),
        ).item()
        assert aligned < random_items

    def test_multiple_negatives_per_positive(self):
        rng = np.random.default_rng(1)
        users = Tensor(rng.standard_normal((10, 4)))
        positives = Tensor(rng.standard_normal((10, 4)))
        negatives = Tensor(rng.standard_normal((30, 4)))
        loss = reconstruction_term(users, positives, negatives)
        assert np.isfinite(loss.item())

    def test_mismatched_negative_count_raises(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            reconstruction_term(
                Tensor(rng.standard_normal((10, 4))),
                Tensor(rng.standard_normal((10, 4))),
                Tensor(rng.standard_normal((15, 4))),
            )

    def test_positive_only(self):
        rng = np.random.default_rng(3)
        users = Tensor(rng.standard_normal((10, 4)))
        loss = reconstruction_term(users, users, None)
        assert np.isfinite(loss.item())


class TestContrastive:
    def test_discriminator_output_shape(self):
        disc = ContrastiveDiscriminator(dim=8, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        logits = disc(Tensor(rng.standard_normal((7, 8))), Tensor(rng.standard_normal((7, 8))))
        assert logits.shape == (7,)

    def test_contrastive_term_is_finite_and_positive(self):
        disc = ContrastiveDiscriminator(dim=6, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        loss = contrastive_term(
            disc, Tensor(rng.standard_normal((12, 6))), Tensor(rng.standard_normal((12, 6))),
            np.random.default_rng(3),
        )
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_single_pair_degenerates_to_zero(self):
        disc = ContrastiveDiscriminator(dim=4, rng=np.random.default_rng(0))
        loss = contrastive_term(
            disc, Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))),
            np.random.default_rng(0),
        )
        assert loss.item() == 0.0

    def test_gradients_flow_to_discriminator(self):
        disc = ContrastiveDiscriminator(dim=4, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        loss = contrastive_term(
            disc, Tensor(rng.standard_normal((8, 4))), Tensor(rng.standard_normal((8, 4))),
            np.random.default_rng(2),
        )
        loss.backward()
        grads = [p.grad for p in disc.parameters()]
        assert any(g is not None and np.any(g != 0) for g in grads)

    @pytest.mark.parametrize("count", [2, 3, 5, 17])
    def test_derangement_has_no_fixed_points(self, count):
        for seed in range(5):
            permutation = _derangement(count, np.random.default_rng(seed))
            assert not np.any(permutation == np.arange(count))
            assert sorted(permutation.tolist()) == list(range(count))


class TestFusedTermParity:
    """The fused single-node terms must match their composed-op originals."""

    def test_fused_reconstruction_group_matches_composed_terms(self):
        from repro.core.regularizers import fused_reconstruction_group

        rng = np.random.default_rng(1)
        user_z_a = Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        item_z_a = Tensor(rng.standard_normal((11, 4)), requires_grad=True)
        user_z_b = Tensor(user_z_a.data.copy(), requires_grad=True)
        item_z_b = Tensor(item_z_a.data.copy(), requires_grad=True)
        users = rng.integers(0, 9, 6)
        pos = rng.integers(0, 11, 6)
        neg = rng.integers(0, 11, 12)

        reference = reconstruction_term(
            user_z_a[users], item_z_a[pos], item_z_a[neg]
        )
        fused, diag = fused_reconstruction_group(
            [("term", user_z_b, item_z_b, users, pos, neg)]
        )
        assert diag["term"] == pytest.approx(float(reference.data), rel=0, abs=1e-12)
        np.testing.assert_allclose(fused.data, reference.data, rtol=0, atol=1e-12)
        reference.backward()
        fused.backward()
        np.testing.assert_allclose(user_z_b.grad, user_z_a.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(item_z_b.grad, item_z_a.grad, rtol=0, atol=1e-12)

    def test_fused_reconstruction_group_validates_batches(self):
        from repro.core.regularizers import fused_reconstruction_group

        z = Tensor(np.zeros((4, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            fused_reconstruction_group(
                [("bad", z, z, np.array([], dtype=np.int64),
                  np.array([], dtype=np.int64), np.array([], dtype=np.int64))]
            )
        with pytest.raises(ValueError):
            fused_reconstruction_group(
                [("ragged", z, z, np.array([0, 1]), np.array([1, 2]),
                  np.array([0, 1, 2]))]
            )
