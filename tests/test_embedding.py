"""Descriptor learning: loss/gradient oracles, training contracts.

The central oracle is a direct triple-loop reimplementation of the
batch-all triplet loss; the vectorized implementation must agree with it
to float precision, and its analytic gradients must agree with central
finite differences.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeloc import (
    AugmentationConfig,
    DEFAULT_ALPHA,
    DEFAULT_SCALE,
    Encoder,
    LossConfig,
    SyntheticWorldConfig,
    TrainBatch,
    TrainingDiverged,
    WorldViews,
    batch_loss,
    build_batch,
    encode,
    encode_batch,
    generate_synthetic_world,
    normalize_scale,
    pair_counts,
    soft_margin_grad,
    soft_margin_loss,
    train_encoders,
)

LN2 = math.log(2.0)


def oracle_loss(batch, g_enc, f_enc, cfg):
    """Brute-force batch loss: explicit loops over every triplet.

    Families (anchor, positive, negative), mined over locations i != j and
    augmentation indices k, l, m:
      1. (x_ik, y_il, y_jm)   2. (y_ik, x_il, x_jm)
      3. (x_ik, x_il, x_jm), k != l
      4. (y_ik, y_il, y_jm), k != l
    Each family contributes lambda * mean(ln(1 + exp(alpha*(d_pos - d_neg)))),
    averaged over the families that have at least one triplet.
    """
    def emb(z, enc):
        raw = z @ enc.weights.T + enc.bias
        return cfg.scale * raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    x = emb(batch.map_latents, g_enc)
    y = emb(batch.image_latents, f_enc)
    n, k = x.shape[:2]

    def family(anchors, others, intra):
        terms = []
        for i in range(n):
            for ki in range(k):
                for li in range(k):
                    if intra and ki == li:
                        continue
                    d_pos = np.linalg.norm(anchors[i, ki] - others[i, li])
                    for j in range(n):
                        if j == i:
                            continue
                        for mi in range(k):
                            d_neg = np.linalg.norm(anchors[i, ki] - others[j, mi])
                            terms.append(math.log1p(math.exp(cfg.alpha * (d_pos - d_neg)))
                                         if cfg.alpha * (d_pos - d_neg) < 500
                                         else cfg.alpha * (d_pos - d_neg))
        return terms

    sums = [family(x, y, False), family(y, x, False), family(x, x, True), family(y, y, True)]
    active = [(lam, t) for lam, t in zip(cfg.lambdas, sums) if t]
    return sum(lam * np.mean(t) for lam, t in active) / len(active)


def random_setup(rng, n_b, k, latent_dim, dim):
    batch = TrainBatch(
        np.arange(n_b),
        rng.normal(0.0, 1.0, (n_b, k, latent_dim)),
        rng.normal(0.0, 1.0, (n_b, k, latent_dim)),
    )
    g_enc = Encoder(rng.normal(0.0, 0.5, (dim, latent_dim)), rng.normal(0.0, 0.1, dim))
    f_enc = Encoder(rng.normal(0.0, 0.5, (dim, latent_dim)), rng.normal(0.0, 0.1, dim))
    return batch, g_enc, f_enc


class TestSoftMargin:
    def test_frozen_values(self):
        assert soft_margin_loss(0.0) == pytest.approx(LN2, abs=1e-15)
        assert soft_margin_loss(10.0, alpha=0.2) == pytest.approx(
            math.log(1.0 + math.e**2), rel=1e-14
        )
        assert soft_margin_loss(0.0, alpha=5.0) == pytest.approx(LN2, abs=1e-15)

    def test_positive_everywhere(self):
        d = np.linspace(-100.0, 100.0, 1001)
        assert (soft_margin_loss(d) > 0).all()

    def test_grad_matches_finite_difference(self):
        d = np.linspace(-40.0, 40.0, 81)
        h = 1e-6
        fd = (soft_margin_loss(d + h, 0.3) - soft_margin_loss(d - h, 0.3)) / (2 * h)
        np.testing.assert_allclose(soft_margin_grad(d, 0.3), fd, rtol=1e-7, atol=1e-10)

    def test_grad_is_alpha_sigmoid(self):
        assert soft_margin_grad(0.0, 0.2) == pytest.approx(0.1)
        assert soft_margin_grad(1e9, 0.2) == pytest.approx(0.2)
        assert soft_margin_grad(-1e9, 0.2) == pytest.approx(0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            soft_margin_loss(1.0, alpha=0.0)

    @given(st.floats(min_value=-1e8, max_value=1e8))
    @settings(max_examples=200, deadline=None)
    def test_finite_and_nonnegative(self, d):
        v = soft_margin_loss(d)
        assert math.isfinite(v) and v >= 0.0


class TestNormalizeScale:
    def test_frozen_example(self):
        out = normalize_scale(np.array([3.0, 4.0, 0.0, 0.0]), 32.0)
        np.testing.assert_allclose(out, [19.2, 25.6, 0.0, 0.0], rtol=1e-15)

    def test_norm_and_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(0.0, 10.0, rng.integers(2, 20))
            out = normalize_scale(v, 32.0)
            assert np.linalg.norm(out) == pytest.approx(32.0, rel=1e-12)
            cos = v @ out / (np.linalg.norm(v) * np.linalg.norm(out))
            assert cos == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            normalize_scale(np.zeros(4))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            normalize_scale(np.ones(4), scale=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_scale(np.array([1.0, bad, 2.0]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_norm_invariant(self, vals):
        v = np.array(vals)
        if np.linalg.norm(v) < 1e-9:
            return
        assert np.linalg.norm(normalize_scale(v)) == pytest.approx(
            DEFAULT_SCALE, rel=1e-9
        )


class TestPairCounts:
    def test_frozen_case(self):
        assert pair_counts(10, 5) == (250, 2250)

    def test_total_identity(self):
        for n_b in range(1, 9):
            for k in range(1, 7):
                matched, unmatched = pair_counts(n_b, k)
                assert matched + unmatched == (n_b * k) ** 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pair_counts(0, 5)
        with pytest.raises(ValueError):
            pair_counts(10, 0)


class TestEncode:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        enc = Encoder(rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6))
        cfg = LossConfig(dim=6)
        lat = rng.normal(0, 1, (7, 4))
        batch = encode_batch(lat, enc, cfg)
        for i in range(7):
            np.testing.assert_allclose(batch[i], encode(lat[i], enc, cfg), rtol=1e-14)

    def test_descriptor_norms(self):
        rng = np.random.default_rng(2)
        enc = Encoder(rng.normal(0, 1, (16, 8)), np.zeros(16))
        out = encode_batch(rng.normal(0, 1, (30, 8)), enc, LossConfig())
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 32.0, rtol=1e-12)

    def test_shape_errors(self):
        enc = Encoder(np.eye(4), np.zeros(4))
        with pytest.raises(ValueError, match="does not match"):
            encode(np.zeros(5), enc, LossConfig(dim=4))
        with pytest.raises(ValueError, match="does not match"):
            encode_batch(np.zeros((3, 5)), enc, LossConfig(dim=4))

    def test_zero_output_rejected(self):
        enc = Encoder(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="zero vector"):
            encode(np.ones(4), enc, LossConfig(dim=4))
        with pytest.raises(ValueError, match="zero vector"):
            encode_batch(np.ones((2, 4)), enc, LossConfig(dim=4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_rejects_non_finite(self, bad):
        cfg = LossConfig(dim=4)
        with pytest.raises(ValueError, match="latent must be finite"):
            encode(np.array([bad, 1.0, 2.0, 3.0]), Encoder(np.eye(4), np.zeros(4)), cfg)
        weights = np.eye(4)
        weights[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            encode(np.ones(4), Encoder(weights, np.zeros(4)), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_batch_rejects_non_finite(self, bad):
        cfg = LossConfig(dim=4)
        lat = np.ones((3, 4))
        lat[1, 0] = bad
        with pytest.raises(ValueError, match="latents must be finite"):
            encode_batch(lat, Encoder(np.eye(4), np.zeros(4)), cfg)
        with pytest.raises(ValueError, match="latents must be finite"):
            encode_batch(lat[None], Encoder(np.eye(4), np.zeros(4)), cfg)
        bias = np.zeros(4)
        bias[3] = bad
        with pytest.raises(ValueError, match="encoder produced a non-finite vector"):
            encode_batch(np.ones((3, 4)), Encoder(np.eye(4), bias), cfg)


class TestBatchLoss:
    @pytest.mark.parametrize("n_b,k", [(2, 1), (2, 2), (3, 2), (4, 3), (5, 1)])
    def test_matches_brute_force_oracle(self, n_b, k):
        rng = np.random.default_rng(n_b * 100 + k)
        cfg = LossConfig(alpha=0.3, lambdas=(1.0, 0.7, 1.2, 0.9), dim=5)
        batch, g_enc, f_enc = random_setup(rng, n_b, k, 4, 5)
        loss, _ = batch_loss(batch, g_enc, f_enc, cfg)
        assert loss == pytest.approx(oracle_loss(batch, g_enc, f_enc, cfg), rel=1e-12)

    def test_zero_lambda_families_drop(self):
        rng = np.random.default_rng(5)
        batch, g_enc, f_enc = random_setup(rng, 3, 2, 4, 5)
        cfg = LossConfig(alpha=0.3, lambdas=(1.0, 0.0, 0.0, 0.0), dim=5)
        loss, _ = batch_loss(batch, g_enc, f_enc, cfg)
        # Families with zero weight still count toward the divisor; the
        # oracle applies the same rule.
        assert loss == pytest.approx(oracle_loss(batch, g_enc, f_enc, cfg), rel=1e-12)

    def test_coincident_batch_gives_ln2(self):
        # All descriptors identical: every triplet has d_pos == d_neg, so
        # each family mean is ln 2 regardless of how many families remain.
        z = np.ones((3, 2, 4))
        batch = TrainBatch(np.arange(3), z, z)
        enc = Encoder(np.eye(5, 4), np.zeros(5))
        loss, _ = batch_loss(batch, enc, enc, LossConfig(dim=5))
        assert loss == pytest.approx(LN2, rel=1e-14)

    def test_coincident_k1_intra_families_empty(self):
        z = np.ones((3, 1, 4))
        batch = TrainBatch(np.arange(3), z, z)
        enc = Encoder(np.eye(5, 4), np.zeros(5))
        loss, _ = batch_loss(batch, enc, enc, LossConfig(dim=5))
        assert loss == pytest.approx(LN2, rel=1e-14)

    def test_domain_swap_symmetry(self):
        rng = np.random.default_rng(6)
        cfg = LossConfig(alpha=0.25, lambdas=(0.8, 0.8, 1.1, 1.1), dim=5)
        batch, g_enc, f_enc = random_setup(rng, 3, 2, 4, 5)
        swapped = TrainBatch(batch.location_ids, batch.image_latents, batch.map_latents)
        a, _ = batch_loss(batch, g_enc, f_enc, cfg)
        b, _ = batch_loss(swapped, f_enc, g_enc, cfg)
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        cfg = LossConfig(alpha=0.3, lambdas=(1.0, 0.7, 1.2, 0.9), dim=5)
        batch, g_enc, f_enc = random_setup(rng, 3, 2, 4, 5)
        _, grads = batch_loss(batch, g_enc, f_enc, cfg)
        h = 1e-6
        worst = 0.0
        for enc, gw, gb in ((g_enc, grads.g_weights, grads.g_bias),
                            (f_enc, grads.f_weights, grads.f_bias)):
            for arr, g_arr in ((enc.weights, gw), (enc.bias, gb)):
                for idx in np.ndindex(arr.shape):
                    keep = arr[idx]
                    arr[idx] = keep + h
                    up = batch_loss(batch, g_enc, f_enc, cfg)[0]
                    arr[idx] = keep - h
                    dn = batch_loss(batch, g_enc, f_enc, cfg)[0]
                    arr[idx] = keep
                    fd = (up - dn) / (2 * h)
                    worst = max(worst, abs(fd - g_arr[idx]) /
                                max(abs(fd), abs(g_arr[idx]), 1e-8))
        assert worst < 1e-6

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="at least 2 locations"):
            TrainBatch(np.arange(1), np.ones((1, 2, 3)), np.ones((1, 2, 3)))
        with pytest.raises(ValueError, match="share shape"):
            TrainBatch(np.arange(2), np.ones((2, 2, 3)), np.ones((2, 2, 4)))


class TestWorldViews:
    @pytest.fixture
    def small_world(self):
        return generate_synthetic_world(SyntheticWorldConfig(node_count=40, seed=20))

    def test_deterministic(self, small_world):
        a = WorldViews.from_graph(small_world, seed=3)
        b = WorldViews.from_graph(small_world, seed=3)
        np.testing.assert_array_equal(a.map_s1, b.map_s1)
        np.testing.assert_array_equal(a.image, b.image)

    def test_scales_differ(self, small_world):
        v = WorldViews.from_graph(small_world, seed=3)
        assert not np.array_equal(v.map_s1, v.map_s2)
        assert v.latent_dim == 16

    def test_views_stay_near_base(self, small_world):
        v = WorldViews.from_graph(small_world, seed=3, scale_sigma=0.0, view_sigma=0.0)
        np.testing.assert_array_equal(v.map_s1, small_world.latent_matrix())
        np.testing.assert_array_equal(v.image, small_world.latent_matrix())

    def test_rotate_image_preserves_norms(self, small_world):
        v = WorldViews.from_graph(small_world, seed=3, view_sigma=0.0, rotate_image=True)
        base = small_world.latent_matrix()
        np.testing.assert_allclose(
            np.linalg.norm(v.image, axis=1), np.linalg.norm(base, axis=1), rtol=1e-12
        )
        assert not np.allclose(v.image, base)

    def test_rows_of(self, small_world):
        v = WorldViews.from_graph(small_world)
        ids = np.asarray(v.ids)
        np.testing.assert_array_equal(v.rows_of(ids[[5, 2, 9]]), [5, 2, 9])
        with pytest.raises(ValueError, match="unknown location id"):
            v.rows_of([10**9])


class TestBuildBatch:
    @pytest.fixture
    def views(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=21))
        return WorldViews.from_graph(g, seed=1)

    def test_shapes_and_ids(self, views):
        batch = build_batch(views, [0, 3, 7], AugmentationConfig(seed=2), k=4)
        assert batch.map_latents.shape == (3, 4, 16)
        assert batch.n_b == 3 and batch.k == 4
        np.testing.assert_array_equal(batch.location_ids, views.ids[[0, 3, 7]])

    def test_zero_jitter_fixed_scale_is_exact(self, views):
        aug = AugmentationConfig(jitter_sigma=0.0, scale_pick="s1", seed=2)
        batch = build_batch(views, [1, 2], aug, k=3)
        for kk in range(3):
            np.testing.assert_array_equal(batch.map_latents[:, kk], views.map_s1[[1, 2]])
            np.testing.assert_array_equal(batch.image_latents[:, kk], views.image[[1, 2]])

    def test_s2_pick(self, views):
        aug = AugmentationConfig(jitter_sigma=0.0, scale_pick="s2", seed=2)
        batch = build_batch(views, [4, 6], aug, k=2)
        np.testing.assert_array_equal(batch.map_latents[0, 0], views.map_s2[4])
        np.testing.assert_array_equal(batch.map_latents[1, 1], views.map_s2[6])

    def test_random_pick_mixes_scales(self, views):
        aug = AugmentationConfig(jitter_sigma=0.0, scale_pick="random", seed=2)
        batch = build_batch(views, np.arange(10), aug, k=6)
        is_s1 = np.isclose(batch.map_latents, views.map_s1[np.arange(10)][:, None, :]).all(-1)
        assert 0 < is_s1.sum() < is_s1.size

    def test_aug_validation(self):
        with pytest.raises(ValueError, match="jitter_sigma"):
            AugmentationConfig(jitter_sigma=-0.1)
        with pytest.raises(ValueError, match="scale_pick"):
            AugmentationConfig(scale_pick="s3")


class TestTraining:
    @pytest.fixture
    def world(self):
        return generate_synthetic_world(SyntheticWorldConfig(node_count=60, seed=22))

    def test_loss_decreases(self, world):
        _, _, hist = train_encoders(
            world, LossConfig(), AugmentationConfig(), epochs=8, lr=0.2, seed=1,
            return_history=True,
        )
        assert hist[-1] < hist[0] * 0.5

    def test_zero_lr_constant_loss_and_params(self, world):
        cfg, aug = LossConfig(), AugmentationConfig()
        g1, f1, hist = train_encoders(world, cfg, aug, epochs=4, lr=0.0, seed=9,
                                      return_history=True)
        assert len(set(hist)) == 1
        # Parameters never move; a 1-epoch zero-lr run leaves identical state.
        g2, f2 = train_encoders(world, cfg, aug, epochs=1, lr=0.0, seed=9)
        np.testing.assert_array_equal(g1.weights, g2.weights)
        np.testing.assert_array_equal(f1.weights, f2.weights)
        np.testing.assert_array_equal(g1.bias, g2.bias)

    def test_deterministic(self, world):
        args = dict(epochs=3, lr=0.2, seed=4)
        g1, f1 = train_encoders(world, LossConfig(), AugmentationConfig(), **args)
        g2, f2 = train_encoders(world, LossConfig(), AugmentationConfig(), **args)
        np.testing.assert_array_equal(g1.weights, g2.weights)
        np.testing.assert_array_equal(f1.weights, f2.weights)

    def test_train_rows_subset(self, world):
        g_enc, f_enc = train_encoders(
            world, LossConfig(), AugmentationConfig(), epochs=2, lr=0.2, seed=4,
            train_rows=np.arange(30),
        )
        assert g_enc.weights.shape == (16, 16)

    def test_divergence_guard(self, world):
        views = WorldViews.from_graph(world)
        views.image[:] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite loss"):
            train_encoders(world, LossConfig(), AugmentationConfig(), epochs=1,
                           lr=0.2, seed=1, views=views)

    def test_validation(self, world):
        with pytest.raises(ValueError, match="epochs"):
            train_encoders(world, LossConfig(), AugmentationConfig(), epochs=0)
        with pytest.raises(ValueError, match="n_b"):
            train_encoders(world, LossConfig(), AugmentationConfig(), n_b=1)
        with pytest.raises(ValueError, match="training locations"):
            train_encoders(world, LossConfig(), AugmentationConfig(),
                           train_rows=np.arange(3), n_b=10)
