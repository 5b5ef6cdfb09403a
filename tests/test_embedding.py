"""Descriptor learning: loss/gradient oracles, training contracts.

The central oracle is a direct triple-loop reimplementation of the
batch-all triplet loss; the vectorized implementation must agree with it
to float precision, and its analytic gradients must agree with central
finite differences.
"""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

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
    encode_batch,
    generate_synthetic_world,
    normalize_scale,
    pair_counts,
    soft_margin_loss,
    train_encoders,
)
from routeloc import embedding
from routeloc.embedding import _soft_margin

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


def _two_branch_sigmoid(z):
    """Logistic of z with exp of a non-positive argument only, branch by branch."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def masked_batch_loss(batch, g_enc, f_enc, cfg):
    """batch_loss with excluded triplets masked out instead of set to -inf.

    The earlier formulation: boolean masks select the valid triplets of
    each family, and the loss and the slope alpha * sigmoid(alpha * d) are
    evaluated separately.  batch_loss must match it bit for bit.
    """
    zx, zy = batch.map_latents, batch.image_latents
    x, x_norms = embedding._forward(zx, g_enc, cfg)
    y, y_norms = embedding._forward(zy, f_enc, cfg)
    n, k, dim = x.shape
    e = np.concatenate([x, y]).reshape(2 * n * k, dim)
    dist = cdist(e, e)
    cross = np.broadcast_to(~np.eye(n, dtype=bool)[:, None, None, :, None], (n, k, k, n, k))
    intra = cross & ~np.eye(k, dtype=bool)[None, :, :, None, None]
    families = [(a, b, lam, cross if a != b else intra)
                for (a, b), lam in zip(((0, 1), (1, 0), (0, 0), (1, 1)), cfg.lambdas)]
    active = sum(valid.any() for *_, valid in families)
    loss = 0.0
    grad = np.zeros((2, n, k, 2, n, k))
    dist6 = dist.reshape(grad.shape)
    ar = np.arange(n)
    for a, b, lam, valid in families:
        count = np.count_nonzero(valid)
        if count == 0:
            continue
        d = dist6[a, :, :, b]
        z = np.where(valid, d[ar, :, ar, :][..., None, None] - d[:, :, None], 0.0)
        w = lam / (count * active)
        loss += w * float(np.where(valid, soft_margin_loss(z, cfg.alpha), 0.0).sum())
        slope = cfg.alpha * _two_branch_sigmoid(cfg.alpha * z).reshape(z.shape)
        wz = w * np.where(valid, slope, 0.0)
        block = grad[a, :, :, b]
        block[ar, :, ar, :] += wz.sum(axis=(3, 4))
        block -= wz.sum(axis=2)
    c = np.divide(grad.reshape(dist.shape), dist, out=np.zeros_like(dist),
                  where=dist > embedding._EPS)
    s = c + c.T
    g_emb = (s.sum(axis=1)[:, None] * e - s @ e).reshape(2, n, k, dim)
    gw_g, gb_g = embedding._backward(g_emb[0], x, x_norms, zx, cfg.scale)
    gw_f, gb_f = embedding._backward(g_emb[1], y, y_norms, zy, cfg.scale)
    return float(loss), (gw_g, gb_g, gw_f, gb_f)


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
        np.testing.assert_allclose(_soft_margin(d, 0.3)[1], fd, rtol=1e-7, atol=1e-10)

    def test_grad_is_alpha_sigmoid(self):
        slope = _soft_margin(np.array([0.0, 1e9, -1e9]), 0.2)[1]
        np.testing.assert_allclose(slope, [0.1, 0.2, 0.0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 5.0])
    def test_slope_is_two_branch_sigmoid_bit_for_bit(self, alpha):
        d = np.concatenate([[0.0, -0.0, 1e9, -1e9], np.linspace(-300.0, 300.0, 6001)])
        loss, slope = _soft_margin(d, alpha)
        np.testing.assert_array_equal(slope, alpha * _two_branch_sigmoid(alpha * d))
        np.testing.assert_array_equal(loss, soft_margin_loss(d, alpha))

    def test_zero_at_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, slope = _soft_margin(np.array([-np.inf, -np.inf]), 0.2)
            assert soft_margin_loss(-np.inf) == 0.0
        np.testing.assert_array_equal(loss, [0.0, 0.0])
        np.testing.assert_array_equal(slope, [0.0, 0.0])

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

    def test_rejects_overflowing_norm(self):
        with pytest.raises(ValueError, match="norm overflows"):
            normalize_scale(np.array([1e200, 1e200]))

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


class TestLossConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=math.inf), "alpha"),
            (dict(alpha=math.nan), "alpha"),
            (dict(scale=-1.0), "scale"),
            (dict(scale=math.inf), "scale"),
            (dict(lambdas=(1.0, 1.0, 1.0)), "lambdas"),
            (dict(lambdas=(1.0, -0.1, 1.0, 1.0)), "lambdas"),
            (dict(lambdas=(1.0, math.nan, 1.0, 1.0)), "lambdas"),
            (dict(lambdas=(1.0, 1.0, math.inf, 1.0)), "lambdas"),
            (dict(dim=0), "dim"),
            (dict(dim=2.5), "dim"),
            (dict(dim=True), "dim"),
        ],
    )
    def test_rejects_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LossConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        assert LossConfig(dim=np.int64(8)).dim == 8


class TestEncode:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        enc = Encoder(rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6))
        cfg = LossConfig(dim=6)
        lat = rng.normal(0, 1, (7, 4))
        batch = encode_batch(lat, enc, cfg)
        for i in range(7):
            # A lone row, 1-D or (1, d), gives exactly the row of the batch.
            np.testing.assert_array_equal(encode_batch(lat[i], enc, cfg), batch[i])
            np.testing.assert_array_equal(encode_batch(lat[i:i + 1], enc, cfg), batch[i:i + 1])
            raw = enc.weights @ lat[i] + enc.bias
            np.testing.assert_allclose(batch[i], cfg.scale * raw / np.linalg.norm(raw),
                                       rtol=1e-14)

    def test_descriptor_norms(self):
        rng = np.random.default_rng(2)
        enc = Encoder(rng.normal(0, 1, (16, 8)), np.zeros(16))
        out = encode_batch(rng.normal(0, 1, (30, 8)), enc, LossConfig())
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 32.0, rtol=1e-12)

    def test_shape_errors(self):
        enc = Encoder(np.eye(4), np.zeros(4))
        with pytest.raises(ValueError, match="does not match"):
            encode_batch(np.zeros(5), enc, LossConfig(dim=4))
        with pytest.raises(ValueError, match="does not match"):
            encode_batch(np.zeros((3, 5)), enc, LossConfig(dim=4))

    def test_zero_output_rejected(self):
        enc = Encoder(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="zero vector"):
            encode_batch(np.ones(4), enc, LossConfig(dim=4))
        with pytest.raises(ValueError, match="zero vector"):
            encode_batch(np.ones((2, 4)), enc, LossConfig(dim=4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_rejects_non_finite(self, bad):
        cfg = LossConfig(dim=4)
        with pytest.raises(ValueError, match="latents must be finite"):
            encode_batch(np.array([bad, 1.0, 2.0, 3.0]), Encoder(np.eye(4), np.zeros(4)), cfg)
        weights = np.eye(4)
        weights[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            encode_batch(np.ones(4), Encoder(weights, np.zeros(4)), cfg)

    def test_encode_rejects_overflowing_norm(self):
        with pytest.raises(ValueError, match="norm overflows"):
            encode_batch(np.array([1e200, 1e200]), Encoder(np.eye(2), np.zeros(2)),
                         LossConfig(dim=2))

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

    def test_encode_batch_rejects_overflowing_norm(self):
        lat = np.array([[1.0, 2.0], [1e200, 1e200]])
        with pytest.raises(ValueError, match="norm overflows"):
            encode_batch(lat, Encoder(np.eye(2), np.zeros(2)), LossConfig(dim=2))


class TestBatchLoss:
    @pytest.mark.parametrize("n_b,k", [(2, 1), (2, 2), (3, 2), (4, 3), (5, 1)])
    def test_matches_brute_force_oracle(self, n_b, k):
        rng = np.random.default_rng(n_b * 100 + k)
        cfg = LossConfig(alpha=0.3, lambdas=(1.0, 0.7, 1.2, 0.9), dim=5)
        batch, g_enc, f_enc = random_setup(rng, n_b, k, 4, 5)
        loss, _ = batch_loss(batch, g_enc, f_enc, cfg)
        assert loss == pytest.approx(oracle_loss(batch, g_enc, f_enc, cfg), rel=1e-12)

    @pytest.mark.parametrize("n_b,k", [(2, 1), (2, 3), (3, 2), (4, 1), (5, 4), (10, 5)])
    def test_bit_identical_to_masked_reference(self, n_b, k):
        for seed in range(3):
            for lambdas in ((1.0, 1.0, 1.0, 1.0), (1.0, 0.7, 1.2, 0.9), (0.0, 0.7, 1.2, 0.0)):
                rng = np.random.default_rng([n_b, k, seed])
                cfg = LossConfig(alpha=0.3, lambdas=lambdas, dim=5)
                batch, g_enc, f_enc = random_setup(rng, n_b, k, 4, 5)
                loss, grads = batch_loss(batch, g_enc, f_enc, cfg)
                ref_loss, ref_grads = masked_batch_loss(batch, g_enc, f_enc, cfg)
                assert loss == ref_loss
                for got, want in zip((grads.g_weights, grads.g_bias, grads.f_weights,
                                      grads.f_bias), ref_grads):
                    np.testing.assert_array_equal(got, want)

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
        a, ga = batch_loss(batch, g_enc, f_enc, cfg)
        b, gb = batch_loss(swapped, f_enc, g_enc, cfg)
        assert a == pytest.approx(b, rel=1e-12)
        # Swapping the domains swaps the encoders' gradients.
        for mine, theirs in (("g_weights", "f_weights"), ("g_bias", "f_bias"),
                             ("f_weights", "g_weights"), ("f_bias", "g_bias")):
            np.testing.assert_allclose(getattr(ga, mine), getattr(gb, theirs),
                                       rtol=1e-12, atol=1e-15)

    def test_overflowing_norm_rejected(self):
        # A finite latent whose encoded norm overflows must not become a
        # zero descriptor that trains on silently.
        z = np.ones((2, 1, 2))
        z[1, 0] = 1e200
        batch = TrainBatch(np.arange(2), z, np.ones((2, 1, 2)))
        enc = Encoder(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="norm overflows"):
            batch_loss(batch, enc, enc, LossConfig(dim=2))

    @pytest.mark.parametrize(
        "n_b,k,lambdas",
        [
            (2, 1, (1.0, 0.7, 1.2, 0.9)),   # intra-domain families empty
            (3, 2, (1.0, 0.7, 1.2, 0.9)),
            (3, 2, (0.0, 0.7, 1.2, 0.0)),   # zero-weight families
            (2, 3, (1.0, 0.0, 0.0, 0.9)),
        ],
        ids=["n2-k1", "n3-k2", "n3-k2-zero-lambdas", "n2-k3-zero-lambdas"],
    )
    def test_gradients_match_finite_differences(self, n_b, k, lambdas):
        rng = np.random.default_rng(7)
        cfg = LossConfig(alpha=0.3, lambdas=lambdas, dim=5)
        batch, g_enc, f_enc = random_setup(rng, n_b, k, 4, 5)
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
        # Each view is the base plus gaussian noise of scale 0.1.
        v = WorldViews.from_graph(small_world, seed=3)
        base = small_world.latent_matrix()
        for view in (v.map_s1, v.map_s2, v.image):
            noise = view - base
            assert 0.08 < noise.std() < 0.12
            assert np.abs(noise).max() < 0.6

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
        batch = build_batch(views, [0, 3, 7], AugmentationConfig(), k=4,
                            rng=np.random.default_rng(2))
        assert batch.map_latents.shape == (3, 4, 16)
        assert batch.n_b == 3 and batch.k == 4
        np.testing.assert_array_equal(batch.location_ids, views.ids[[0, 3, 7]])

    def test_zero_jitter_fixed_scale_is_exact(self, views):
        # Without jitter every latent is exactly a view row: a map latent
        # one of the two tile scales, an image latent the image view.
        aug = AugmentationConfig(jitter_sigma=0.0)
        batch = build_batch(views, [1, 2], aug, k=3, rng=np.random.default_rng(2))
        for kk in range(3):
            for i, row in enumerate([1, 2]):
                got = batch.map_latents[i, kk]
                assert (got == views.map_s1[row]).all() or (got == views.map_s2[row]).all()
            np.testing.assert_array_equal(batch.image_latents[:, kk], views.image[[1, 2]])

    def test_s2_pick(self, views):
        # The first draw picks each map latent's tile scale, 1 meaning S2.
        pick = np.random.default_rng(2).integers(0, 2, size=(2, 4))
        aug = AugmentationConfig(jitter_sigma=0.0)
        batch = build_batch(views, [4, 6], aug, k=4, rng=np.random.default_rng(2))
        want = np.where(pick[..., None] == 1, views.map_s2[[4, 6]][:, None],
                        views.map_s1[[4, 6]][:, None])
        np.testing.assert_array_equal(batch.map_latents, want)

    def test_random_pick_mixes_scales(self, views):
        aug = AugmentationConfig(jitter_sigma=0.0)
        batch = build_batch(views, np.arange(10), aug, k=6, rng=np.random.default_rng(2))
        is_s1 = np.isclose(batch.map_latents, views.map_s1[np.arange(10)][:, None, :]).all(-1)
        assert 0 < is_s1.sum() < is_s1.size

    def test_aug_validation(self):
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="jitter_sigma"):
                AugmentationConfig(jitter_sigma=sigma)


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

    def test_overflowing_encoder_is_divergence(self, world):
        # A huge step leaves finite weights whose outputs overflow the norm.
        with pytest.raises(TrainingDiverged, match="overflows at epoch 0, step 1") as err:
            train_encoders(world, LossConfig(), AugmentationConfig(), epochs=1, lr=1e300, seed=1)
        assert "norm overflows" in str(err.value.__cause__)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(epochs=0), "epochs"),
        (dict(epochs=2.5), "epochs"),
        (dict(lr=float("nan")), "lr must be finite"),
        (dict(lr=float("inf")), "lr must be finite"),
        (dict(lr=-1.0), "lr must be finite and >= 0"),
        (dict(n_b=2.5), "n_b must be a whole number >= 2"),
        (dict(k=2.5), "k must be a whole number >= 1"),
        (dict(k=0), "k must be a whole number >= 1"),
    ])
    def test_bad_settings_rejected_before_training(self, world, kwargs, msg):
        with mock.patch.object(embedding, "batch_loss") as step:
            with pytest.raises(ValueError, match=msg):
                train_encoders(world, LossConfig(), AugmentationConfig(), **kwargs)
        step.assert_not_called()

    def test_validation(self, world):
        with pytest.raises(ValueError, match="epochs"):
            train_encoders(world, LossConfig(), AugmentationConfig(), epochs=0)
        with pytest.raises(ValueError, match="n_b"):
            train_encoders(world, LossConfig(), AugmentationConfig(), n_b=1)
        with pytest.raises(ValueError, match="training locations"):
            train_encoders(world, LossConfig(), AugmentationConfig(),
                           train_rows=np.arange(3), n_b=10)
