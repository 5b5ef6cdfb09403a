"""Cross-domain descriptor learning.

Two linear encoders map map-side and image-side latents into a shared
descriptor space.  Descriptors are L2-normalized and scaled to a fixed norm.
Training minimizes a weighted soft-margin ranking loss over four families of
triplet constraints built from all matched/unmatched pairs in a batch
(batch-all mining).  The families are blocks of one pairwise distance table
over both domains, with closed-form gradients through the table and the
normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .world import MapGraph, check_whole, rows_in

DEFAULT_ALPHA = 0.2
DEFAULT_SCALE = 32.0
DEFAULT_DIM = 16
DEFAULT_BATCH_LOCATIONS = 10
DEFAULT_AUGMENTATIONS = 5
# Scale of the gaussian noise that sets each view apart from the graph latents.
VIEW_SIGMA = 0.1

_EPS = 1e-12


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient."""


class _NormOverflow(ValueError):
    """Raised when a vector's norm overflows, so it cannot be normalized."""


# ----------------------------------------------------------------------
# descriptor primitives
# ----------------------------------------------------------------------


def normalize_scale(v, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Project v onto the sphere of radius ``scale``: scale * v / ||v||.

    The one-vector case of the normalization ``encode_batch`` applies.
    Rejects zero or non-finite vectors, vectors whose norm overflows, and
    non-positive scales.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("cannot normalize a non-finite vector")
    return _normalized(v, scale)[0]


def soft_margin_loss(d, alpha: float = DEFAULT_ALPHA):
    """Weighted soft-margin ranking loss ln(1 + exp(alpha * d)).

    Evaluated as max(z, 0) + log1p(exp(-|z|)) with z = alpha * d, which is
    finite and monotone over the whole float range (no overflow for large
    positive z, no NaN for large negative z).  Accepts scalars or arrays.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    out = _soft_margin(np.asarray(d, dtype=np.float64), alpha)[0]
    return float(out) if out.ndim == 0 else out


def _soft_margin(d, alpha):
    """soft_margin_loss of d and its slope alpha * sigmoid(alpha * d), from one exp.

    Both are exactly 0.0 at d = -inf, which is how ``batch_loss`` excludes
    a triplet.
    """
    z = alpha * d
    t = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(t), alpha * (np.where(z >= 0, 1.0, t) / (1.0 + t))


def pair_counts(n_b: int, k: int) -> tuple[int, int]:
    """Matched and unmatched cross-domain pair counts for a batch.

    A batch of ``n_b`` locations with ``k`` augmentations per domain yields
    n_b*k^2 matched and n_b*(n_b-1)*k^2 unmatched pairs; together they cover
    all (n_b*k)^2 cross-domain pairs.
    """
    if n_b < 1 or k < 1:
        raise ValueError(f"n_b and k must be positive, got ({n_b}, {k})")
    matched = n_b * k * k
    unmatched = n_b * (n_b - 1) * k * k
    return matched, unmatched


# ----------------------------------------------------------------------
# configuration and encoders
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters: alpha, per-family lambda weights, descriptor scale/dim."""

    alpha: float = DEFAULT_ALPHA
    lambdas: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    scale: float = DEFAULT_SCALE
    dim: int = DEFAULT_DIM

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if len(self.lambdas) != 4 or not all(0 <= l < math.inf for l in self.lambdas):
            raise ValueError(f"lambdas must be 4 finite non-negative weights, got {self.lambdas}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        check_whole("dim", self.dim, 1)


@dataclass(frozen=True)
class AugmentationConfig:
    """Batch augmentation: additive jitter on each drawn latent."""

    jitter_sigma: float = 0.05

    def __post_init__(self):
        if not 0 <= self.jitter_sigma < math.inf:
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")


@dataclass
class Encoder:
    """Linear encoder: latent -> weights @ latent + bias, scaled onto the sphere by encode_batch."""

    weights: np.ndarray  # (dim, latent_dim)
    bias: np.ndarray     # (dim,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("encoder weights must be (dim, latent_dim) with bias (dim,)")

    @property
    def latent_dim(self) -> int:
        return self.weights.shape[1]


def encode_batch(latents, enc: Encoder, cfg: LossConfig) -> np.ndarray:
    """Descriptors for a stack of latents, shape (..., latent_dim) -> (..., dim)."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape[-1] != enc.latent_dim:
        raise ValueError(
            f"latent dim {latents.shape[-1]} does not match encoder input {enc.latent_dim}"
        )
    if not np.isfinite(latents).all():
        raise ValueError("latents must be finite")
    if latents.size == enc.latent_dim:
        # numpy multiplies a lone row on another BLAS path than a batch, whose
        # last bits differ; as two rows it takes the batch's path.
        raw = (np.tile(latents.reshape(1, -1), (2, 1)) @ enc.weights.T)[0]
        raw = raw.reshape(*latents.shape[:-1], -1) + enc.bias
    else:
        raw = latents @ enc.weights.T + enc.bias
    if not np.isfinite(raw).all():
        raise ValueError("encoder produced a non-finite vector; cannot normalize")
    return _normalized(raw, cfg.scale)[0]


# ----------------------------------------------------------------------
# world views: per-location reference latents for the two domains
# ----------------------------------------------------------------------


@dataclass
class WorldViews:
    """Reference latents per location: two map tile scales and the image side.

    Derived deterministically from the graph latents and a seed, so every
    component that builds on the same (graph, seed) sees consistent views.
    """

    ids: np.ndarray      # (N,) ascending location ids
    map_s1: np.ndarray   # (N, d) map-side latents, small tile scale
    map_s2: np.ndarray   # (N, d) map-side latents, large tile scale
    image: np.ndarray    # (N, d) image-side latents

    @classmethod
    def from_graph(cls, g: MapGraph, seed: int = 0) -> "WorldViews":
        """Derive views from graph latents: each adds gaussian noise of scale ``VIEW_SIGMA``."""
        base = g.latent_matrix()
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 101]))
        map_s1, map_s2, image = (base + VIEW_SIGMA * rng.standard_normal(base.shape)
                                 for _ in range(3))
        return cls(ids=g.id_array.copy(), map_s1=map_s1, map_s2=map_s2, image=image)

    @property
    def latent_dim(self) -> int:
        return self.map_s1.shape[1]

    def rows_of(self, loc_ids) -> np.ndarray:
        return rows_in(self.ids, loc_ids, ValueError)


@dataclass
class TrainBatch:
    """One training batch: n_b locations, k augmented latents per domain each."""

    location_ids: np.ndarray   # (n_b,)
    map_latents: np.ndarray    # (n_b, k, d)
    image_latents: np.ndarray  # (n_b, k, d)

    def __post_init__(self):
        self.map_latents = np.asarray(self.map_latents, dtype=np.float64)
        self.image_latents = np.asarray(self.image_latents, dtype=np.float64)
        if self.map_latents.shape != self.image_latents.shape or self.map_latents.ndim != 3:
            raise ValueError("map and image latents must share shape (n_b, k, d)")
        if self.n_b < 2:
            raise ValueError(f"batch needs at least 2 locations, got {self.n_b}")
        if self.k < 1:
            raise ValueError("batch needs at least 1 augmentation per location")

    @property
    def n_b(self) -> int:
        return self.map_latents.shape[0]

    @property
    def k(self) -> int:
        return self.map_latents.shape[1]


def build_batch(views: WorldViews, rows, aug: AugmentationConfig,
                k: int = DEFAULT_AUGMENTATIONS, *, rng) -> TrainBatch:
    """Assemble a batch from view rows: a random tile scale plus additive jitter.

    Each map-side latent is drawn from the S1 or the S2 tile with equal
    odds (``rng``'s first draw, 1 meaning S2), then every latent is jittered.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n_b, d = len(rows), views.latent_dim
    pick = rng.integers(0, 2, size=(n_b, k))
    s1 = views.map_s1[rows][:, None, :]
    s2 = views.map_s2[rows][:, None, :]
    base_map = np.where(pick[..., None] == 0, s1, s2)
    map_lat = base_map + aug.jitter_sigma * rng.standard_normal((n_b, k, d))
    img_lat = views.image[rows][:, None, :] + aug.jitter_sigma * rng.standard_normal((n_b, k, d))
    return TrainBatch(location_ids=views.ids[rows], map_latents=map_lat, image_latents=img_lat)


# ----------------------------------------------------------------------
# batch loss with analytic gradients
# ----------------------------------------------------------------------


@dataclass
class BatchGradients:
    """Parameter gradients for both encoders from one batch."""

    g_weights: np.ndarray
    g_bias: np.ndarray
    f_weights: np.ndarray
    f_bias: np.ndarray


def batch_loss(batch: TrainBatch, g_enc: Encoder, f_enc: Encoder,
               cfg: LossConfig) -> tuple[float, BatchGradients]:
    """Loss and analytic gradients for one batch.

    Four triplet families are formed by batch-all mining over locations
    i != j and augmentations k, l, m (anchor, positive, negative):

      1. (x_ik, y_il, y_jm)            cross-domain, map anchors
      2. (y_ik, x_il, x_jm)            cross-domain, image anchors
      3. (x_ik, x_il, x_jm), k != l    intra-domain, map
      4. (y_ik, y_il, y_jm), k != l    intra-domain, image

    where x/y are the scaled-normalized descriptors of the batch latents and
    each triplet contributes soft_margin_loss(d(anchor,pos) - d(anchor,neg)).
    Each family is averaged over its own triplet count, weighted by its
    lambda, and the result is the mean over families that contain at least
    one triplet (with k = 1 the intra-domain families are empty and drop
    out, so a batch of coinciding embeddings always yields ln 2).

    The families are blocks of one distance table over the stacked
    descriptors [x; y].  Each family's terms span every (i, k, l, j, m);
    an excluded one gets a negative at distance +inf (j = i) or, within a
    domain, a positive at -inf (l = k), so its difference is -inf and its
    loss and slope are exactly 0.0.  The slopes fill one table of loss
    derivatives by distance, which one formula turns into descriptor
    gradients (none for a pair of coinciding descriptors).
    """
    zx, zy = batch.map_latents, batch.image_latents
    x, x_norms = _forward(zx, g_enc, cfg)
    y, y_norms = _forward(zy, f_enc, cfg)
    n, k, dim = x.shape
    # Rows ordered (domain, location, augmentation); domain 0 is x, 1 is y.
    e = np.concatenate([x, y]).reshape(2 * n * k, dim)
    dist = cdist(e, e)
    # With k = 1 the intra-domain families, the last two, have no triplets.
    active = 4 if k > 1 else 2

    loss = 0.0
    # grad[a, i, k, b, j, m]: dL/d dist between descriptor (a, i, k) and (b, j, m).
    grad = np.zeros((2, n, k, 2, n, k))
    dist6 = dist.reshape(grad.shape)
    ar, ak = np.arange(n), np.arange(k)
    for (a, b), lam in zip(((0, 1), (1, 0), (0, 0), (1, 1))[:active], cfg.lambdas):
        d = dist6[a, :, :, b].copy()
        pos = d[ar, :, ar, :]       # pos[i, k, l]: anchor (i, k) to positive (i, l)
        d[ar, :, ar, :] = np.inf    # no negative shares the anchor's location
        if a == b:
            pos[:, ak, ak] = -np.inf
        loss_t, slope = _soft_margin(pos[..., None, None] - d[:, :, None], cfg.alpha)
        w = lam / (n * k * (k - (a == b)) * (n - 1) * k * active)
        loss += w * float(loss_t.sum())
        wz = w * slope
        block = grad[a, :, :, b]
        block[ar, :, ar, :] += wz.sum(axis=(3, 4))
        block -= wz.sum(axis=2)

    # dist[p, q] pulls e_p along (e_p - e_q) / dist[p, q] and e_q the opposite
    # way; s = c + c.T gathers both orders, so grad_e[p] = sum_q s[p, q] (e_p - e_q).
    c = np.divide(grad.reshape(dist.shape), dist, out=np.zeros_like(dist), where=dist > _EPS)
    s = c + c.T
    g_emb = (s.sum(axis=1)[:, None] * e - s @ e).reshape(2, n, k, dim)
    gw_g, gb_g = _backward(g_emb[0], x, x_norms, zx, cfg.scale)
    gw_f, gb_f = _backward(g_emb[1], y, y_norms, zy, cfg.scale)
    return float(loss), BatchGradients(gw_g, gb_g, gw_f, gb_f)


def _normalized(raw, scale):
    """scale * raw / ||raw|| on the last axis, and the norms; NaN passes through."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.isinf(norms).any():
        raise _NormOverflow("cannot normalize a vector whose norm overflows")
    if np.any(norms <= _EPS):
        raise ValueError("cannot normalize a zero vector")
    return scale * raw / norms, norms


def _forward(latents, enc, cfg):
    return _normalized(latents @ enc.weights.T + enc.bias, cfg.scale)


def _backward(g_emb, emb, norms, latents, scale):
    # Through e = scale * u/||u||:  dL/du = (scale/||u||) (g - uhat (uhat . g))
    uhat = emb / scale
    proj = (uhat * g_emb).sum(axis=-1, keepdims=True)
    du = (scale / norms) * (g_emb - uhat * proj)
    du_flat = du.reshape(-1, du.shape[-1])
    gw = du_flat.T @ latents.reshape(-1, latents.shape[-1])
    gb = du_flat.sum(axis=0)
    return gw, gb


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


def check_schedule(epochs, lr) -> None:
    """Raise ValueError unless ``epochs`` is a whole number >= 1 and ``lr`` finite and >= 0."""
    check_whole("epochs", epochs, 1)
    if not 0.0 <= lr < math.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")


def train_encoders(g: MapGraph, cfg: LossConfig, aug: AugmentationConfig,
                   epochs: int = 10, lr: float = 0.2, seed: int = 0, *,
                   n_b: int = DEFAULT_BATCH_LOCATIONS, k: int = DEFAULT_AUGMENTATIONS,
                   views: WorldViews | None = None, train_rows=None,
                   return_history: bool = False):
    """Train map-side and image-side encoders with plain fixed-rate SGD.

    Each epoch replays the same deterministic batch schedule (shuffle and
    augmentation draws are reseeded per epoch), so runs are reproducible and
    a zero learning rate leaves both the encoders and the per-epoch loss
    unchanged.  Raises TrainingDiverged on a non-finite loss, or when an
    encoder's output grows past the float range.

    Returns (g_enc, f_enc), or (g_enc, f_enc, epoch_losses) when
    ``return_history`` is set.
    """
    check_schedule(epochs, lr)
    check_whole("n_b", n_b, 2)
    check_whole("k", k, 1)
    if views is None:
        views = WorldViews.from_graph(g)
    rows = np.arange(len(views.ids)) if train_rows is None else np.asarray(train_rows)
    if len(rows) < n_b:
        raise ValueError(f"need at least n_b={n_b} training locations, got {len(rows)}")

    d = views.latent_dim
    init_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    g_enc = Encoder(init_rng.normal(0.0, 1.0 / np.sqrt(d), (cfg.dim, d)), np.zeros(cfg.dim))
    f_enc = Encoder(init_rng.normal(0.0, 1.0 / np.sqrt(d), (cfg.dim, d)), np.zeros(cfg.dim))

    history = []
    for _ in range(epochs):
        erng = np.random.default_rng(np.random.SeedSequence([int(seed), 0, 1]))
        perm = erng.permutation(len(rows))
        losses = []
        for start in range(0, len(perm) - n_b + 1, n_b):
            chunk = rows[perm[start:start + n_b]]
            batch = build_batch(views, chunk, aug, k=k, rng=erng)
            try:
                loss, grads = batch_loss(batch, g_enc, f_enc, cfg)
            except _NormOverflow as exc:
                raise TrainingDiverged(
                    f"encoder output overflows at epoch {len(history)}, step {len(losses)}"
                ) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {len(history)}, step {len(losses)}"
                )
            g_enc.weights -= lr * grads.g_weights
            g_enc.bias -= lr * grads.g_bias
            f_enc.weights -= lr * grads.f_weights
            f_enc.bias -= lr * grads.f_bias
            losses.append(loss)
        history.append(float(np.mean(losses)))
    if return_history:
        return g_enc, f_enc, history
    return g_enc, f_enc
