"""Cross-domain descriptor learning.

Two linear encoders map map-side and image-side latents into a shared
descriptor space.  Descriptors are L2-normalized and scaled to a fixed norm.
Training minimizes a weighted soft-margin ranking loss over four families of
triplet constraints built from all matched/unmatched pairs in a batch
(batch-all mining), with closed-form gradients through the normalization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .world import MapGraph

DEFAULT_ALPHA = 0.2
DEFAULT_SCALE = 32.0
DEFAULT_DIM = 16
DEFAULT_BATCH_LOCATIONS = 10
DEFAULT_AUGMENTATIONS = 5

_EPS = 1e-12


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient."""


# ----------------------------------------------------------------------
# descriptor primitives
# ----------------------------------------------------------------------


def normalize_scale(v, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Project v onto the sphere of radius ``scale``: scale * v / ||v||.

    Rejects zero or non-finite vectors and non-positive scales.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("cannot normalize a non-finite vector")
    norm = float(np.linalg.norm(v))
    if norm <= _EPS:
        raise ValueError("cannot normalize a zero vector")
    return (scale / norm) * v


def soft_margin_loss(d, alpha: float = DEFAULT_ALPHA):
    """Weighted soft-margin ranking loss ln(1 + exp(alpha * d)).

    Evaluated as max(z, 0) + log1p(exp(-|z|)) with z = alpha * d, which is
    finite and monotone over the whole float range (no overflow for large
    positive z, no NaN for large negative z).  Accepts scalars or arrays.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    z = alpha * np.asarray(d, dtype=np.float64)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(out) if out.ndim == 0 else out


def soft_margin_grad(d, alpha: float = DEFAULT_ALPHA):
    """Derivative of soft_margin_loss with respect to d: alpha * sigmoid(alpha*d)."""
    z = alpha * np.asarray(d, dtype=np.float64)
    out = alpha * _sigmoid(z).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def _sigmoid(z):
    # Stable logistic: exp of a non-positive argument only.
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if len(self.lambdas) != 4 or any(l < 0 for l in self.lambdas):
            raise ValueError(f"lambdas must be 4 non-negative weights, got {self.lambdas}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class AugmentationConfig:
    """Batch augmentation: additive jitter plus the map tile-scale pick rule."""

    jitter_sigma: float = 0.05
    scale_pick: str = "random"  # "random" | "s1" | "s2"
    seed: int = 0

    def __post_init__(self):
        if self.jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")
        if self.scale_pick not in ("random", "s1", "s2"):
            raise ValueError(f"unknown scale_pick rule {self.scale_pick!r}")


@dataclass
class Encoder:
    """Linear encoder: latent -> weights @ latent + bias, then normalize_scale."""

    weights: np.ndarray  # (dim, latent_dim)
    bias: np.ndarray     # (dim,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("encoder weights must be (dim, latent_dim) with bias (dim,)")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.weights.shape[1]


def encode(latent, enc: Encoder, cfg: LossConfig) -> np.ndarray:
    """Descriptor for one latent vector: normalized, scaled encoder output."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.shape != (enc.latent_dim,):
        raise ValueError(
            f"latent shape {latent.shape} does not match encoder input ({enc.latent_dim},)"
        )
    if not np.isfinite(latent).all():
        raise ValueError("latent must be finite")
    return normalize_scale(enc.weights @ latent + enc.bias, cfg.scale)


def encode_batch(latents, enc: Encoder, cfg: LossConfig) -> np.ndarray:
    """Descriptors for a stack of latents, shape (..., latent_dim) -> (..., dim)."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape[-1] != enc.latent_dim:
        raise ValueError(
            f"latent dim {latents.shape[-1]} does not match encoder input {enc.latent_dim}"
        )
    if not np.isfinite(latents).all():
        raise ValueError("latents must be finite")
    raw = latents @ enc.weights.T + enc.bias
    if not np.isfinite(raw).all():
        raise ValueError("encoder produced a non-finite vector; cannot normalize")
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.any(norms <= _EPS):
        raise ValueError("encoder produced a zero vector; cannot normalize")
    return cfg.scale * raw / norms


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
    def from_graph(cls, g: MapGraph, seed: int = 0, scale_sigma: float = 0.1,
                   view_sigma: float = 0.1, rotate_image: bool = False) -> "WorldViews":
        """Derive views from graph latents.

        ``rotate_image=True`` passes the image domain through a fixed random
        rotation of latent space before adding view noise, which makes the
        cross-domain alignment a genuine learning problem.
        """
        base = g.latent_matrix()
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 101]))
        map_s1 = base + scale_sigma * rng.standard_normal(base.shape)
        map_s2 = base + scale_sigma * rng.standard_normal(base.shape)
        img = base
        if rotate_image:
            d = base.shape[1]
            a = rng.standard_normal((d, d))
            q, r = np.linalg.qr(a)
            img = base @ (q * np.sign(np.diag(r))).T
        image = img + view_sigma * rng.standard_normal(base.shape)
        return cls(ids=g.id_array.copy(), map_s1=map_s1, map_s2=map_s2, image=image)

    @property
    def latent_dim(self) -> int:
        return self.map_s1.shape[1]

    def rows_of(self, loc_ids) -> np.ndarray:
        ids = np.asarray(loc_ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, ids)
        if np.any(rows >= len(self.ids)) or np.any(self.ids[rows] != ids):
            raise ValueError("unknown location id in views lookup")
        return rows


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
                k: int = DEFAULT_AUGMENTATIONS, rng=None) -> TrainBatch:
    """Assemble a batch from view rows: tile-scale pick plus additive jitter."""
    if rng is None:
        rng = np.random.default_rng(aug.seed)
    rows = np.asarray(rows, dtype=np.int64)
    n_b, d = len(rows), views.latent_dim
    if aug.scale_pick == "random":
        pick = rng.integers(0, 2, size=(n_b, k))
    else:
        pick = np.full((n_b, k), 0 if aug.scale_pick == "s1" else 1)
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
    """
    zx, zy = batch.map_latents, batch.image_latents
    x, x_norms = _forward(zx, g_enc, cfg)
    y, y_norms = _forward(zy, f_enc, cfg)

    l1, l2, l3, l4 = cfg.lambdas
    families = (
        (l1, _family_terms(x, y, cfg.alpha, intra=False), "xy"),
        (l2, _family_terms(y, x, cfg.alpha, intra=False), "yx"),
        (l3, _family_terms(x, x, cfg.alpha, intra=True), "xx"),
        (l4, _family_terms(y, y, cfg.alpha, intra=True), "yy"),
    )
    active = sum(1 for _, (_, count, _, _), _ in families if count > 0)
    if active == 0:
        raise ValueError("batch produced no triplets")

    loss = 0.0
    gx = np.zeros_like(x)
    gy = np.zeros_like(y)
    for lam, (lsum, count, ga, gb), kind in families:
        if count == 0:
            continue
        w = lam / (count * active)
        loss += w * lsum
        if kind == "xy":
            gx += w * ga
            gy += w * gb
        elif kind == "yx":
            gy += w * ga
            gx += w * gb
        elif kind == "xx":
            gx += w * (ga + gb)
        else:
            gy += w * (ga + gb)

    gw_g, gb_g = _backward(gx, x, x_norms, zx, cfg.scale)
    gw_f, gb_f = _backward(gy, y, y_norms, zy, cfg.scale)
    return float(loss), BatchGradients(gw_g, gb_g, gw_f, gb_f)


def _forward(latents, enc, cfg):
    raw = latents @ enc.weights.T + enc.bias
    norms = np.linalg.norm(raw, axis=-1)
    if np.any(norms <= _EPS):
        raise ValueError("encoder produced a zero vector; cannot normalize")
    return cfg.scale * raw / norms[..., None], norms


def _backward(g_emb, emb, norms, latents, scale):
    # Through e = scale * u/||u||:  dL/du = (scale/||u||) (g - uhat (uhat . g))
    uhat = emb / scale
    proj = (uhat * g_emb).sum(axis=-1, keepdims=True)
    du = (scale / norms[..., None]) * (g_emb - uhat * proj)
    du_flat = du.reshape(-1, du.shape[-1])
    gw = du_flat.T @ latents.reshape(-1, latents.shape[-1])
    gb = du_flat.sum(axis=0)
    return gw, gb


def _family_terms(a_emb, b_emb, alpha, intra):
    """Loss sum, triplet count, and embedding gradients for one family.

    ``a_emb`` supplies anchors, ``b_emb`` positives and negatives; positives
    share the anchor's location, negatives come from other locations.  With
    ``intra`` the positive must use a different augmentation (k != l).
    Returned gradients carry the per-triplet soft-margin weights but not the
    lambda / count normalization.
    """
    n, k, _ = a_emb.shape
    diff = a_emb[:, :, None, None, :] - b_emb[None, None, :, :, :]   # (n,k,n,k,D)
    dist = np.sqrt(np.maximum((diff * diff).sum(-1), 0.0))           # (n,k,n,k)
    ar = np.arange(n)
    pos = dist[ar, :, ar, :]                                         # (n,k,k): d(a_ik, b_il)
    z = pos[:, :, :, None, None] - dist[:, :, None, :, :]            # (n,k,l,j,m)
    valid = np.broadcast_to(~np.eye(n, dtype=bool)[:, None, None, :, None], z.shape).copy()
    if intra:
        valid &= ~np.eye(k, dtype=bool)[None, :, :, None, None]
    count = int(valid.sum())
    if count == 0:
        return 0.0, 0, np.zeros_like(a_emb), np.zeros_like(b_emb)

    zv = np.where(valid, z, 0.0)
    loss_sum = float(np.where(valid, soft_margin_loss(zv, alpha), 0.0).sum())
    w = np.where(valid, soft_margin_grad(zv, alpha), 0.0)

    g_pos = w.sum(axis=(3, 4))       # (n,k,l): dL/d pos distance
    g_neg = -w.sum(axis=2)           # (n,k,j,m): dL/d neg distance

    unit = diff / np.maximum(dist[..., None], _EPS)
    unit_pos = unit[ar, :, ar, :, :]                                 # (n,k,l,D)
    ga = np.einsum("ikl,ikld->ikd", g_pos, unit_pos)
    gb = -np.einsum("ikl,ikld->ild", g_pos, unit_pos)
    ga += np.einsum("ikjm,ikjmd->ikd", g_neg, unit)
    gb -= np.einsum("ikjm,ikjmd->jmd", g_neg, unit)
    return loss_sum, count, ga, gb


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


def train_encoders(g: MapGraph, cfg: LossConfig, aug: AugmentationConfig,
                   epochs: int = 10, lr: float = 0.2, seed: int = 0, *,
                   n_b: int = DEFAULT_BATCH_LOCATIONS, k: int = DEFAULT_AUGMENTATIONS,
                   views: WorldViews | None = None, train_rows=None,
                   return_history: bool = False):
    """Train map-side and image-side encoders with plain fixed-rate SGD.

    Each epoch replays the same deterministic batch schedule (shuffle and
    augmentation draws are reseeded per epoch), so runs are reproducible and
    a zero learning rate leaves both the encoders and the per-epoch loss
    unchanged.  Raises TrainingDiverged on a non-finite loss.

    Returns (g_enc, f_enc), or (g_enc, f_enc, epoch_losses) when
    ``return_history`` is set.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if n_b < 2:
        raise ValueError(f"n_b must be >= 2, got {n_b}")
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
        erng = np.random.default_rng(np.random.SeedSequence([int(seed), int(aug.seed), 1]))
        perm = erng.permutation(len(rows))
        losses = []
        for start in range(0, len(perm) - n_b + 1, n_b):
            chunk = rows[perm[start:start + n_b]]
            batch = build_batch(views, chunk, aug, k=k, rng=erng)
            loss, grads = batch_loss(batch, g_enc, f_enc, cfg)
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
