"""Experiment harness: route simulation, accuracy sweeps and report files.

An experiment simulates ground-truth routes on a world, localizes each one
incrementally with a chosen method, and records top-1/top-5 success per
route-prefix length.  Success means the estimate agrees with the truth on
the last ``success_window`` locations.  Methods:

  ES      descriptor search over trained embeddings
  ES+T    descriptor search with turn filtering
  BSD     binary semantic descriptor matching (Hamming)
  BSD+T   BSD with turn filtering
  T-only  turn-pattern matching alone

Reports serialize as CSV (length, top1, top5) plus a JSON metadata sidecar
carrying the config echo and the per-length sets of localized route indices.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import BsdNoise, hamming_cost_vector, map_code_matrix, simulate_query_codes
from .embedding import (
    DEFAULT_EPOCHS,
    DEFAULT_LR,
    AugmentationConfig,
    Encoder,
    LossConfig,
    WorldViews,
    check_schedule,
    encode_batch,
    train_encoders,
)
from .localizer import LocalizerConfig, advance_candidates, check_success, start_candidates
from .store import DescriptorStore, StoreFormatError
from .synth import SyntheticWorldConfig, generate_synthetic_world
from .world import MapGraph, check_whole, load_graph, turn_pattern, write_csv

METHODS = ("ES", "ES+T", "BSD", "BSD+T", "T-only")
EMBEDDING_METHODS = ("ES", "ES+T")

DEFAULT_EXCLUSIONS = ("tunnel", "motorway")

# Candidates a chunk of routes searched in lockstep aims to hold at once:
# each chunk takes max(1, _LOCKSTEP_CANDIDATES // w) routes, where w is the
# largest frontier per route the sweep has seen so far (the first chunk is
# one route).
_LOCKSTEP_CANDIDATES = 1 << 14


class SimulationError(RuntimeError):
    """Raised when route simulation cannot reach the requested count."""


@dataclass
class TrainParams:
    """Encoder training knobs used when a method needs embeddings."""

    epochs: int = DEFAULT_EPOCHS
    lr: float = DEFAULT_LR

    def __post_init__(self):
        check_schedule(self.epochs, self.lr)


@dataclass
class NoiseParams:
    """Query-side noise: latent perturbation and BSD bit flips.

    Latent noise is per-route heteroscedastic: every query location gets
    gaussian noise of scale ``sigma``, and with probability ``outlier_prob``
    a whole route is a degraded capture whose scale is multiplied by
    ``outlier_scale``.  The default (outlier_prob 0) is plain homoscedastic
    noise.
    """

    sigma: float = 0.0
    bsd: BsdNoise = field(default_factory=BsdNoise)
    outlier_prob: float = 0.0
    outlier_scale: float = 20.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError(f"outlier_prob must be in [0, 1], got {self.outlier_prob}")
        if not 1.0 <= self.outlier_scale < math.inf:
            raise ValueError(f"outlier_scale must be finite and >= 1, got {self.outlier_scale}")


@dataclass
class ExperimentConfig:
    """Full description of one accuracy sweep."""

    world: SyntheticWorldConfig | str
    method: str = "ES"
    route_count: int = 500
    max_length: int = 20
    success_window: int = 5
    noise: NoiseParams = field(default_factory=NoiseParams)
    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    train: TrainParams = field(default_factory=TrainParams)
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        check_whole("route_count", self.route_count, 1)
        check_whole("success_window", self.success_window, 1)
        check_whole("max_length", self.max_length, 1)
        check_whole("seed", self.seed, 0)
        if self.max_length < self.success_window:
            raise ValueError(
                f"max_length {self.max_length} must be >= success_window {self.success_window}"
            )


@dataclass
class AccuracyReport:
    """Per-length localization accuracy plus the sets of localized routes."""

    method: str
    lengths: list
    top1: dict
    top5: dict
    localized_top1: dict  # length -> frozenset of route indices
    localized_top5: dict
    meta: dict = field(default_factory=dict)

    def localized(self, length: int, k: int = 1) -> frozenset:
        if k not in (1, 5):
            raise ValueError(f"k must be 1 or 5, got {k}")
        table = self.localized_top1 if k == 1 else self.localized_top5
        if length not in table:
            raise ValueError(f"length {length} is not in the {self.method} report, "
                             f"which holds lengths {self.lengths}")
        return table[length]

    def write_csv(self, path) -> None:
        write_csv(path, ["length", "top1", "top5"],
                  ([m, "%.17g" % self.top1[m], "%.17g" % self.top5[m]] for m in self.lengths))

    def write_meta(self, path) -> None:
        payload = {
            "method": self.method,
            "lengths": self.lengths,
            "top1": {str(m): self.top1[m] for m in self.lengths},
            "top5": {str(m): self.top5[m] for m in self.lengths},
            "localized_top1": {str(m): sorted(self.localized_top1[m]) for m in self.lengths},
            "localized_top5": {str(m): sorted(self.localized_top5[m]) for m in self.lengths},
            "meta": self.meta,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @classmethod
    def read_meta(cls, path) -> "AccuracyReport":
        """Read a ``write_meta`` file; StoreFormatError naming ``path`` if it is not one."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            payload = json.loads(text)
            lengths = [int(m) for m in payload["lengths"]]
            return cls(
                method=payload["method"],
                lengths=lengths,
                top1={m: float(payload["top1"][str(m)]) for m in lengths},
                top5={m: float(payload["top5"][str(m)]) for m in lengths},
                localized_top1={m: frozenset(payload["localized_top1"][str(m)]) for m in lengths},
                localized_top5={m: frozenset(payload["localized_top5"][str(m)]) for m in lengths},
                meta=payload.get("meta", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"{path}: not a sweep report: {exc}") from None


def difference_score(set_a, set_b) -> float:
    """Fraction of set_a missing from set_b: |a \\ b| / |a|.  Rejects empty a."""
    a, b = frozenset(set_a), frozenset(set_b)
    if not a:
        raise ValueError("difference score is undefined for an empty first set")
    return len(a - b) / len(a)


def simulate_routes(g: MapGraph, count: int = ExperimentConfig.route_count,
                    max_length: int = ExperimentConfig.max_length, seed: int = 0) -> list:
    """Sample ground-truth routes by seeded random walk.

    Walks start uniformly over the locations free of ``DEFAULT_EXCLUSIONS``
    and extend uniformly over legal next locations; walks that dead-end
    before ``max_length`` are discarded and retried.  Raises SimulationError with a diagnostic when
    the attempt budget (200 per requested route) runs out.
    """
    if count < 1 or max_length < 1:
        raise ValueError(f"count and max_length must be positive, got ({count}, {max_length})")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    allowed_ids = g.id_array[g.allowed_mask(DEFAULT_EXCLUSIONS)].tolist()
    if not allowed_ids:
        raise SimulationError("no locations remain after applying exclusions")
    allowed = set(allowed_ids)
    routes = []
    budget = count * 200
    attempts = 0
    while len(routes) < count:
        if attempts >= budget:
            raise SimulationError(
                f"exhausted {budget} attempts while simulating routes "
                f"({len(routes)}/{count} found; max_length={max_length} may be "
                f"unreachable under exclusions {sorted(DEFAULT_EXCLUSIONS)})"
            )
        attempts += 1
        start = allowed_ids[int(rng.integers(len(allowed_ids)))]
        path = [start]
        visited = {start}
        while len(path) < max_length:
            options = [nb for nb in g.neighbors_of(path[-1])
                       if nb in allowed and nb not in visited]
            if not options:
                break
            nxt = options[int(rng.integers(len(options)))]
            path.append(nxt)
            visited.add(nxt)
        if len(path) == max_length:
            routes.append(tuple(path))
    return routes


def train_sweep_encoders(cfg: ExperimentConfig, g: MapGraph,
                         views: WorldViews | None = None) -> tuple[Encoder, Encoder]:
    """The (g_enc, f_enc) of ``cfg``'s embedding method; missing views follow ``cfg.seed``."""
    return train_encoders(g, LossConfig(), AugmentationConfig(), epochs=cfg.train.epochs,
                          lr=cfg.train.lr, seed=cfg.seed, views=views)


def run_experiment(cfg: ExperimentConfig, *, graph: MapGraph | None = None,
                   views: WorldViews | None = None,
                   encoders: tuple[Encoder, Encoder] | None = None) -> AccuracyReport:
    """Run one accuracy sweep and aggregate per-length results.

    ``graph``, ``views`` and ``encoders`` may be supplied to reuse expensive
    artifacts across experiments; anything missing is built from the config
    (views from ``cfg.seed``, and encoders by ``train_sweep_encoders``, only
    for embedding-based methods).

    Routes are searched in chunks: one candidate set advances a chunk's
    routes in lockstep to ``max_length``, then each route of the chunk is
    scored in turn at every length.  The first chunk is one route; later
    ones are sized from the largest frontier per route seen so far (see
    ``_LOCKSTEP_CANDIDATES``).  Chunking changes no result.

    ``meta["stage_s"]`` splits the run into consecutive stages, in seconds:
    ``world`` (generating or loading the graph), ``views``, ``training``,
    ``costs`` (the map store, route and query simulation, query encoding
    and each step's cost table), ``search`` (starting and advancing the
    candidate sets) and ``scoring`` (top-5 and success checks).  A skipped
    stage reads 0.0; the stages add up to at most ``meta["runtime_s"]``.
    """
    stage_s = dict.fromkeys(("world", "views", "training", "costs", "search", "scoring"), 0.0)
    t_start = t_last = time.perf_counter()

    def lap(stage):
        """Charge the time since the previous lap to ``stage``."""
        nonlocal t_last
        now = time.perf_counter()
        stage_s[stage] += now - t_last
        t_last = now

    if graph is None:
        if isinstance(cfg.world, SyntheticWorldConfig):
            graph = generate_synthetic_world(cfg.world)
        else:
            graph = load_graph(cfg.world)
        lap("world")
    g = graph

    use_embeddings = cfg.method in EMBEDDING_METHODS
    use_bsd = cfg.method in ("BSD", "BSD+T")
    with_turns = cfg.method in ("ES+T", "BSD+T", "T-only")
    loss_cfg = LossConfig()

    store = None
    f_enc = None
    if use_embeddings:
        if views is None:
            views = WorldViews.from_graph(g, cfg.seed)
            lap("views")
        if encoders is None:
            encoders = train_sweep_encoders(cfg, g, views)
            lap("training")
        g_enc, f_enc = encoders
        # Map-side reference store over S1 tiles; views.ids is the graph's id order.
        store = DescriptorStore(views.ids, encode_batch(views.map_s1, g_enc, loss_cfg))

    codes = map_code_matrix(g) if use_bsd else None

    routes = simulate_routes(g, cfg.route_count, cfg.max_length, cfg.seed)
    lap("costs")

    lengths = list(range(cfg.success_window, cfg.max_length + 1))
    hits1 = {m: set() for m in lengths}
    hits5 = {m: set() for m in lengths}

    def query(idx):
        """Per-step query of route idx: descriptors, BSD codes or None."""
        truth = routes[idx]
        rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 23, idx]))
        if use_embeddings:
            lat = views.image[views.rows_of(np.asarray(truth))]
            if cfg.noise.sigma > 0:
                scale = cfg.noise.sigma
                if cfg.noise.outlier_prob > 0 and rng.random() < cfg.noise.outlier_prob:
                    scale *= cfg.noise.outlier_scale
                lat = lat + scale * rng.standard_normal(lat.shape)
            return encode_batch(lat, f_enc, loss_cfg)
        if use_bsd:
            return simulate_query_codes(truth, g, cfg.noise.bsd, rng)
        return None

    def search(chunk):
        """Search the routes of ``chunk`` in lockstep; yield the state of each scored length."""
        nonlocal per_route
        obs = [query(idx) for idx in chunk]
        # Turn bits are passed, and so filter, only for the turn methods.
        qbits = np.array([turn_pattern(routes[idx], g) for idx in chunk]) if with_turns else None
        if use_embeddings:
            descs = np.array(obs)
            costs_at = lambda i: store.distance_matrix(descs[:, i])
        elif use_bsd:
            costs_at = lambda i: np.array([hamming_cost_vector(codes, qc[i]) for qc in obs])
        else:
            zeros = np.zeros((len(chunk), len(g)))
            costs_at = lambda i: zeros
        for m in range(1, cfg.max_length + 1):
            costs = costs_at(m - 1)
            lap("costs")
            if m == 1:
                state = start_candidates(g, costs, DEFAULT_EXCLUSIONS, cfg.localizer)
            else:
                bits = None if qbits is None else qbits[:, m - 2]
                state = advance_candidates(state, costs, bits, cfg.localizer)
            per_route = max(per_route, state.size // len(chunk))
            lap("search")
            if m >= cfg.success_window:
                yield state

    def record(state, q, idx):
        top5 = state.top(5, q)
        m = state.length_m
        prefix = routes[idx][:m]
        if top5 and check_success(top5[0][0], prefix, cfg.success_window):
            hits1[m].add(idx)
        if any(check_success(r, prefix, cfg.success_window) for r, _ in top5):
            hits5[m].add(idx)
        lap("scoring")

    # The largest frontier per route seen so far sizes the next chunk.
    chunk, per_route = range(1), 0
    while chunk.start < len(routes):
        states = search(chunk)
        if len(chunk) > 1:
            # Scored route by route, so every length's state is held until
            # the last route; a one-route chunk scores each as it comes.
            states = list(states)
        for q, idx in enumerate(chunk):
            for state in states:
                record(state, q, idx)
        del states
        size = max(1, _LOCKSTEP_CANDIDATES // per_route) if per_route else 1
        chunk = range(chunk.stop, min(len(routes), chunk.stop + size))

    n = len(routes)
    report = AccuracyReport(
        method=cfg.method,
        lengths=lengths,
        top1={m: len(hits1[m]) / n for m in lengths},
        top5={m: len(hits5[m]) / n for m in lengths},
        localized_top1={m: frozenset(hits1[m]) for m in lengths},
        localized_top5={m: frozenset(hits5[m]) for m in lengths},
        meta={
            "route_count": n,
            "max_length": cfg.max_length,
            "success_window": cfg.success_window,
            "seed": cfg.seed,
            "sigma": cfg.noise.sigma,
            "outlier_prob": cfg.noise.outlier_prob,
            "exclusions": sorted(DEFAULT_EXCLUSIONS),
            "cull_fraction": cfg.localizer.cull_fraction,
            "cull_floor": cfg.localizer.cull_floor,
            "world_size": len(g),
            "runtime_s": None,
            "stage_s": stage_s,
        },
    )
    report.meta["runtime_s"] = round(time.perf_counter() - t_start, 3)
    return report
