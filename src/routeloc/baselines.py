"""Hand-crafted localization baselines.

Binary semantic descriptors (BSD) condense each location into four bits read
from its semantic tags; routes are ranked by summed Hamming distance with
the same turn filtering and tie-breaking as the descriptor search.  The
turn-only baseline matches routes purely on their binary turn pattern.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .localizer import LocalizerConfig, rank_matrix, route_matrix
from .world import DEFAULT_TURN_THRESHOLD, MapGraph, Route, TurnPattern

# Bit order of a BSD code.
BSD_TAG_ORDER = ("junction_ahead", "junction_behind", "gap_left", "gap_right")

BsdCode = tuple[int, int, int, int]


@dataclass(frozen=True)
class BsdNoise:
    """Per-bit flip probabilities for simulating an imperfect image classifier.

    Defaults are calibrated so that simulated junction and gap detections
    show roughly the precision/recall of a real classifier on street-level
    imagery (junction bits flip more often than gap bits).
    """

    p_junction: float = 0.3
    p_gap: float = 0.23

    def __post_init__(self):
        for p in (self.p_junction, self.p_gap):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"flip probability must be in [0, 1], got {p}")

    def per_bit(self) -> np.ndarray:
        return np.array([self.p_junction, self.p_junction, self.p_gap, self.p_gap])


def bsd_from_map(loc_id: int, g: MapGraph) -> BsdCode:
    """Ground-truth BSD code of a location, read off its semantic tags."""
    tags = g.location(loc_id).tags
    return tuple(1 if t in tags else 0 for t in BSD_TAG_ORDER)


def map_code_matrix(g: MapGraph) -> np.ndarray:
    """BSD codes for every location, shape (N, 4) uint8 in graph row order."""
    from .world import TAG_NAMES

    cols = [TAG_NAMES.index(t) for t in BSD_TAG_ORDER]
    g._build_index()
    return g._tags[:, cols].astype(np.uint8)


def simulate_query_codes(route: Route, g: MapGraph, noise: BsdNoise, rng) -> list:
    """Noisy query-side BSD codes along a route (each bit flips independently)."""
    p = noise.per_bit()
    out = []
    for loc_id in route:
        code = np.array(bsd_from_map(loc_id, g), dtype=np.uint8)
        flips = rng.random(4) < p
        out.append(tuple(int(b) for b in np.where(flips, 1 - code, code)))
    return out


def hamming_cost_vector(codes: np.ndarray, query_code) -> np.ndarray:
    """Hamming distance from one query code to every map code, float64."""
    qc = np.asarray(query_code, dtype=np.uint8)
    if qc.shape != (codes.shape[1],):
        raise ValueError(f"query code must have {codes.shape[1]} bits, got {qc.shape}")
    return (codes != qc[None, :]).sum(axis=1).astype(np.float64)


def bsd_localize(query_codes: Sequence[BsdCode], routes, g: MapGraph,
                 turns: TurnPattern | None = None,
                 cfg: LocalizerConfig = LocalizerConfig()) -> list:
    """Rank candidate routes by total Hamming distance between BSD sequences.

    Mirrors the descriptor-based full search: same optional turn filtering,
    same (distance, lexicographic) ordering, same ``top_k`` cut.  Query
    noise, when wanted, is injected by the caller (see simulate_query_codes);
    the ranking itself is deterministic.
    """
    m = len(query_codes)
    if m < 1:
        raise ValueError("need at least one query code")
    matrix = route_matrix(routes, m, g, turns, cfg)
    codes = map_code_matrix(g)
    dists = np.zeros(len(matrix), dtype=np.float64)
    for i in range(m):
        dists += hamming_cost_vector(codes, query_codes[i])[g.rows_of(matrix[:, i])]
    return rank_matrix(matrix, dists, cfg.top_k)


def turn_only_localize(turns: TurnPattern, routes, g: MapGraph,
                       threshold: float = DEFAULT_TURN_THRESHOLD) -> list:
    """All candidate routes whose map-side turn pattern equals the query pattern.

    Matches carry no further ranking signal; the list is returned in
    lexicographic order for determinism.
    """
    routes = list(routes)
    m = len(turns) + 1
    bad = [len(r) for r in routes if len(r) != m]
    if bad:
        raise ValueError(f"route length {bad[0]} does not fit a {m - 1}-bit turn pattern")
    cfg = LocalizerConfig(use_turns=True, turn_threshold=threshold)
    return list(map(tuple, route_matrix(routes, m, g, turns, cfg).tolist()))
