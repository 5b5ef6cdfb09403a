"""Route localization over a map-side descriptor store.

A query route is an ordered sequence of descriptors.  Its distance to a
candidate route is the sum of per-position Euclidean descriptor distances.
``localize_full`` ranks a precomputed candidate set; ``localize_step``
maintains candidates incrementally, one observation at a time, extending
each candidate by its legal next locations, optionally filtering on turn
bits and culling the worst candidates per step.

Ranking is deterministic: ties in distance break lexicographically on the
location-id sequence.  An empty result (for example after turn filtering)
is a valid "no candidates" outcome, not an error.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .store import DescriptorStore
from .world import (
    DEFAULT_TURN_THRESHOLD,
    MapGraph,
    Route,
    TurnPattern,
    turn_bits,
    turn_pattern_matrix,
)

RouteDescriptor = np.ndarray  # (m, dim) query descriptors, one per position


@dataclass(frozen=True)
class LocalizerConfig:
    """Search behavior: turn filtering, per-step culling and report depth."""

    use_turns: bool = False
    cull_fraction: float = 0.0
    cull_floor: int = 100
    top_k: int | None = None
    turn_threshold: float = DEFAULT_TURN_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.cull_fraction < 1.0:
            raise ValueError(f"cull_fraction must be in [0, 1), got {self.cull_fraction}")
        if self.cull_floor < 1:
            raise ValueError(f"cull_floor must be >= 1, got {self.cull_floor}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1 or None, got {self.top_k}")


def route_distance(query: RouteDescriptor, candidate: RouteDescriptor) -> float:
    """Sum of per-position Euclidean distances between two descriptor sequences."""
    q = np.asarray(query, dtype=np.float64)
    c = np.asarray(candidate, dtype=np.float64)
    if q.shape != c.shape or q.ndim != 2:
        raise ValueError(f"descriptor sequences must share shape (m, dim); got {q.shape} vs {c.shape}")
    total = 0.0
    for i in range(q.shape[0]):
        total += float(np.linalg.norm(q[i] - c[i]))
    return total


class CandidateSet:
    """Partial candidate routes with accumulated cost, in graph row space.

    Candidates are stored as arrays for vectorized stepping.  The exclusion
    tag set is fixed at start time and applied to every extension.
    """

    def __init__(self, graph: MapGraph, rows: np.ndarray, dists: np.ndarray,
                 exclusions: frozenset, allowed: np.ndarray):
        self.graph = graph
        self._rows = rows
        self._dists = dists
        self.exclusions = exclusions
        self._allowed = allowed

    @property
    def length_m(self) -> int:
        return self._rows.shape[1]

    @property
    def size(self) -> int:
        return self._rows.shape[0]

    def ranked(self, top_k: int | None = None) -> list:
        """Full (route, distance) ranking of the candidates, cut to ``top_k`` if set."""
        return self.top(self.size if top_k is None else top_k)

    def top(self, k: int) -> list:
        """First k of the ranking, via partial selection."""
        sel = _select_smallest(self._rows, self._dists, k)
        return rank_matrix(self.graph.id_array[self._rows[sel]], self._dists[sel], None)


def start_candidates(g: MapGraph, costs, exclusions: Iterable[str] = (),
                     cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """Length-1 candidate set: every non-excluded location, seeded with its cost."""
    costs = _check_costs(g, costs)
    excl = frozenset(exclusions)
    allowed = g.allowed_mask(excl)
    rows = np.nonzero(allowed)[0].astype(np.int32)[:, None]
    return _cull(CandidateSet(g, rows, costs[rows[:, 0]], excl, allowed), cfg)


def advance_candidates(state: CandidateSet, costs, next_turn_bit=None,
                       cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """Extend each candidate by its legal next locations and accumulate cost.

    Legal means: adjacent to the current endpoint, not already on the route,
    and free of excluded tags.  With ``cfg.use_turns`` and a query turn bit,
    extensions whose geometric turn bit disagrees are dropped.  Then the
    worst ceil(cull_fraction * n) candidates by cumulative distance are
    culled, never dropping below ``cull_floor`` survivors.
    """
    g = state.graph
    costs = _check_costs(g, costs)
    rows = state._rows
    n, m = rows.shape
    if n == 0:
        empty = np.empty((0, m + 1), dtype=np.int32)
        return CandidateSet(g, empty, np.empty(0), state.exclusions, state._allowed)

    nbr = g.neighbor_rows[rows[:, -1]]                     # (n, deg) row indices, -1 pads
    ok = nbr >= 0
    nb_safe = np.where(ok, nbr, 0)
    ok &= state._allowed[nb_safe]
    ok &= ~(rows[:, None, :] == nb_safe[:, :, None]).any(axis=2)

    if cfg.use_turns and next_turn_bit is not None:
        if m == 1:
            bits = np.zeros(nbr.shape, dtype=bool)          # first step carries no turn
        else:
            p = g.position_array
            bits = turn_bits(p[rows[:, -2], None], p[rows[:, -1], None], p[nb_safe],
                             cfg.turn_threshold)
        ok &= bits == bool(next_turn_bit)

    ci, si = np.nonzero(ok)
    new_rows = np.concatenate([rows[ci], nbr[ci, si][:, None]], axis=1)
    new_dists = state._dists[ci] + costs[nbr[ci, si]]
    return _cull(CandidateSet(g, new_rows, new_dists, state.exclusions, state._allowed), cfg)


def localize_step(state: CandidateSet, next_query, next_turn_bit, g: MapGraph,
                  store: DescriptorStore,
                  cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """One incremental step driven by a query descriptor (see advance_candidates)."""
    if g is not state.graph:
        raise ValueError("state was built over a different graph")
    costs = store.cost_vector(np.asarray(next_query, dtype=np.float64), g.id_array)
    return advance_candidates(state, costs, next_turn_bit, cfg)


def localize_full(query: RouteDescriptor, routes, store: DescriptorStore,
                  graph: MapGraph | None = None, turns: TurnPattern | None = None,
                  cfg: LocalizerConfig = LocalizerConfig()) -> list:
    """Rank candidate routes by total descriptor distance to the query.

    ``routes`` must share the query's length.  When ``cfg.use_turns`` and a
    query turn pattern are given, candidates whose map-side turn pattern
    differs are removed first (this needs ``graph`` for geometry).  Returns
    the ranked (route, distance) list, cut to ``cfg.top_k`` if set; an empty
    list means no candidates survived.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"query must be (m, dim), got shape {q.shape}")
    matrix = route_matrix(routes, q.shape[0], graph, turns, cfg)
    dists = np.zeros(len(matrix), dtype=np.float64)
    for i in range(q.shape[0]):
        dists += store.distances_to(q[i])[store.rows_of(matrix[:, i])]
    return rank_matrix(matrix, dists, cfg.top_k)


def route_matrix(routes, m: int, graph: MapGraph | None, turns: TurnPattern | None,
                 cfg: LocalizerConfig) -> np.ndarray:
    """Sorted (R, m) id matrix of candidate routes, turn-filtered when asked.

    Every route must have length m.  When ``cfg.use_turns`` and a query turn
    pattern are given, routes whose map-side pattern differs are dropped.
    """
    route_list = sorted(routes)
    if any(len(r) != m for r in route_list):
        raise ValueError(f"all candidate routes must have the query length {m}")
    matrix = np.asarray(route_list, dtype=np.int64).reshape(len(route_list), m)
    if not cfg.use_turns or turns is None or not route_list:
        return matrix
    if m < 2:
        raise ValueError("turn filtering needs routes of length >= 2")
    if graph is None:
        raise ValueError("turn filtering needs the graph for geometry")
    tq = np.asarray(turns, dtype=np.uint8)
    if tq.shape != (m - 1,):
        raise ValueError(f"turn pattern must have {m - 1} bits, got {tq.shape}")
    patterns = turn_pattern_matrix(matrix, graph, cfg.turn_threshold)
    return matrix[(patterns == tq[None, :]).all(axis=1)]


def rank_matrix(matrix: np.ndarray, dists: np.ndarray, top_k: int | None) -> list:
    """(route, distance) list of the rows of ``matrix`` in ranking order, cut to top_k."""
    order = _lex_order(matrix, dists)[:top_k]
    return list(zip(map(tuple, matrix[order].tolist()), dists[order].tolist()))


def check_success(estimated: Route, truth: Route, window: int = 5) -> bool:
    """True when the last ``window`` location ids agree position-wise."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(estimated) < window or len(truth) < window:
        raise ValueError(
            f"both routes must have at least window={window} locations "
            f"(got {len(estimated)} and {len(truth)})"
        )
    return tuple(estimated[-window:]) == tuple(truth[-window:])


def write_ranked_csv(path, ranked) -> None:
    """Write a ranked (route, distance) list as rank,distance,ids CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "distance", "route"])
        for rank, (route, dist) in enumerate(ranked, 1):
            w.writerow([rank, "%.17g" % dist, ",".join(str(i) for i in route)])


# ----------------------------------------------------------------------
# ordering helpers
# ----------------------------------------------------------------------


def _lex_order(rows: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Sort order by (distance, location sequence); rows may be in row or id space.

    Row indices are assigned in ascending id order, so lexicographic
    comparison agrees between the two spaces.
    """
    keys = [rows[:, c] for c in range(rows.shape[1] - 1, -1, -1)]
    keys.append(dists)
    return np.lexsort(keys)


def _select_smallest(rows: np.ndarray, dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest candidates under (distance, lexicographic) order."""
    n = len(dists)
    if k >= n:
        return np.arange(n)
    if k < 1:
        return np.arange(0)
    part = np.argpartition(dists, k - 1)[:k]
    boundary = dists[part].max()
    strict = np.nonzero(dists < boundary)[0]
    need = k - len(strict)
    tied = np.nonzero(dists == boundary)[0]
    if len(tied) > need:
        tied = tied[_lex_order(rows[tied], dists[tied])[:need]]
    return np.concatenate([strict, tied])


def _check_costs(g: MapGraph, costs) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (len(g),):
        raise ValueError(f"cost vector must have one entry per location ({len(g)}), got {costs.shape}")
    if not np.isfinite(costs).all():
        raise ValueError("cost vector must be finite")
    return costs


def _cull(state: CandidateSet, cfg: LocalizerConfig) -> CandidateSet:
    n = state.size
    if cfg.cull_fraction <= 0.0 or n <= cfg.cull_floor:
        return state
    keep_n = max(cfg.cull_floor, n - math.ceil(cfg.cull_fraction * n))
    if keep_n >= n:
        return state
    sel = _select_smallest(state._rows, state._dists, keep_n)
    return CandidateSet(state.graph, state._rows[sel], state._dists[sel],
                        state.exclusions, state._allowed)
