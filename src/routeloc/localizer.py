"""Route localization over a map-side descriptor store.

A query route is an ordered sequence of descriptors.  Its distance to a
candidate route is the sum of per-position Euclidean descriptor distances.
``localize_full`` ranks a given list of routes in one batch and is the
reference the incremental search is checked against.

The incremental search (``start_candidates``, ``advance_candidates``)
keeps one observation per step.  Its candidates are nodes of a
``RouteTree``: every self-avoiding route over the allowed locations, with
each node's legal extensions stored as a contiguous block of children,
ascending by row, and the turn bit of each node's last segment.  None of
this depends on the query, so the tree is built on demand, once per
(graph, exclusions, turn threshold), and cached on the graph: it is shared
by every query and freed with the graph.  A step gathers the children of
the current frontier, adds their costs, drops children whose turn bit
disagrees with the query's, and culls the worst candidates.  Only frontier
nodes that no earlier query reached are expanded.

Ranking is deterministic: ties in distance break lexicographically on the
location-id sequence.  The frontier is always kept in lexicographic route
order, so a tie breaks by frontier position.  An empty result (for example
after turn filtering) is a valid "no candidates" outcome, not an error.
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
    bearing_turns,
    segment_bearings,
    turn_bits,
    turn_pattern_matrix,
)

RouteDescriptor = np.ndarray  # (m, dim) query descriptors, one per position

# Most frontier nodes one call to RouteTree.expand takes.
_EXPAND_CHUNK = 4096
# A frontier whose routes hold at most this many locations in all (n * m)
# carries them from step to step; a larger one rebuilds routes from its
# steps when an expansion or a ranking needs them.
_CARRY_LIMIT = 1 << 16


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


class RouteTree:
    """Every route over one graph's allowed locations, as a tree grown on demand.

    Node i stands for one route (a walk that never revisits a location);
    ``row[i]`` is the graph row of its last location.  The roots, nodes
    0 .. roots-1, are the allowed locations in ascending row order.
    ``first[i] < 0`` marks a node not yet expanded.  An expanded node's
    children are nodes ``first[i] .. first[i] + count[i] - 1``: its legal
    one-location extensions, ascending by row.  ``bit[i]`` is the turn bit
    of a node's last segment under ``threshold`` (0 for routes of one or
    two locations).

    Nothing here depends on a query, so one tree serves every search over
    the graph with the same exclusions and threshold (see ``route_tree``).
    The tree keeps no parent pointers: expanding a node needs its whole
    route, which the candidate set that reached the node supplies.  It holds
    the graph's index arrays but not the graph, so the graph's cache of
    trees makes no reference cycle.
    """

    def __init__(self, g: MapGraph, exclusions: frozenset, threshold: float):
        self.exclusions = exclusions
        self.threshold = threshold
        allowed = g.allowed_mask(exclusions)
        nbr = g.neighbor_rows
        # Legal next rows of each row, ascending; -1 marks a pad or an excluded row.
        self.neighbors = np.where(allowed[nbr] & (nbr >= 0), nbr, -1)
        # bearings[r, j]: bearing of the segment from row r to its j-th neighbor.
        p = g.position_array
        self.bearings = segment_bearings(p[:, None], p[np.where(nbr >= 0, nbr, 0)])
        roots = np.nonzero(allowed)[0]
        self.roots = self.size = len(roots)
        # Rows and child counts in the narrowest type the graph allows.
        self.row = roots.astype(np.int16 if len(g) <= 2 ** 15 else np.int32)
        self.first = np.full(self.size, -1, dtype=np.int32)
        self.count = np.zeros(self.size, dtype=np.min_scalar_type(nbr.shape[1]))
        self.bit = np.zeros(self.size, dtype=bool)

    def expand(self, nodes: np.ndarray, walks: np.ndarray) -> None:
        """Append the children of ``nodes``, whose routes are the rows of ``walks``."""
        last = walks[:, -1]
        nbr = self.neighbors[last]
        ok = (nbr >= 0) & ~(walks[:, None, :] == nbr[:, :, None]).any(axis=2)
        counts = ok.sum(axis=1)
        start, end = self.size, self.size + int(counts.sum())
        self._reserve(end)
        self.first[nodes] = start + np.cumsum(counts) - counts
        self.count[nodes] = counts
        self.size = end
        self.row[start:end] = nbr[ok]
        self.first[start:end] = -1
        if walks.shape[1] == 1:
            self.bit[start:end] = False                     # the first step carries no turn
        else:
            # Where last sits among prev's neighbors: adjacency is symmetric.
            prev = walks[:, -2]
            into = (self.neighbors[prev] == last[:, None]).argmax(axis=1)
            turns = bearing_turns(self.bearings[prev, into, None], self.bearings[last],
                                  self.threshold)
            self.bit[start:end] = turns[ok]

    def _reserve(self, n: int) -> None:
        """Make room for n nodes, doubling capacity.

        Fields are copied one at a time and each old copy is released before
        the next field grows, so a growth step never holds two copies of
        the whole tree.
        """
        if n <= len(self.first):
            return
        cap = max(n, 2 * len(self.first))
        for name in ("row", "first", "count", "bit"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:self.size] = old[:self.size]
            setattr(self, name, new)
            del old, new


def route_tree(g: MapGraph, exclusions: Iterable[str] = (),
               threshold: float = DEFAULT_TURN_THRESHOLD) -> RouteTree:
    """The graph's route tree for these exclusions and turn threshold, built once.

    The tree is cached on the graph, so it is shared by every search over
    that graph and freed with it.
    """
    key = (frozenset(exclusions), float(threshold))
    tree = g._route_trees.get(key)
    if tree is None:
        tree = g._route_trees[key] = RouteTree(g, *key)
    return tree


class CandidateSet:
    """Candidate routes of one length: a frontier of route-tree nodes and distances.

    ``_steps[t]`` holds the frontier after observation t+1 as (nodes, src):
    tree node ids, and for each node the position of its parent in the
    frontier before it (None at the first step).  Every frontier lists its
    routes in lexicographic order, so among equal distances the earlier
    position ranks first.  A small frontier also carries its routes as an
    (n, m) row matrix, ``_carried``; a large one rebuilds routes from the
    steps only for the nodes an expansion or a ranking asks for.
    """

    def __init__(self, graph: MapGraph, tree: RouteTree, steps: tuple, dists: np.ndarray,
                 carried: np.ndarray | None):
        self.graph = graph
        self.tree = tree
        self._steps = steps
        self._dists = dists
        self._carried = carried

    @property
    def exclusions(self) -> frozenset:
        return self.tree.exclusions

    @property
    def length_m(self) -> int:
        return len(self._steps)

    @property
    def size(self) -> int:
        return len(self._dists)

    def ranked(self, top_k: int | None = None) -> list:
        """Full (route, distance) ranking of the candidates, cut to ``top_k`` if set."""
        return self.top(self.size if top_k is None else top_k)

    def top(self, k: int) -> list:
        """First k of the ranking, via partial selection."""
        sel = _smallest(self._dists, k)
        sel = sel[np.argsort(self._dists[sel], kind="stable")]
        ids = self.graph.id_array[self._walks(sel)]
        return list(zip(map(tuple, ids.tolist()), self._dists[sel].tolist()))

    def _walks(self, idx: np.ndarray) -> np.ndarray:
        """(len(idx), m) graph rows of the routes at frontier positions ``idx``."""
        if self._carried is not None:
            return self._carried[idx]
        path = np.empty((self.length_m, len(idx)), dtype=np.int32)
        for t in range(self.length_m - 1, 0, -1):
            nodes, src = self._steps[t]
            path[t] = nodes[idx]
            idx = src[idx]
        path[0] = self._steps[0][0][idx]
        return self.tree.row[path.T]


def start_candidates(g: MapGraph, costs, exclusions: Iterable[str] = (),
                     cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """Length-1 candidate set: every non-excluded location, seeded with its cost."""
    costs = _check_costs(g, costs)
    tree = route_tree(g, exclusions, cfg.turn_threshold)
    nodes = np.arange(tree.roots, dtype=np.int32)
    dists = costs[tree.row[nodes]]
    keep = _survivors(dists, cfg)
    nodes, dists = nodes[keep], dists[keep]
    carried = tree.row[nodes, None] if len(nodes) <= _CARRY_LIMIT else None
    return CandidateSet(g, tree, ((nodes, None),), dists, carried)


def advance_candidates(state: CandidateSet, costs, next_turn_bit=None,
                       cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """Extend each candidate by its legal next locations and accumulate cost.

    Legal means: adjacent to the current endpoint, not already on the route,
    and free of excluded tags.  With ``cfg.use_turns`` and a query turn bit,
    extensions whose geometric turn bit disagrees are dropped.  Then the
    worst ceil(cull_fraction * n) candidates by cumulative distance are
    culled, never dropping below ``cull_floor`` survivors.
    """
    costs = _check_costs(state.graph, costs)
    tree = state.tree
    nodes = state._steps[-1][0]
    first = tree.first[nodes]
    fresh = np.nonzero(first < 0)[0]
    if len(fresh):
        # In chunks, so that a cold step's temporaries stay small.
        for i in range(0, len(fresh), _EXPAND_CHUNK):
            part = fresh[i:i + _EXPAND_CHUNK]
            tree.expand(nodes[part], state._walks(part))
        first = tree.first[nodes]
    counts = tree.count[nodes]
    src = np.repeat(np.arange(len(nodes), dtype=np.int32), counts)
    child = np.arange(len(src), dtype=np.int32) + np.repeat(
        first - np.cumsum(counts, dtype=np.int32) + counts, counts)
    if cfg.use_turns and next_turn_bit is not None:
        if cfg.turn_threshold == tree.threshold or state.length_m == 1:
            bits = tree.bit[child]
        else:
            # A threshold other than the tree's: compute the bits from geometry.
            p = state.graph.position_array
            before = state._steps[-2][0][state._steps[-1][1]]
            bits = turn_bits(p[tree.row[before[src]]], p[tree.row[nodes[src]]],
                             p[tree.row[child]], cfg.turn_threshold)
        keep = bits == bool(next_turn_bit)
        child, src = child[keep], src[keep]
    dists = state._dists[src] + costs[tree.row[child]]
    keep = _survivors(dists, cfg)
    child, src, dists = child[keep], src[keep], dists[keep]
    carried = None
    if state._carried is not None and len(child) * (state.length_m + 1) <= _CARRY_LIMIT:
        carried = np.concatenate([state._carried[src], tree.row[child, None]], axis=1)
    return CandidateSet(state.graph, tree, state._steps + ((child, src),), dists, carried)


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
    if not np.isfinite(q).all():
        raise ValueError("query descriptors must be finite")
    matrix = route_matrix(routes, q.shape[0], graph, turns, cfg)
    table = store.distance_matrix(q)
    rows = store.rows_of(matrix)
    # Added position by position, in the order the stepped search adds them.
    dists = np.zeros(len(matrix), dtype=np.float64)
    for i in range(q.shape[0]):
        dists += table[i, rows[:, i]]
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


def _smallest(dists: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the k smallest distances, ties going to earlier positions."""
    n = len(dists)
    if k >= n:
        return np.arange(n)
    if k < 1:
        return np.arange(0)
    boundary = np.partition(dists, k - 1)[k - 1]
    keep = dists < boundary
    keep[np.nonzero(dists == boundary)[0][:k - np.count_nonzero(keep)]] = True
    return np.nonzero(keep)[0]


def _check_costs(g: MapGraph, costs) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (len(g),):
        raise ValueError(f"cost vector must have one entry per location ({len(g)}), got {costs.shape}")
    if not np.isfinite(costs).all():
        raise ValueError("cost vector must be finite")
    return costs


def _survivors(dists: np.ndarray, cfg: LocalizerConfig):
    """Positions that survive the cull, ascending; a full slice when none is culled."""
    n = len(dists)
    if cfg.cull_fraction <= 0.0 or n <= cfg.cull_floor:
        return slice(None)
    keep_n = max(cfg.cull_floor, n - math.ceil(cfg.cull_fraction * n))
    return slice(None) if keep_n >= n else _smallest(dists, keep_n)
