"""Route localization over a map-side descriptor store.

A query route is an ordered sequence of descriptors.  Its distance to a
candidate route is the sum of per-position Euclidean descriptor distances.
``localize_full`` ranks a given list of routes in one batch and is the
reference the incremental search is checked against.  Both read their
costs from one ``DescriptorStore.distance_matrix`` table.

The incremental search (``start_candidates``, ``advance_candidates``)
keeps one observation per step.  Its candidates are nodes of a
``RouteTree``: every self-avoiding route over the allowed locations, with
each node's legal extensions stored as a contiguous block of children,
ascending by row, and the turn bit of each node's last segment under the
fixed ``DEFAULT_TURN_THRESHOLD``.  None of this depends on the query, so
the tree is built on demand, once per (graph, exclusion set), and cached
by graph: it is shared by every query and freed with the graph.  Each
node records its parent, so any node's route can be read back from the
tree.  A step has a structural half, which gathers the children of the
current frontier, less those whose turn bit disagrees with the query's
when the query's turn bits are given (their node ids and graph rows, and
how many each frontier node keeps), and a query half, which repeats each
parent's distance over its children, adds their costs and culls the worst
candidates.  Only frontier nodes that no earlier query reached are
expanded.

A search that no step has culled since the start stays on the tree's
levels: each query's frontier holds every route of its length whose turn
bits match the ones the query has filtered on, in lexicographic order, so
its structural half is the same for every query with that turn-bit prefix.
The tree keeps that half, keyed by the prefix, for each frontier such a
search has reached, and later searches with the same prefix take it from
there instead of extending and turn-filtering again.

One candidate set can search Q queries in lockstep.  Its frontier holds
every query's candidates as one array, in (query, lexicographic route)
order: query q owns the contiguous segment ``bounds[q]:bounds[q+1]``.  A
step takes a (Q, N) cost table and one turn bit per query, and culls each
segment by itself, so every query ranks exactly as if it were searched
alone; a 1-D cost vector is the Q = 1 case.  ``bench.run_experiment``
searches a sweep's routes in chunks this way, which pays each step's fixed
numpy costs once per chunk instead of once per route.

Ranking is deterministic: ties in distance break lexicographically on the
location-id sequence.  Each segment is always kept in lexicographic route
order, so a tie breaks by frontier position.  An empty result (for example
after turn filtering) is a valid "no candidates" outcome, not an error.
Growth is bounded: a step that would build more than ``_MAX_FRONTIER``
candidates for one query, or a tree past ``_MAX_TREE_NODES`` nodes, raises
``CandidateBudgetError`` instead of exhausting memory.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

import numpy as np

from .store import DescriptorStore
from .world import MapGraph, Route, bearing_turns, check_whole, segment_bearings, write_csv

RouteDescriptor = np.ndarray  # (m, dim) query descriptors, one per position

# Most frontier nodes one call to RouteTree.expand takes.
_EXPAND_CHUNK = 4096
# Most candidates one step may build for one query, before culling.
_MAX_FRONTIER = 1 << 21
# Most nodes a route tree may hold.
_MAX_TREE_NODES = 1 << 24
# Most indices one np.take in _take converts to intp at a time.
_TAKE_BLOCK = 1 << 14
# Most (source, location) pairs a level of the girth's search from several sources gathers.
_BFS_PAIRS = 1 << 17
# _smallest bounds the k-th smallest of a segment by a strided sample's
# when the segment holds at least _SAMPLE_RATIO * k entries; the sample
# holds at least _SAMPLE_SIZE * k.
_SAMPLE_RATIO = 256
_SAMPLE_SIZE = 64


class CandidateBudgetError(ValueError):
    """Raised when a search would grow past its candidate budget."""


@dataclass(frozen=True)
class LocalizerConfig:
    """Search behavior: per-step culling."""

    cull_fraction: float = 0.0
    cull_floor: int = 100

    def __post_init__(self):
        if not 0.0 <= self.cull_fraction < 1.0:
            raise ValueError(f"cull_fraction must be in [0, 1), got {self.cull_fraction}")
        check_whole("cull_floor", self.cull_floor, 1)


class RouteTree:
    """Every route over one graph's allowed locations, as a tree grown on demand.

    Node i stands for one route (a walk that never revisits a location);
    ``row[i]`` is the graph row of its last location.  The roots, nodes
    0 .. roots-1, are the allowed locations in ascending row order.
    ``parent[i]`` is the node whose route node i extends by one location, -1
    for a root.  ``first[i] < 0`` marks a node not yet expanded.  An expanded
    node's children are nodes ``first[i] .. first[i] + count[i] - 1``: its
    legal one-location extensions, ascending by row.  ``step[i]`` packs how
    node i arrived at its last location: the top bit is the turn bit of its
    last segment, set when the bearing turns by more than
    ``DEFAULT_TURN_THRESHOLD`` degrees from the segment before (0 for routes
    of one or two locations), and the bits below it are the column of the
    previous location among ``row[i]``'s neighbors, or the neighbor count
    for a root.

    A node's children depend only on that arrival edge, except for the
    locations further back on its route, so the tree is grown from
    successor tables built once: for each arrival edge, its legal children
    (every allowed neighbor but the one it came from) with their own
    ``step``.  A child can repeat the location at route position i only by
    closing a cycle through positions i .. m, so ``expand`` compares
    children with earlier positions only once routes are as long as the
    shortest cycle of the allowed locations, the girth, and then only with
    the positions a cycle can reach.  The girth is found lazily, by
    breadth-first searches from the junctions, each twice as deep as the
    last, as expansions reach routes past the lengths ruled out.

    ``levels`` holds the structural half of the unculled steps searches
    have taken, keyed by the turn bits they filtered on: the key of a
    frontier of m locations has one entry per step, that step's query turn
    bit, or None for a step that did not filter, so the complete frontier's
    key is all None.  ``levels[key]`` is every route whose turn bits match
    the key where it holds a bit, in lexicographic order, as ``(nodes,
    rows, counts)``: the routes' node ids, the graph rows of their last
    locations and the child count, among them, of each route of
    ``levels[key[:-1]]``.  A level whose node ids form one run is held as
    ``(range(first, end), None, counts)`` and its rows are sliced from
    ``row`` when it is used; a held view of ``row`` would keep an old copy
    alive after ``_reserve``.  ``levels[(None,)]`` is the roots, all
    children of the empty route a search starts from, so its counts are
    ``[roots]``.  A level is filled by the first step that reaches it and
    then held for as long as the tree, except an empty one, which is never
    held.  A search that filters at every step after the first, or at none,
    reads levels that are disjoint sets of nodes at each length, besides
    the complete one, so the levels hold at most two entries per node.

    Nothing here depends on a query, and the threshold is fixed, so one tree
    serves every search over the graph with the same exclusion set (see
    ``route_tree``).  It holds tables derived from the graph but not the
    graph, so the cache of trees keyed by graph makes no reference cycle.
    """

    def __init__(self, g: MapGraph, exclusions: frozenset):
        allowed = g.allowed_mask(exclusions)
        nbr = g.neighbor_rows
        n, deg = nbr.shape
        # Rows, child counts and steps in the narrowest types the graph allows.
        row_type = np.int16 if n <= 2 ** 15 else np.int32
        count_type = np.min_scalar_type(deg)
        step_type = np.min_scalar_type(2 * deg + 1)
        self.turn_shift = 8 * step_type.itemsize - 1
        self._slot_mask = (1 << self.turn_shift) - 1
        # Arrival edge e = r * (deg + 1) + s: at row r from its s-th neighbor,
        # or from nowhere when s = deg (a root).
        self._arity = deg + 1
        # The graph's neighbor pairs (r, j), r's j-th neighbor c, by r and then c;
        # back[i] is the column of r among c's neighbors, found at the reverse pair.
        r, j = np.nonzero(nbr >= 0)
        c = nbr[r, j]
        back = j[np.searchsorted(r.astype(np.int64) * n + c, c.astype(np.int64) * n + r)]
        # Each row's legal children, pairs[first[r]:first[r] + fanout[r]], ascending.
        pairs = np.flatnonzero(allowed[c])
        fanout = np.bincount(r[pairs], minlength=n)
        first = np.cumsum(fanout) - fanout
        # Every arrival edge, ascending by e, and the row it came from (-1 for a root).
        into = np.column_stack([nbr, np.full(n, -1, dtype=nbr.dtype)])
        er, es = np.nonzero((into >= 0) | (np.arange(deg + 1) == deg))
        came = into[er, es]
        # The tables: each edge's children are its row's legal children but the
        # one it came from.  src and at are each entry's edge and neighbor pair.
        per = fanout[er]
        src = np.repeat(np.arange(len(er)), per)
        at = pairs[np.arange(len(src)) + np.repeat(first[er] - (np.cumsum(per) - per), per)]
        keep = j[at] != es[src]
        src, at = src[keep], at[keep]
        self._edge_count = np.zeros(n * self._arity, dtype=count_type)
        self._edge_count[er * self._arity + es] = np.bincount(src, minlength=len(er))
        self._edge_first = np.cumsum(self._edge_count, dtype=np.int64) - self._edge_count
        self._succ_row = c[at].astype(row_type)
        # Turn bits on the operands of segment_bearings(p[prev], p[r]) and
        # segment_bearings(p[r], p[next]); none after a root.
        p, turned = g.position_array, came[src] >= 0
        prev, here, ahead = came[src][turned], er[src][turned], c[at][turned]
        turn = np.zeros(len(src), dtype=step_type)
        turn[turned] = bearing_turns(segment_bearings(p[prev], p[here]),
                                     segment_bearings(p[here], p[ahead]))
        self._succ_step = (turn << self.turn_shift) | back[at].astype(step_type)
        roots = np.nonzero(allowed)[0]
        self.roots = self.size = len(roots)
        self.row = roots.astype(row_type)
        self.parent = np.full(self.size, -1, dtype=np.int32)
        self.first = np.full(self.size, -1, dtype=np.int32)
        self.count = np.zeros(self.size, dtype=count_type)
        self.step = np.full(self.size, deg, dtype=step_type)
        self.levels = {(None,): (range(self.roots), None, np.array([self.roots]))}
        # The girth's breadth-first search goes from _sources: every cycle passes
        # through a junction (an allowed location with three or more allowed
        # neighbors) or is a bare ring, whose smallest row has two larger ones.
        lower = np.bincount(r[pairs][c[pairs] < r[pairs]], minlength=n)
        self._sources = np.flatnonzero(allowed & ((fanout >= 3) | ((fanout == 2) & (lower == 0))))
        # The girth once found, and until then the length up to which cycles are
        # ruled out; a location is never its own neighbor, and a route never
        # turns back.
        self._girth, self._cycle_free = math.inf, 2

    def girth(self, m: int) -> int:
        """A lower bound on the girth that is exact when the girth is at most m.

        A call that asks past the lengths ruled out so far searches from the
        sources again, a block at a time, each only as deep as m or twice the
        lengths ruled out, whichever is more, or a cycle shorter than the
        shortest found, needs.  A block starts as every source left and is
        halved while a level would outgrow ``_BFS_PAIRS``.
        """
        if self._cycle_free < m:
            depth = max(m, 2 * self._cycle_free)
            # Row r's allowed neighbors are the children of its root edge.
            roots = slice(self._arity - 1, None, self._arity)
            first = self._edge_first[roots]
            count = self._edge_count[roots].astype(np.intp)  # int64 - uint64 is float64
            sources, lo, block = self._sources, 0, len(self._sources)
            while lo < len(sources):
                found = _shortest_cycle(first, count, self._succ_row, sources[lo:lo + block],
                                        (min(depth, self._girth - 1) + 1) // 2)
                if found is None:
                    block //= 2
                else:
                    self._girth, lo = min(self._girth, found), lo + block
            self._cycle_free = 2 * ((depth + 1) // 2) if self._girth == math.inf else math.inf
        return min(self._girth, max(m + 1, 3))

    def walks(self, nodes: np.ndarray, m: int) -> np.ndarray:
        """(m, len(nodes)) graph rows of the routes of m locations that end at ``nodes``."""
        path = np.empty((m, len(nodes)), dtype=np.int32)
        path[m - 1] = nodes
        for t in range(m - 1, 0, -1):
            path[t - 1] = self.parent[path[t]]
        return self.row[path]

    def expand(self, nodes: np.ndarray, m: int) -> None:
        """Append the children of ``nodes``, whose routes have m locations."""
        edge = self.row[nodes].astype(np.intp) * self._arity + (self.step[nodes] & self._slot_mask)
        counts = self._edge_count[edge]
        starts = np.cumsum(counts, dtype=np.int64) - counts
        # entry[c]: child c's place in the tables, its edge's block in order.
        entry = (np.arange(int(counts.sum()))
                 + np.repeat(self._edge_first[edge] - starts, counts))
        rows, steps = self._succ_row[entry], self._succ_step[entry]
        parent = np.repeat(nodes, counts)
        # The new location is position m + 1; it can equal position i only by
        # closing a cycle of m + 1 - i edges.
        reach = m + 1 - self.girth(m)
        if reach > 0:
            at = np.repeat(np.arange(len(nodes)), counts)
            ok = np.ones(len(rows), dtype=bool)
            for past in self.walks(nodes, m)[:reach]:
                ok &= rows != past[at]
            rows, steps, parent = rows[ok], steps[ok], parent[ok]
            counts = np.bincount(at[ok], minlength=len(nodes))
            starts = np.cumsum(counts) - counts
        start, end = self.size, self.size + len(rows)
        if end > _MAX_TREE_NODES:
            raise CandidateBudgetError(
                f"the route tree would grow to {end} nodes, past the budget of "
                f"{_MAX_TREE_NODES}; cull harder or search shorter routes")
        self._reserve(end)
        self.first[nodes] = start + starts
        self.count[nodes] = counts
        self.size = end
        self.row[start:end] = rows
        self.parent[start:end] = parent
        self.first[start:end] = -1
        self.step[start:end] = steps

    def _reserve(self, n: int) -> None:
        """Make room for n nodes, doubling capacity up to the node budget.

        Fields are copied one at a time and each old copy is released before
        the next field grows, so a growth step never holds two copies of
        the whole tree.
        """
        if n <= len(self.first):
            return
        cap = min(max(n, 2 * len(self.first)), _MAX_TREE_NODES)
        for name in ("row", "parent", "first", "count", "step"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:self.size] = old[:self.size]
            setattr(self, name, new)
            del old, new


def _shortest_cycle(first: np.ndarray, count: np.ndarray, links: np.ndarray,
                    sources: np.ndarray, steps: int):
    """Edges in the shortest cycle through ``sources`` within ``steps`` BFS levels (inf for none).

    Row r's neighbors are ``links[first[r]:first[r] + count[r]]``.  Level k of a
    source is the locations k edges from it, every source searched at once
    as (source, location) pairs.  A level goes on to its locations' neighbors
    but the one each came from: one on level k closes a cycle of at most
    2k + 1 edges, one reached twice of at most 2k + 2, exact for a source on
    a shortest cycle, and no neighbor lies nearer before then.  Returns None,
    having stopped part way, when a level of several sources would gather
    more than ``_BFS_PAIRS`` pairs.
    """
    n = len(first)
    # Pair keys source * n + location, ascending, and the location each came from.
    key = np.arange(len(sources)) * n + sources
    came = np.full(len(key), -1, dtype=links.dtype)
    for k in range(steps):
        at = key % n
        counts = count[at]
        ends = np.cumsum(counts)
        if ends[-1] > _BFS_PAIRS and len(sources) > 1:
            return None
        nbr = links[np.arange(ends[-1]) + np.repeat(first[at] + counts - ends, counts)]
        ahead = nbr != np.repeat(came, counts)
        nxt = np.repeat(key - at, counts)[ahead] + nbr[ahead]
        if not len(nxt):
            break
        if (key.take(np.searchsorted(key, nxt), mode="clip") == nxt).any():
            return 2 * k + 1
        order = np.argsort(nxt)
        nxt = nxt[order]
        if (nxt[1:] == nxt[:-1]).any():
            return 2 * k + 2
        key, came = nxt, np.repeat(at, counts)[ahead][order]
    return math.inf


# Route trees by graph, then by exclusion set; an entry goes with its graph.
_route_trees = weakref.WeakKeyDictionary()


def route_tree(g: MapGraph, exclusions: Iterable[str] = ()) -> RouteTree:
    """The graph's route tree for this exclusion set, for a new search.

    The tree is cached by graph, so it is shared by the searches over that
    graph and freed with it.  Every search adds its expansions to the tree,
    so once the cached tree holds more than half the node budget a new
    search gets a fresh one; searches already under way keep their own.
    """
    key = frozenset(exclusions)
    trees = _route_trees.setdefault(g, {})
    tree = trees.get(key)
    if tree is None or tree.size > _MAX_TREE_NODES // 2:
        tree = trees[key] = RouteTree(g, key)
    return tree


class CandidateSet:
    """Candidate routes of one length for Q queries: route-tree nodes and distances.

    The set holds one frontier: ``_nodes``, the tree nodes of its routes of
    ``length_m`` locations (a ``range`` when they are one run of ids), and
    ``_dists``, their summed costs.  The first step is taken from a
    frontier of one empty route per query, at distance 0, which has no
    nodes.  Query q's candidates sit at positions
    ``_bounds[q]:_bounds[q+1]``, listed in lexicographic route order, so
    among equal distances the earlier position ranks first.  Routes are read
    back from the tree only for the nodes a ranking asks for.

    ``keys`` holds each query's level key while no step since the start
    has culled the set, and is None once one has: query q's segment is then
    ``tree.levels[keys[q]]``, or empty where the tree holds no such level,
    and the next step takes its children from the tree's levels.
    """

    def __init__(self, graph: MapGraph, tree: RouteTree, length_m: int, nodes: np.ndarray,
                 dists: np.ndarray, bounds: np.ndarray, keys: list | None):
        self.graph = graph
        self.tree = tree
        self.length_m = length_m
        self.keys = keys
        self._nodes = nodes
        self._dists = dists
        self._bounds = bounds
        self._tops = {}

    @property
    def queries(self) -> int:
        return len(self._bounds) - 1

    @property
    def size(self) -> int:
        """Candidates of all queries together."""
        return len(self._dists)

    @property
    def sizes(self) -> np.ndarray:
        """Candidates of each query."""
        return self._bounds[1:] - self._bounds[:-1]

    def ranked(self, top_k: int | None = None) -> list:
        """Query 0's full (route, distance) ranking, cut to ``top_k`` if set."""
        return self.top(self.size if top_k is None else top_k)

    def top(self, k: int, q: int = 0) -> list:
        """First k of query q's ranking.

        The first call for a given k selects and rebuilds the top k of every
        query in one pass, so a chunk of routes pays that pass once a step.
        """
        if not 0 <= q < self.queries:
            raise IndexError(f"query {q} out of range for {self.queries} queries")
        tops = self._tops.get(k)
        if tops is None:
            tops = self._tops[k] = self._select(k)
        return list(tops[q])

    def _select(self, k: int) -> list:
        """Every query's top-k list, via partial selection within each segment."""
        take = [min(max(k, 0), n) for n in self.sizes.tolist()]
        pos = _smallest(self._dists, self._bounds, take)
        if pos is None:
            pos = np.arange(self.size)
        pos = pos[np.lexsort((self._dists[pos], np.repeat(np.arange(self.queries), take)))]
        pairs = self._listing(pos)
        ends = list(accumulate(take))
        return [pairs[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def _listing(self, pos: np.ndarray) -> list:
        """(route, distance) pairs of the candidates at frontier positions ``pos``."""
        nodes = self._nodes
        ends = pos + nodes.start if isinstance(nodes, range) else nodes[pos]
        ids = self.graph.id_array[self.tree.walks(ends, self.length_m).T]
        return list(zip(map(tuple, ids.tolist()), self._dists[pos].tolist()))


def start_candidates(g: MapGraph, costs, exclusions: Iterable[str] = (),
                     cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """Length-1 candidates: every non-excluded location, seeded with its cost.

    ``costs`` is one cost vector (N,) or a (Q, N) table with one row per
    query.  This is the step from each query's empty route, at distance 0,
    to every root, and each query is culled by itself.
    """
    queries = len(_check_costs(g, costs))
    empty = CandidateSet(g, route_tree(g, exclusions), 0, None, np.zeros(queries),
                         np.arange(queries + 1), [()] * queries)
    return advance_candidates(empty, costs, None, cfg)


def advance_candidates(state: CandidateSet, costs, next_turn_bit=None,
                       cfg: LocalizerConfig = LocalizerConfig()) -> CandidateSet:
    """Extend each candidate by its legal next locations and accumulate cost.

    Legal means: adjacent to the current endpoint, not already on the route,
    and free of excluded tags.  When a query turn bit is given, extensions
    whose geometric turn bit disagrees are dropped; ``None`` filters
    nothing.  Then the worst ceil(cull_fraction * n) of each query's n
    candidates by cumulative distance are culled, never dropping below
    ``cull_floor`` survivors.  ``costs`` is a cost vector for a one-query
    set or a (Q, N) table, and ``next_turn_bit`` one bit or one bit per
    query, each 0 or 1.
    """
    costs = _check_costs(state.graph, costs, state.queries)
    bits = None
    if next_turn_bit is not None:
        bits = np.asarray(next_turn_bit)
        if bits.shape not in ((), (state.queries,)):
            raise ValueError(f"need one turn bit or {state.queries}, got shape {bits.shape}")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError(f"turn bits must be 0 or 1, got {next_turn_bit!r}")
        bits = np.broadcast_to(bits.astype(bool), state.queries)
    child, rows, counts, bounds, keys = _children(state, bits)
    dists = np.repeat(state._dists, counts)
    if state.queries > 1:
        # Flat positions in the (Q, N) table: query q's row starts at q * N.
        rows = _per_candidate(np.arange(state.queries) * costs.shape[1], bounds) + rows
    _take(costs.ravel(), rows, dists)
    keep = _survivors(dists, bounds, cfg)
    if keep is not None:
        child, dists = _ids(child)[keep], dists[keep]
        bounds = np.searchsorted(keep, bounds)
        keys = None
    return CandidateSet(state.graph, state.tree, state.length_m + 1, child, dists, bounds, keys)


def _children(state: CandidateSet, bits) -> tuple:
    """The structural half of a step: (child, rows, counts, bounds, keys) of its extensions.

    ``bits`` is each query's turn bit, or None to filter nothing.  ``child``
    are the kept extensions' tree nodes, ``rows`` the graph rows of their
    last locations, ``counts`` the number kept of each frontier candidate,
    ``bounds`` each query's segment of them and ``keys`` the new set's
    level keys.  A set on the tree's levels takes them from there, and
    fills a level on a miss.
    """
    tree, m = state.tree, state.length_m
    if state.keys is None:
        child, counts, starts = _extend(tree, _ids(state._nodes), state._bounds, m, bits)
        return child, tree.row[child], counts, starts[state._bounds], None
    keys = [key + (bit,) for key, bit in
            zip(state.keys, [None] * state.queries if bits is None else bits.astype(int).tolist())]
    levels = {}
    for q, key in enumerate(keys):
        if key not in levels:
            level = tree.levels.get(key)
            if level is None:
                # Query q's segment is the level this one extends.
                segment = _ids(state._nodes[state._bounds[q]:state._bounds[q + 1]])
                child, counts, _ = _extend(tree, segment, np.array([0, len(segment)]), m,
                                           None if key[-1] is None else key[-1:])
                if len(child) and (np.diff(child) == 1).all():
                    level = range(int(child[0]), int(child[-1]) + 1), None, counts
                else:
                    level = child, tree.row[child], counts
                if len(child):
                    tree.levels[key] = level
            levels[key] = level
    bounds = np.array([0, *accumulate(len(levels[key][0]) for key in keys)])
    _check_budget(bounds)
    # Rows are sliced after every fill, which can replace tree.row.
    parts = [_with_rows(tree, levels[key]) for key in keys]
    if len(parts) == 1:
        return (*parts[0], bounds, keys)
    child = np.concatenate([_ids(nodes) for nodes, _, _ in parts])
    rows = np.concatenate([rows for _, rows, _ in parts])
    counts = np.concatenate([counts for _, _, counts in parts])
    return child, rows, counts, bounds, keys


def _with_rows(tree: RouteTree, level: tuple) -> tuple:
    """A level's (nodes, rows, counts), a run's rows a view of ``tree.row``."""
    nodes, rows, counts = level
    return (nodes, tree.row[nodes.start:nodes.stop], counts) if rows is None else level


def _ids(nodes) -> np.ndarray:
    """Node ids as an array; a run held as a ``range`` is made one."""
    if isinstance(nodes, range):
        return np.arange(nodes.start, nodes.stop, dtype=np.int32)
    return nodes


def _extend(tree: RouteTree, nodes: np.ndarray, bounds: np.ndarray, m: int, bits) -> tuple:
    """(child, counts, starts) of the legal extensions of ``nodes``, routes of m locations.

    Node i's children are ``child[starts[i]:starts[i + 1]]``, ``counts[i]``
    of them.  ``nodes`` are split into segments by ``bounds``; nodes no
    search has expanded yet are expanded first.  ``bits`` holds one turn
    bit per segment, and segment q keeps only the children whose turn bit
    is ``bits[q]``; None keeps them all.
    """
    first = tree.first[nodes]
    fresh = nodes[first < 0]
    if len(fresh):
        if len(bounds) > 2:
            # A route can sit in several queries' segments; expand it once.
            fresh = np.unique(fresh)
        # In chunks, so that a cold step's temporaries stay small.
        for i in range(0, len(fresh), _EXPAND_CHUNK):
            tree.expand(fresh[i:i + _EXPAND_CHUNK], m)
        first = tree.first[nodes]
    counts = tree.count[nodes]
    starts = np.empty(len(nodes) + 1, dtype=np.int32)
    starts[0] = 0
    np.cumsum(counts, dtype=np.int32, out=starts[1:])
    _check_budget(starts[bounds])
    child = np.arange(starts[-1], dtype=np.int32) + np.repeat(first - starts[:-1], counts)
    if bits is not None:
        turn = _take(tree.step, child) >> tree.turn_shift
        keep = np.flatnonzero(turn == _per_candidate(bits, starts[bounds]))
        starts = np.searchsorted(keep, starts)
        child, counts = child[keep], np.diff(starts).astype(tree.count.dtype)
    return child, counts, starts


def _check_budget(bounds: np.ndarray) -> None:
    """Raise CandidateBudgetError when a segment of ``bounds`` is past _MAX_FRONTIER."""
    if bounds[-1] > _MAX_FRONTIER:  # all queries together bound each one
        widest = int(np.diff(bounds).max())
        if widest > _MAX_FRONTIER:
            raise CandidateBudgetError(
                f"a step would build {widest} candidates for one query, past the budget "
                f"of {_MAX_FRONTIER}; cull harder or search shorter routes")


def localize_full(query: RouteDescriptor, routes, store: DescriptorStore) -> list:
    """Rank candidate routes by total descriptor distance to the query.

    ``routes`` must share the query's length.  Returns the whole ranked
    (route, distance) list; an empty list means there were no candidates.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"query must be (m, dim), got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("query descriptors must be finite")
    m = q.shape[0]
    route_list = list(routes)
    if any(len(r) != m for r in route_list):
        raise ValueError(f"all candidate routes must have the query length {m}")
    matrix = np.asarray(route_list, dtype=np.int64).reshape(len(route_list), m)
    table = store.distance_matrix(q)
    rows = store.rows_of(matrix)
    # Added position by position, in the order the stepped search adds them.
    dists = np.zeros(len(matrix), dtype=np.float64)
    for i in range(m):
        dists += table[i, rows[:, i]]
    # Ties break lexicographically on the id sequence.
    order = np.lexsort([*matrix.T[::-1], dists])
    return list(zip(map(tuple, matrix[order].tolist()), dists[order].tolist()))


def check_success(estimated: Route, truth: Route, window: int) -> bool:
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
    write_csv(path, ["rank", "distance", "route"],
              ([rank, "%.17g" % dist, ",".join(str(i) for i in route)]
               for rank, (route, dist) in enumerate(ranked, 1)))


# ----------------------------------------------------------------------
# ordering helpers
# ----------------------------------------------------------------------


def _per_candidate(values: np.ndarray, bounds: np.ndarray):
    """values[q] for every candidate of query q (a scalar for one query)."""
    return values[0] if len(bounds) == 2 else np.repeat(values, bounds[1:] - bounds[:-1])


def _take(values: np.ndarray, index: np.ndarray, add_to: np.ndarray | None = None):
    """``values[index]`` for 1-D ``values``, or ``add_to`` plus that, summed in place.

    Gathered in blocks of _TAKE_BLOCK: np.take copies its index to intp
    before it gathers, and in blocks that copy stays small, as does the
    gather itself when it is added to ``add_to``.
    """
    out = np.zeros(len(index), dtype=values.dtype) if add_to is None else add_to
    for i in range(0, len(index), _TAKE_BLOCK):
        out[i:i + _TAKE_BLOCK] += np.take(values, index[i:i + _TAKE_BLOCK])
    return out


def _smallest(dists: np.ndarray, bounds: np.ndarray, keep: list):
    """Ascending positions of the keep[q] smallest distances of each segment q.

    Segment q is ``dists[bounds[q]:bounds[q+1]]`` and keep[q] is at most its
    size.  Ties go to earlier positions.  Returns None when that keeps
    every position.
    """
    starts = bounds.tolist()
    cut = [q for q, k in enumerate(keep) if k < starts[q + 1] - starts[q]]
    if not cut:
        return None
    # bound[q] is at least the keep[q]-th smallest distance of segment q: the
    # k-th smallest of the segment, or of a strided sample when the segment
    # holds at least _SAMPLE_RATIO * k entries.  A segment kept whole gets
    # inf and one kept empty -inf.
    bound = np.full(len(keep), np.inf)
    for q in cut:
        k, seg = keep[q], dists[starts[q]:starts[q + 1]]
        if len(seg) >= _SAMPLE_RATIO * k > 0:
            seg = seg[::len(seg) // (_SAMPLE_SIZE * k)]
        bound[q] = np.partition(seg, k - 1)[k - 1] if k else -np.inf
    pos = np.flatnonzero(dists <= _per_candidate(bound, bounds))
    # Segment q's positions are pos[at[q]:at[q + 1]]; one with more than
    # keep[q] of them keeps its keep[q] smallest, ties to the earlier.
    at = np.searchsorted(pos, bounds).tolist()
    kept = np.ones(len(pos), dtype=bool)
    for q in cut:
        k, lo, hi = keep[q], at[q], at[q + 1]
        if hi - lo > k:
            d, edge = dists[pos[lo:hi]], bound[q]
            # Fewer than k distances below the bound make it the k-th smallest;
            # otherwise it is loose, and the k-th smallest is found among these.
            if k and np.count_nonzero(d < edge) >= k:
                edge = np.partition(d, k - 1)[k - 1]
            below = d < edge
            below[np.flatnonzero(d == edge)[:k - np.count_nonzero(below)]] = True
            kept[lo:hi] = below
    return pos[kept]


def _check_costs(g: MapGraph, costs, queries: int | None = None) -> np.ndarray:
    """The costs as a (Q, N) table: one row per query, one entry per location."""
    costs = np.asarray(costs, dtype=np.float64)
    table = costs[None] if costs.ndim == 1 else costs
    if (table.ndim != 2 or table.shape[1] != len(g) or len(table) < 1
            or queries not in (None, len(table))):
        rows = "one row per query" if queries is None else f"{queries} row(s)"
        raise ValueError(f"cost vector must have one entry per location ({len(g)}), "
                         f"and a cost table {rows}; got shape {costs.shape}")
    if not np.isfinite(table).all():
        raise ValueError("cost vector must be finite")
    return table


def _survivors(dists: np.ndarray, bounds: np.ndarray, cfg: LocalizerConfig):
    """Positions that survive each query's cull, ascending; None when none is culled."""
    if cfg.cull_fraction <= 0.0:
        return None
    sizes = (bounds[1:] - bounds[:-1]).tolist()
    return _smallest(dists, bounds, [
        n if n <= cfg.cull_floor else max(cfg.cull_floor, n - math.ceil(cfg.cull_fraction * n))
        for n in sizes])
