"""Sequential route localization: ranking oracle, stepping, culling, turns."""
import csv
import dataclasses
import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeloc import localizer
from routeloc import (
    DescriptorStore,
    Location,
    LocalizerConfig,
    MapGraph,
    SyntheticWorldConfig,
    advance_candidates,
    check_success,
    enumerate_routes,
    generate_synthetic_world,
    localize_full,
    simulate_routes,
    start_candidates,
    turn_pattern,
    write_ranked_csv,
)
from routeloc.world import bearing_turns, segment_bearings

DIM = 4


def make_store(g, seed=0):
    rng = np.random.default_rng(seed)
    return DescriptorStore(g.id_array, rng.normal(0.0, 1.0, (len(g), DIM)))


def integer_descriptors(draw, count):
    """(count, 1) small integer descriptors, so that distances tie often."""
    return np.array(draw(st.lists(st.integers(0, 2), min_size=count, max_size=count)),
                    dtype=np.float64)[:, None]


def query_turns(draw, g, m):
    """m-1 turn bits: a real route's half the time, so that some candidates survive."""
    routes = sorted(enumerate_routes(g, m))
    if routes and draw(st.booleans()):
        return turn_pattern(draw(st.sampled_from(routes)), g)
    return tuple(draw(st.lists(st.integers(0, 1), min_size=m - 1, max_size=m - 1)))


@st.composite
def tie_heavy_searches(draw):
    """A small random graph with 1-D integer descriptors, a query and turn bits.

    Distances are then small integers, so many candidates tie.  The turn bits
    are those of a real route half the time, so that some candidates survive.
    Some locations carry a tunnel tag, for searches that exclude tunnels.
    """
    n = draw(st.integers(3, 7))
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=n, max_size=n, unique=True))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1, max_size=2 * n))
    nbrs = {i: set() for i in range(n)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    tunnels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    g = MapGraph([Location(i, (10.0 * cells[i][0], 10.0 * cells[i][1]), 0.0,
                           tuple(sorted(nbrs[i])), frozenset({"tunnel"} if tunnels[i] else ()))
                  for i in range(n)])
    store = DescriptorStore(g.id_array, integer_descriptors(draw, n))
    m = draw(st.integers(2, 4))
    return g, store, integer_descriptors(draw, m), query_turns(draw, g, m)


@st.composite
def lockstep_searches(draw):
    """A tie-heavy search plus one to three more queries, each with its own turn bits."""
    g, store, q, turns = draw(tie_heavy_searches())
    extra = draw(st.integers(1, 3))
    queries = [q] + [integer_descriptors(draw, len(q)) for _ in range(extra)]
    patterns = [turns] + [query_turns(draw, g, len(q)) for _ in range(extra)]
    return g, store, queries, patterns


@st.composite
def fuzzed_graphs(draw):
    """A tie-heavy search's graph, a block_len-1 lattice, where every location is a
    junction and the shortest cycle has 4 edges, or a random-planar world."""
    kind = draw(st.sampled_from(["ties", "lattice", "planar"]))
    if kind == "ties":
        return draw(tie_heavy_searches())[0]
    return generate_synthetic_world(SyntheticWorldConfig(
        node_count=draw(st.integers(4, 36)), seed=draw(st.integers(0, 99)), block_len=1,
        layout="grid" if kind == "lattice" else "random-planar"))


search_configs = st.builds(
    LocalizerConfig,
    cull_fraction=st.sampled_from([0.0, 0.3, 0.6]),
    cull_floor=st.integers(1, 4),
)

# Turn bits or None: a search filters on turns exactly when it is given bits.
maybe_turns = st.booleans()


def cost_table(g, store, q):
    """(m, N) distances from the m query descriptors to the store, in graph-row order."""
    return store.distance_matrix(q)[:, store.rows_of(g.id_array)]


def run_chain(g, store, q, cfg, turns=None, exclusions=()):
    """Stepped search over the query q, with query turn bits when given."""
    costs = cost_table(g, store, q)
    state = start_candidates(g, costs[0], exclusions, cfg)
    for i in range(1, len(q)):
        bit = None if turns is None else turns[i - 1]
        state = advance_candidates(state, costs[i], bit, cfg)
    return state


def lockstep_tables(g, store, queries):
    """(m, Q, N): step i's cost table over every query."""
    return np.stack([cost_table(g, store, q) for q in queries], axis=1)


def lockstep_chain(g, store, queries, cfg, patterns=None, exclusions=()):
    """One search over all queries at once, with their turn bits when given; every state."""
    table = lockstep_tables(g, store, queries)

    states = [start_candidates(g, table[0], exclusions, cfg)]
    for i in range(1, len(queries[0])):
        bits = None if patterns is None else [turns[i - 1] for turns in patterns]
        states.append(advance_candidates(states[-1], table[i], bits, cfg))
    return states


def mixed_chain(g, store, queries, cfg, patterns, exclusions, plain, cached=True):
    """Every state of a lockstep search that is neither culled nor turn-filtered
    for its first ``plain`` observations.

    Later observations use ``cfg``, and the turn bits when given.  With
    ``cached`` False every state is taken off the tree's levels, so that
    each step extends and turn-filters its frontier node by node instead of
    reading them.
    """
    table = lockstep_tables(g, store, queries)

    def conf(i):
        return LocalizerConfig() if i < plain else cfg

    states = [start_candidates(g, table[0], exclusions, conf(0))]
    for i in range(1, len(queries[0])):
        if not cached:
            states[-1].keys = None
        bits = (None if patterns is None or i < plain
                else [turns[i - 1] for turns in patterns])
        states.append(advance_candidates(states[-1], table[i], bits, conf(i)))
    return states


def level_arrays(tree, key):
    """``tree.levels[key]`` as (nodes, rows, counts) arrays, a run of nodes unpacked."""
    nodes, rows, counts = tree.levels[key]
    if rows is None:
        nodes = np.arange(nodes.start, nodes.stop)
        rows = tree.row[nodes]
    return nodes, rows, counts


def level_routes(tree, key):
    """(n, m) graph rows of ``tree.levels[key]``'s routes, walked back through the levels.

    Each level's counts alone give every route's position in the level
    before it, so this does not read the tree's parents.
    """
    pos = np.arange(len(tree.levels[key][0]))
    path = []
    for t in range(len(key), 0, -1):
        child, rows, counts = level_arrays(tree, key[:t])
        assert np.array_equal(rows, tree.row[child])
        path.append(rows[pos])
        pos = np.repeat(np.arange(len(counts)), counts)[pos]
    return np.array(path[::-1]).T


def level_key(m, turns=None, plain=0):
    """The level key of a search of m locations that filters on ``turns`` from step ``plain``."""
    return (None,) + tuple(None if turns is None or i < plain else turns[i - 1]
                           for i in range(1, m))


def matching_routes(g, m, excl, turns=None, plain=0):
    """The routes of m locations whose turn bits match ``level_key(m, turns, plain)``."""
    key = level_key(m, turns, plain)
    return [r for r in enumerate_routes(g, m, excl)
            if all(b is None or b == t
                   for b, t in zip(key, (0, *(turn_pattern(r, g) if m > 1 else ()))))]


class ReferenceTree(localizer.RouteTree):
    """A route tree that tests every route position of each new child.

    Its ``expand`` reads each node's route back and drops neighbors already
    on it, and takes turn bits from a (row, in-neighbor, out-neighbor)
    table, with no successor tables and no girth.  Only the turn bit of
    ``step`` is set.
    """

    def __init__(self, g, exclusions):
        super().__init__(g, exclusions)
        allowed = g.allowed_mask(exclusions)
        nbr = g.neighbor_rows
        self.neighbors = np.where(allowed[nbr] & (nbr >= 0), nbr, -1)
        p, nbr0 = g.position_array, np.where(nbr >= 0, nbr, 0)
        bearings = segment_bearings(p[:, None], p[nbr0])
        # turns[r, i, j]: turn bit of going on from r's i-th neighbor to that one's j-th.
        self.turns = bearing_turns(bearings[:, :, None], bearings[nbr0])

    def expand(self, nodes, m):
        walks = self.walks(nodes, m)
        last = walks[-1]
        nbr = self.neighbors[last]
        ok = nbr >= 0
        for step in walks[:-1]:
            ok &= nbr != step[:, None]
        counts = ok.sum(axis=1)
        start, end = self.size, self.size + int(counts.sum())
        self._reserve(end)
        self.first[nodes] = start + np.cumsum(counts) - counts
        self.count[nodes] = counts
        self.size = end
        self.row[start:end] = nbr[ok]
        self.parent[start:end] = np.repeat(nodes, counts)
        self.first[start:end] = -1
        bits = np.zeros(end - start, dtype=bool)
        if m > 1:
            prev = walks[-2]
            into = (self.neighbors[prev] == last[:, None]).argmax(axis=1)
            bits = self.turns[prev, into][ok]
        self.step[start:end] = bits.astype(self.step.dtype) << self.turn_shift


def tree_arrays(tree):
    """A tree's row, parent, first and turn bits, and counts with unexpanded nodes at 0.

    ``_reserve`` grows the arrays with ``np.empty``, so an unexpanded node's
    count is whatever the memory held.
    """
    n = tree.size
    expanded = tree.first[:n] >= 0
    return (tree.row[:n], tree.parent[:n], tree.first[:n],
            np.where(expanded, tree.count[:n], 0), tree.step[:n] >> tree.turn_shift)


def reference_girth(g, exclusions=()):
    """Edges in the shortest cycle over the allowed locations (inf with no cycle).

    For each edge (u, v), a plain breadth-first search from u to v that may
    not take that edge: the shortest cycle through the edge is the path it
    finds plus the edge.
    """
    allowed = {loc.id for loc in g.locations() if not loc.tags & frozenset(exclusions)}
    best = np.inf
    for u in allowed:
        for v in g.neighbors_of(u):
            if v not in allowed or v < u:
                continue
            dist, queue = {u: 0}, [u]
            for x in queue:
                for w in g.neighbors_of(x):
                    if w in allowed and w not in dist and (x, w) != (u, v):
                        dist[w] = dist[x] + 1
                        queue.append(w)
            if v in dist:
                best = min(best, dist[v] + 1)
    return best


@st.composite
def girth_graphs(draw):
    """A graph and exclusions: a grid world with edge drops and excluded tunnels,
    a random-planar world, or pieces under shuffled ids, drawn from trees, bare
    rings (some longer than 127 locations) and small random graphs."""
    kind = draw(st.sampled_from(["grid", "planar", "pieces"]))
    exclusions = ("tunnel",) if draw(st.booleans()) else ()
    if kind != "pieces":
        block_len = draw(st.integers(1, 4))
        return generate_synthetic_world(SyntheticWorldConfig(
            layout="grid" if kind == "grid" else "random-planar",
            node_count=draw(st.integers(4 * block_len, 60)), seed=draw(st.integers(0, 99)),
            block_len=block_len,
            edge_drop_prob=draw(st.sampled_from([0.0, 0.2, 0.4])),
            tag_densities={"tunnel": draw(st.sampled_from([0.0, 0.15]))})), exclusions
    edges, n = [], 0
    for piece in draw(st.lists(st.sampled_from(["tree", "ring", "long ring", "random"]),
                               min_size=1, max_size=4)):
        if piece == "tree":
            size = draw(st.integers(1, 12))
            edges += [(n + i, n + draw(st.integers(0, i - 1))) for i in range(1, size)]
        elif piece == "random":
            size = draw(st.integers(2, 8))
            pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
            edges += [(n + i, n + j) for i, j in
                      draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * size))]
        else:
            size = draw(st.integers(128, 160) if piece == "long ring" else st.integers(3, 12))
            edges += [(n + i, n + (i + 1) % size) for i in range(size)]
        n += size
    ids = draw(st.permutations(range(n)))
    tunnels = draw(st.sets(st.integers(0, n - 1), max_size=3))
    nbrs = {i: set() for i in range(n)}
    for i, j in edges:
        nbrs[ids[i]].add(ids[j])
        nbrs[ids[j]].add(ids[i])
    return MapGraph([Location(i, (10.0 * i, 10.0 * (i % 7)), 0.0, tuple(sorted(nbrs[i])),
                              frozenset({"tunnel"} if i in tunnels else ()))
                     for i in range(n)]), exclusions


def reference_smallest(dists, bounds, keep):
    """Ascending positions of each segment's keep[q] smallest, by (distance, position)."""
    parts = [lo + np.sort(np.lexsort((np.arange(hi - lo), dists[lo:hi]))[:k])
             for lo, hi, k in zip(bounds[:-1], bounds[1:], keep)]
    return np.concatenate([np.arange(0)] + parts)


def turn_filtered(routes, g, turns):
    """The routes whose turn pattern is ``turns``; all of them when it is None."""
    return [r for r in routes if turns is None or turn_pattern(r, g) == tuple(turns)]


def oracle_ranking(query, routes, store, graph=None, turns=None):
    """Score every route by brute force and sort by (distance, id sequence)."""
    scored = []
    for r in routes:
        if turns is not None and turn_pattern(r, graph) != tuple(turns):
            continue
        d = sum(float(np.linalg.norm(query[i] - store.vectors[store.rows_of(loc)]))
                for i, loc in enumerate(r))
        scored.append((d, tuple(r)))
    scored.sort()
    return [(r, d) for d, r in scored]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cull_fraction=-0.1),
            dict(cull_fraction=1.0),
            dict(cull_floor=0),
            dict(cull_fraction=float("nan")),
            dict(cull_fraction=float("inf")),
            dict(cull_floor=float("nan")),
            dict(cull_fraction=0.95, cull_floor=2.5),
            dict(cull_floor=float("inf")),
            dict(cull_floor=100.0),
            dict(cull_floor=True),
            dict(cull_floor=np.bool_(True)),
            dict(cull_floor="3"),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LocalizerConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        assert LocalizerConfig(cull_floor=np.int64(5)).cull_floor == 5

    def test_frozen(self):
        cfg = LocalizerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cull_floor = 3


class TestLocalizeFull:
    def test_matches_brute_force(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=25, seed=30))
        store = make_store(g, seed=2)
        routes = enumerate_routes(g, 4)
        rng = np.random.default_rng(3)
        for trial in range(5):
            q = rng.normal(0.0, 1.0, (4, DIM))
            got = localize_full(q, routes, store)
            want = oracle_ranking(q, routes, store)
            assert [r for r, _ in got] == [r for r, _ in want]
            np.testing.assert_allclose([d for _, d in got], [d for _, d in want],
                                       rtol=1e-12)

    def test_all_ties_rank_lexicographically(self, path_graph):
        # Identical store vectors make every candidate equidistant, so the
        # ranking must be exactly the sorted id sequences.
        store = DescriptorStore(path_graph.id_array, np.ones((5, DIM)))
        routes = enumerate_routes(path_graph, 3)
        q = np.zeros((3, DIM))
        got = localize_full(q, routes, store)
        assert [r for r, _ in got] == sorted(routes)
        assert len({d for _, d in got}) == 1

    def test_turn_filter_matches_oracle(self, tee_graph):
        # Routes filtered by turn pattern, then ranked, rank like the oracle.
        store = make_store(tee_graph, seed=6)
        routes = enumerate_routes(tee_graph, 3)
        q = np.random.default_rng(7).normal(0, 1, (3, DIM))
        for turns in [(0, 0), (0, 1)]:
            got = localize_full(q, turn_filtered(routes, tee_graph, turns), store)
            want = oracle_ranking(q, routes, store, graph=tee_graph, turns=turns)
            assert [r for r, _ in got] == [r for r, _ in want]
        # The straight pattern keeps the two horizontal routes only.
        straight = localize_full(q, turn_filtered(routes, tee_graph, (0, 0)), store)
        assert {r for r, _ in straight} == {(0, 1, 2), (2, 1, 0)}

    def test_turn_filter_can_empty(self, path_graph):
        # A collinear graph has no turns at all, so the stepped search and
        # the filtered reference both come out empty.
        store = make_store(path_graph, seed=8)
        q = np.zeros((3, DIM))
        want = localize_full(q, turn_filtered(enumerate_routes(path_graph, 3), path_graph,
                                              (0, 1)), store)
        assert want == []
        assert run_chain(path_graph, store, q, LocalizerConfig(), turns=(0, 1)).ranked() == want

    def test_empty_routes(self, path_graph):
        assert localize_full(np.zeros((3, DIM)), [], make_store(path_graph)) == []

    def test_validation(self, tee_graph):
        store = make_store(tee_graph)
        with pytest.raises(ValueError, match="query must be"):
            localize_full(np.zeros(DIM), [(0, 1)], store)
        with pytest.raises(ValueError, match="query length"):
            localize_full(np.zeros((2, DIM)), [(0, 1, 2)], store)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_query(self, tee_graph, bad):
        q = np.zeros((2, DIM))
        q[1, 2] = bad
        with pytest.raises(ValueError, match="query descriptors must be finite"):
            localize_full(q, [(0, 1)], make_store(tee_graph))


class TestStepping:
    def test_chain_equals_full_ranking(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=31))
        store = make_store(g, seed=9)
        q = np.random.default_rng(10).normal(0, 1, (4, DIM))
        cfg = LocalizerConfig()
        state = run_chain(g, store, q, cfg)
        assert state.length_m == 4
        want = localize_full(q, enumerate_routes(g, 4), store)
        got = state.ranked()
        assert [r for r, _ in got] == [r for r, _ in want]
        np.testing.assert_allclose([d for _, d in got], [d for _, d in want],
                                   rtol=1e-12)

    def test_chain_with_turns_equals_full(self, tee_graph):
        store = make_store(tee_graph, seed=11)
        q = np.random.default_rng(12).normal(0, 1, (3, DIM))
        truth = (0, 1, 3)
        turns = turn_pattern(truth, tee_graph)
        state = run_chain(tee_graph, store, q, LocalizerConfig(), turns=turns)
        want = localize_full(q, turn_filtered(enumerate_routes(tee_graph, 3), tee_graph,
                                              turns), store)
        assert state.ranked() == want

    @given(tie_heavy_searches(), maybe_turns)
    @settings(max_examples=150, deadline=None)
    def test_stepped_turn_search_equals_full_search(self, search, with_turns):
        # Stepping with turn bits equals the full search given those bits;
        # stepping with None equals the unfiltered full search.
        g, store, q, turns = search
        turns = turns if with_turns else None
        state = run_chain(g, store, q, LocalizerConfig(), turns=turns)
        want = localize_full(q, turn_filtered(enumerate_routes(g, len(q)), g, turns), store)
        assert state.ranked() == want
        assert state.top(3) == want[:3]

    def test_top_matches_ranked_prefix(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=32))
        store = make_store(g, seed=15)
        q = np.random.default_rng(16).normal(0, 1, (3, DIM))
        state = run_chain(g, store, q, LocalizerConfig())
        full = state.ranked()
        assert len(full) == state.size
        for k in (0, 1, 5, 17, state.size + 10):
            assert state.top(k) == full[:k]
            assert state.ranked(top_k=k) == full[:k]

    def test_exclusions_respected(self, tee_graph):
        store = make_store(tee_graph, seed=17)
        q = np.random.default_rng(18).normal(0, 1, (2, DIM))
        cfg = LocalizerConfig()
        costs = cost_table(tee_graph, store, q)
        state = start_candidates(tee_graph, costs[0], ("tunnel",), cfg)
        state = advance_candidates(state, costs[1], None, cfg)
        visited = {loc for route, _ in state.ranked() for loc in route}
        assert 2 not in visited
        want = localize_full(q, enumerate_routes(tee_graph, 2, ("tunnel",)), store)
        assert state.ranked() == want

    def test_dead_state_stays_empty(self, path_graph):
        # Demanding a turn on a collinear graph kills every candidate.
        store = make_store(path_graph, seed=19)
        q = np.random.default_rng(20).normal(0, 1, (3, DIM))
        cfg = LocalizerConfig()
        costs = cost_table(path_graph, store, q)
        state = start_candidates(path_graph, costs[0], (), cfg)
        state = advance_candidates(state, costs[1], 0, cfg)
        assert state.size > 0
        state = advance_candidates(state, costs[2], 1, cfg)
        assert state.size == 0 and state.ranked() == []
        state = advance_candidates(state, costs[2], 0, cfg)
        assert state.size == 0

    def test_cost_vector_length_checked(self, path_graph):
        with pytest.raises(ValueError, match="one entry per location"):
            start_candidates(path_graph, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_start_rejects_non_finite_costs(self, path_graph, bad):
        costs = np.zeros(5)
        costs[2] = bad
        with pytest.raises(ValueError, match="finite"):
            start_candidates(path_graph, costs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_advance_rejects_non_finite_costs(self, path_graph, bad):
        state = start_candidates(path_graph, np.zeros(5))
        costs = np.zeros(5)
        costs[0] = bad
        with pytest.raises(ValueError, match="finite"):
            advance_candidates(state, costs)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_advance_rejects_bits_other_than_0_or_1(self, tee_graph, bad):
        one = start_candidates(tee_graph, np.zeros(4))
        two = start_candidates(tee_graph, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="turn bits must be 0 or 1"):
            advance_candidates(one, np.zeros(4), bad)
        with pytest.raises(ValueError, match="turn bits must be 0 or 1"):
            advance_candidates(two, np.zeros((2, 4)), [0, bad])
        # Booleans and 0/1 of any numeric type are bits.
        for bit in (True, 0.0, np.uint8(1)):
            advance_candidates(one, np.zeros(4), bit)


class TestCulling:
    def test_keep_count(self, path_graph):
        cfg = LocalizerConfig(cull_fraction=0.3, cull_floor=2)
        state = start_candidates(path_graph, [0.5, 0.1, 0.4, 0.2, 0.3], (), cfg)
        # n=5: drop ceil(0.3 * 5) = 2, keep 3 (floor of 2 does not bind).
        assert state.size == 3
        kept = {route[0] for route, _ in state.ranked()}
        assert kept == {1, 3, 4}

    def test_floor_binds(self, path_graph):
        cfg = LocalizerConfig(cull_fraction=0.9, cull_floor=4)
        state = start_candidates(path_graph, np.arange(5.0), (), cfg)
        assert state.size == 4

    def test_no_cull_at_or_below_floor(self, path_graph):
        cfg = LocalizerConfig(cull_fraction=0.9, cull_floor=5)
        state = start_candidates(path_graph, np.arange(5.0), (), cfg)
        assert state.size == 5

    def test_boundary_ties_break_lexicographically(self, path_graph):
        cfg = LocalizerConfig(cull_fraction=0.4, cull_floor=1)
        # keep 3 of 5; the three cost-1 candidates tie at the boundary and
        # ids 1 and 2 win over 3.
        state = start_candidates(path_graph, [5.0, 1.0, 1.0, 1.0, 0.0], (), cfg)
        kept = {route[0] for route, _ in state.ranked()}
        assert kept == {4, 1, 2}

    def test_cull_during_advance(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=40, seed=33))
        store = make_store(g, seed=21)
        q = np.random.default_rng(22).normal(0, 1, (3, DIM))
        cfg = LocalizerConfig(cull_fraction=0.5, cull_floor=5)
        state = run_chain(g, store, q, cfg)
        plain = run_chain(g, store, q, LocalizerConfig())
        assert state.size < plain.size
        # Every culled survivor appears in the exhaustive set with equal cost.
        want = dict(plain.ranked())
        for route, dist in state.ranked():
            assert route in want
            assert dist == pytest.approx(want[route], rel=1e-12)

    @given(tie_heavy_searches(), search_configs, st.booleans(), maybe_turns)
    @settings(max_examples=150, deadline=None)
    def test_culled_ranking_is_a_subset_of_full(self, search, cfg, exclude, with_turns):
        g, store, q, turns = search
        turns = turns if with_turns else None
        excl = ("tunnel",) if exclude else ()
        culled = run_chain(g, store, q, cfg, turns, excl).ranked()
        full = run_chain(g, store, q, dataclasses.replace(cfg, cull_fraction=0.0), turns,
                         excl).ranked()
        kept = {route for route, _ in culled}
        assert len(kept) == len(culled)
        assert culled == [(route, dist) for route, dist in full if route in kept]


class TestLockstep:
    @given(lockstep_searches(), search_configs, st.booleans(), st.booleans(), maybe_turns)
    @settings(max_examples=150, deadline=None)
    def test_equals_separate_searches(self, search, cfg, exclude, grown, with_turns):
        g, store, queries, patterns = search
        excl = ("tunnel",) if exclude else ()
        fresh = MapGraph(list(g.locations()))
        if grown:
            # An earlier query grows the tree the lockstep search then uses.
            run_chain(g, store, queries[-1][::-1], cfg, patterns[-1][::-1], excl)
        if not with_turns:
            patterns = None
        together = lockstep_chain(g, store, queries, cfg, patterns, excl)
        for q, query in enumerate(queries):
            turns = None if patterns is None else patterns[q]
            costs = cost_table(fresh, store, query)
            alone = start_candidates(fresh, costs[0], excl, cfg)
            for i, state in enumerate(together):
                if i:
                    bit = None if turns is None else turns[i - 1]
                    alone = advance_candidates(alone, costs[i], bit, cfg)
                assert state.queries == len(queries)
                assert state.sizes[q] == alone.size
                assert state.top(state.sizes[q], q) == alone.ranked()
                for k in (0, 1, 3, alone.size + 2):
                    assert state.top(k, q) == alone.top(k)
        assert together[-1].size == sum(together[-1].sizes)
        if not grown:
            # Each route reached by several queries is expanded once.
            assert together[-1].tree.size == alone.tree.size

    def test_one_dimensional_costs_are_one_query(self, tee_graph):
        costs = np.arange(4.0)
        one = start_candidates(tee_graph, costs)
        table = start_candidates(tee_graph, costs[None])
        assert one.queries == table.queries == 1
        assert one.ranked() == table.ranked()
        assert advance_candidates(one, costs, 1).ranked() == \
            advance_candidates(table, costs[None], [1]).ranked()

    def test_empty_graph(self):
        g = MapGraph([])
        state = start_candidates(g, np.zeros((2, 0)))
        state = advance_candidates(state, np.zeros((2, 0)), [0, 1])
        assert list(state.sizes) == [0, 0] and state.top(state.sizes[1], 1) == []

    def test_shapes_checked(self, tee_graph):
        state = start_candidates(tee_graph, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="2 row"):
            advance_candidates(state, np.zeros(4))
        with pytest.raises(ValueError, match="one entry per location"):
            start_candidates(tee_graph, np.zeros((0, 4)))
        with pytest.raises(ValueError, match="turn bit"):
            advance_candidates(state, np.zeros((2, 4)), [0, 1, 1])
        with pytest.raises(IndexError, match="query 2"):
            state.top(5, 2)
        with pytest.raises(IndexError, match="query -1"):
            state.top(5, -1)


class TestBudget:
    @pytest.fixture
    def lattice(self):
        """A block_len=1 lattice: every location is a junction, so routes multiply."""
        return generate_synthetic_world(SyntheticWorldConfig(node_count=64, spacing=10.0,
                                                             seed=35, block_len=1))

    def test_frontier_budget(self, lattice):
        costs = np.zeros(len(lattice))
        state = start_candidates(lattice, costs)
        with mock.patch.object(localizer, "_MAX_FRONTIER", 1000):
            with pytest.raises(localizer.CandidateBudgetError,
                               match="past the budget of 1000"):
                for _ in range(10):
                    state = advance_candidates(state, costs)
            assert 1000 / 4 < state.size <= 1000
        assert issubclass(localizer.CandidateBudgetError, ValueError)

    def test_frontier_budget_is_per_query(self, lattice):
        costs = np.zeros((3, len(lattice)))
        state = start_candidates(lattice, costs)
        with mock.patch.object(localizer, "_MAX_FRONTIER", 1000):
            while state.sizes.max() * 3 <= 1000:
                state = advance_candidates(state, costs)
        assert state.size > 1000

    def test_frontier_budget_on_cached_levels(self, lattice):
        costs = np.zeros(len(lattice))
        state = start_candidates(lattice, costs)
        for _ in range(4):
            state = advance_candidates(state, costs)
        tree, nodes = state.tree, state.tree.size
        size = len(tree.levels[level_key(5)][0])
        # A later search takes length 5 from the levels, and the budget still binds it.
        state = start_candidates(lattice, costs)
        with mock.patch.object(localizer, "_MAX_FRONTIER", size - 1):
            with pytest.raises(localizer.CandidateBudgetError,
                               match=f"build {size} candidates"):
                for _ in range(4):
                    state = advance_candidates(state, costs)
        assert state.keys == [level_key(4)] and state.length_m == 4 and tree.size == nodes
        # The budget is per query: three queries of that size fit a budget of one.
        state = start_candidates(lattice, np.zeros((3, len(lattice))))
        with mock.patch.object(localizer, "_MAX_FRONTIER", size):
            for _ in range(4):
                state = advance_candidates(state, np.zeros((3, len(lattice))))
        assert list(state.sizes) == [size] * 3

    def test_tree_budget(self, lattice):
        costs = np.zeros(len(lattice))
        cfg = LocalizerConfig(cull_fraction=0.5, cull_floor=10)
        state = start_candidates(lattice, costs, (), cfg)
        with mock.patch.object(localizer, "_MAX_TREE_NODES", 2000):
            with pytest.raises(localizer.CandidateBudgetError, match="route tree"):
                for _ in range(30):
                    state = advance_candidates(state, costs, None, cfg)
            assert state.tree.size <= 2000
        # The tree a failed step leaves behind still searches correctly.
        grown = run_chain(lattice, make_store(lattice), np.ones((6, DIM)), LocalizerConfig())
        fresh = MapGraph(list(lattice.locations()))
        assert grown.ranked() == run_chain(fresh, make_store(fresh), np.ones((6, DIM)),
                                           LocalizerConfig()).ranked()

    def test_many_culled_searches_fit_the_tree_budget(self, lattice):
        # Each culled search adds about 3.5k nodes to the shared tree and needs
        # under 5k by itself: 20 of them overrun one tree of 16k nodes.
        cfg = LocalizerConfig(cull_fraction=0.5, cull_floor=10)
        rng = np.random.default_rng(6)
        with mock.patch.object(localizer, "_MAX_TREE_NODES", 16000):
            first = start_candidates(lattice, rng.random(len(lattice)), (), cfg)
            trees = set()
            for _ in range(20):
                state = start_candidates(lattice, rng.random(len(lattice)), (), cfg)
                for _ in range(11):
                    state = advance_candidates(state, rng.random(len(lattice)), None, cfg)
                trees.add(id(state.tree))
                assert state.tree.size <= 16000
            # A search started on an earlier tree goes on in that tree.
            tree = first.tree
            for _ in range(11):
                first = advance_candidates(first, np.zeros(len(lattice)), None, cfg)
            assert first.tree is tree
        assert len(trees) > 1


class TestRouteTree:
    @given(tie_heavy_searches(), search_configs, st.booleans(),
           st.lists(st.tuples(search_configs, st.booleans(), st.booleans()), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_grown_tree_ranks_like_a_fresh_one(self, search, cfg, exclude, earlier):
        g, store, q, turns = search
        excl = ("tunnel",) if exclude else ()
        want = run_chain(MapGraph(list(g.locations())), store, q, cfg, turns, excl).ranked()
        # Earlier queries, with or without turn bits, grow g's trees, some
        # the tree the last query uses.
        for other, same_tree, other_turns in earlier:
            run_chain(g, store, q[::-1], other, turns[::-1] if other_turns else None,
                      excl if same_tree else () if exclude else ("tunnel",))
        assert run_chain(g, store, q, cfg, turns, excl).ranked() == want

    @given(fuzzed_graphs(), st.integers(1, 5), search_configs, maybe_turns)
    @settings(max_examples=60, deadline=None)
    def test_every_node_records_its_parent(self, g, length, cfg, with_turns):
        costs = np.random.default_rng(length).integers(0, 3, (length, len(g))).astype(float)
        # A culled search expands some nodes; an unculled one fills the levels.
        for search in (cfg, LocalizerConfig()):
            state = start_candidates(g, costs[0], (), search)
            for i in range(1, length):
                bit = i % 2 if with_turns and search is cfg else None
                state = advance_candidates(state, costs[i], bit, search)
        tree = state.tree
        assert (tree.parent[:tree.roots] == -1).all()
        expanded = np.flatnonzero(tree.first[:tree.size] >= 0)
        counts = tree.count[expanded].astype(np.int64)
        children = np.concatenate([np.arange(0)] + [np.arange(f, f + c) for f, c in
                                                    zip(tree.first[expanded], counts)])
        # Every expanded node's children name it as their parent, and every
        # other node is one such child.
        assert np.array_equal(tree.parent[children], np.repeat(expanded, counts))
        assert np.array_equal(np.sort(children), np.arange(tree.roots, tree.size))
        for key in tree.levels:
            child = level_arrays(tree, key)[0]
            assert np.array_equal(tree.walks(child, len(key)), level_routes(tree, key).T)

    @given(fuzzed_graphs(), st.booleans(), st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tree_equals_one_that_tests_every_position(self, g, exclude, length, seed):
        excl = frozenset({"tunnel"} if exclude else ())
        trees = [localizer.RouteTree(g, excl), ReferenceTree(g, excl)]
        rng = np.random.default_rng(seed)
        nodes = np.arange(trees[0].roots)
        for m in range(1, length):
            # Some nodes stay unexpanded, as in a culled or turn-filtered search.
            nodes = nodes[rng.random(len(nodes)) < 0.8]
            before = trees[0].size
            for tree in trees:
                tree.expand(nodes, m)
            nodes = np.arange(before, trees[0].size)
            if len(nodes) > 5000:
                break
        for got, want in zip(tree_arrays(trees[0]), tree_arrays(trees[1])):
            assert np.array_equal(got, want)

    def test_lattice_routes_past_the_girth(self):
        # Every location of a block_len-1 lattice closes 4-cycles, so routes of
        # 5 or more locations must be tested against earlier positions.
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=36, seed=3, block_len=1))
        trees = [localizer.RouteTree(g, frozenset()), ReferenceTree(g, frozenset())]
        for tree in trees:
            nodes = np.arange(tree.roots)
            for m in range(1, 9):
                before = tree.size
                tree.expand(nodes, m)
                nodes = np.arange(before, tree.size)
        assert trees[0].girth(8) == reference_girth(g) == 4
        for got, want in zip(tree_arrays(trees[0]), tree_arrays(trees[1])):
            assert np.array_equal(got, want)
        assert {tuple(r) for r in g.id_array[trees[0].walks(nodes, 9).T].tolist()} == \
            enumerate_routes(g, 9)

    @staticmethod
    def hub_graph(n, hub):
        """A path of n locations whose first location also joins locations 2 .. hub + 1."""
        nbrs = {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}
        for j in range(2, hub + 2):
            nbrs[0].add(j)
            nbrs[j].add(0)
        return MapGraph([Location(i, (10.0 * i, 10.0 * (i % 7)), 0.0, tuple(sorted(nbrs[i])))
                         for i in range(n)])

    def test_tables_grow_with_the_degrees_not_the_widest_row(self):
        # One hub widens the padded neighbor table of every location.
        small = self.hub_graph(120, 30)
        trees = [localizer.RouteTree(small, frozenset()), ReferenceTree(small, frozenset())]
        for tree in trees:
            nodes = np.arange(tree.roots)
            for m in range(1, 5):
                before = tree.size
                tree.expand(nodes, m)
                nodes = np.arange(before, tree.size)
        for got, want in zip(tree_arrays(trees[0]), tree_arrays(trees[1])):
            assert np.array_equal(got, want)
        # 2000 locations, one of degree 61: a table per (row, column, column)
        # would hold 7.4M entries; the successor tables hold about 8k.
        big = self.hub_graph(2000, 60)
        big.neighbor_rows
        tracemalloc.start()
        try:
            localizer.RouteTree(big, frozenset())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @given(fuzzed_graphs(), st.booleans(), st.lists(st.integers(1, 14), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_girth_matches_breadth_first_search(self, g, exclude, depths):
        excl = ("tunnel",) if exclude else ()
        tree = localizer.RouteTree(g, frozenset(excl))
        want = reference_girth(g, excl)
        # Asked lazily, deeper each time: exact up to the depth asked, a bound past it.
        for m in sorted(depths):
            assert tree.girth(m) == min(want, max(m + 1, 3))

    @given(girth_graphs(), st.permutations(range(1, 31)))
    @settings(max_examples=60, deadline=None)
    def test_girth_is_a_bound_exact_up_to_the_depth_asked(self, graph, depths):
        g, excl = graph
        want = reference_girth(g, excl)
        # Asked deeper each time, as expansions ask, and in any order.
        for order in (range(1, 31), depths):
            tree = localizer.RouteTree(g, frozenset(excl))
            for m in order:
                got = tree.girth(m)
                assert got <= want
                if want <= m:
                    assert got == want
        # Exact at any depth, past any byte-sized count.
        m = len(g) + 2
        assert localizer.RouteTree(g, frozenset(excl)).girth(m) == min(want, m + 1)

    @pytest.mark.parametrize("graph,exclusions,girth", [
        ("path_graph", (), np.inf), ("tee_graph", (), np.inf),
        ("square", (), 4), ("square", ("tunnel",), np.inf)])
    def test_girth_of_small_graphs(self, request, graph, exclusions, girth):
        if graph == "square":
            # 0 - 1 - 2 - 3 - 0, a 4-cycle broken when the tunnel at 2 is excluded.
            corners = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
            g = MapGraph([Location(i, corners[i], 0.0, ((i - 1) % 4, (i + 1) % 4),
                                   frozenset({"tunnel"} if i == 2 else ())) for i in range(4)])
        else:
            g = request.getfixturevalue(graph)
        assert reference_girth(g, exclusions) == girth
        assert localizer.RouteTree(g, frozenset(exclusions)).girth(10) == min(girth, 11)

    def test_girth_asked_a_length_at_a_time_doubles_its_search(self):
        # A block_len-10 grid's girth is 40.  Asked for 1 .. 20 in turn, as
        # expansions ask, it searches 2, 4, 8 and 16 levels deep, not at every
        # odd length.
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=2000, seed=0, block_len=10))
        tree = localizer.RouteTree(g, frozenset())
        with mock.patch.object(localizer, "_shortest_cycle",
                               wraps=localizer._shortest_cycle) as search:
            assert [tree.girth(m) for m in range(1, 21)] == [max(m + 1, 3) for m in range(1, 21)]
        assert search.call_count <= 4
        assert tree.girth(40) == 40

    @pytest.mark.parametrize("cfg,bit", [(LocalizerConfig(cull_fraction=0.5, cull_floor=2), None),
                                         (LocalizerConfig(cull_fraction=0.5, cull_floor=2), 0)])
    def test_a_state_holds_only_its_frontier(self, cfg, bit):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=37))
        costs = np.random.default_rng(27).normal(0, 1, (3, len(g)))
        earlier = advance_candidates(start_candidates(g, costs[0], (), cfg), costs[1], bit, cfg)
        # Culled, so its frontier, turn-filtered or not, is not one of the tree's levels.
        assert earlier.keys is None
        frontier = weakref.ref(earlier._nodes)
        state = advance_candidates(earlier, costs[2], bit, cfg)
        del earlier
        gc.collect()
        assert frontier() is None
        assert len(state.top(3)) == 3

    def test_one_tree_per_exclusion_set(self, tee_graph):
        costs = np.zeros(4)
        tree = start_candidates(tee_graph, costs).tree
        other_cfg = LocalizerConfig(cull_fraction=0.5, cull_floor=1)
        assert start_candidates(tee_graph, costs, (), other_cfg).tree is tree
        assert advance_candidates(start_candidates(tee_graph, costs), costs, 1).tree is tree
        assert start_candidates(tee_graph, costs, ("tunnel",)).tree is not tree
        assert start_candidates(tee_graph, costs, ["tunnel", "tunnel"]).tree is \
            start_candidates(tee_graph, costs, ("tunnel",)).tree
        assert set(localizer._route_trees[tee_graph]) == {frozenset(), frozenset({"tunnel"})}

    def test_graph_and_tree_are_freed_with_the_last_reference(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=34))
        store = make_store(g, seed=23)
        q = np.random.default_rng(24).normal(0, 1, (4, DIM))
        # Unculled searches fill the levels, complete and turn-filtered; a
        # culled one then shares the tree.
        run_chain(g, store, q, LocalizerConfig())
        run_chain(g, store, q, LocalizerConfig(), turns=(0, 1, 0))
        state = run_chain(g, store, q, LocalizerConfig(cull_fraction=0.5, cull_floor=5))
        assert state.top(3)
        levels = state.tree.levels
        assert {level_key(m) for m in range(1, 5)} | {(None, 0), (None, 0, 1)} <= set(levels)
        # Turn-filtered levels hold their own node and row arrays.
        assert levels[(None, 0, 1)][1] is not None
        arrays = [a for level in levels.values() for a in level if isinstance(a, np.ndarray)]
        del levels
        refs = [weakref.ref(g), weakref.ref(state.tree), *map(weakref.ref, arrays)]
        del arrays
        del g, state
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)


class TestLevels:
    def test_complete_search_fills_the_levels_with_its_own_steps(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=36))
        store = make_store(g, seed=25)
        q = np.random.default_rng(26).normal(0, 1, (5, DIM))
        states = lockstep_chain(g, store, [q], LocalizerConfig())
        tree = states[-1].tree
        assert [s.keys for s in states] == [[level_key(m)] for m in range(1, 6)]
        assert sorted(tree.levels, key=len) == [level_key(m) for m in range(1, 6)]
        for m, state in enumerate(states, 1):
            # The first search on a fresh tree grows each complete level in
            # order, so the level is one run of nodes with no arrays of its own
            # but its counts, and a one-query set on it holds that run.
            nodes, rows, counts = tree.levels[level_key(m)]
            assert isinstance(nodes, range) and rows is None
            assert state._nodes is nodes
            # One count per route of the level before: the empty route's for m = 1.
            before = level_arrays(tree, level_key(m - 1))[0] if m > 1 else np.arange(1)
            assert len(counts) == len(before) and counts.sum() == len(nodes)
            if m > 1:
                assert counts.dtype == tree.count.dtype
                assert np.array_equal(counts, tree.count[before])
            assert {tuple(r) for r in g.id_array[level_routes(tree, level_key(m))].tolist()} == \
                enumerate_routes(g, m)
        # A later complete search steps over the same levels.
        again = lockstep_chain(g, store, [q[::-1]], LocalizerConfig())
        assert all(a._nodes is b._nodes for a, b in zip(again, states))

    def test_turn_filtered_search_fills_a_level_per_turn_bit_prefix(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=36))
        store = make_store(g, seed=25)
        q = np.random.default_rng(26).normal(0, 1, (5, DIM))
        turns = turn_pattern(simulate_routes(g, 1, 5, seed=4)[0], g)
        states = lockstep_chain(g, store, [q], LocalizerConfig(), [turns])
        tree = states[-1].tree
        assert sorted(tree.levels, key=len) == [level_key(m, turns) for m in range(1, 6)]
        for m, state in enumerate(states, 1):
            key = level_key(m, turns)
            assert state.keys == [key]
            # The frontier is the level: every route of m locations with the query's turn bits.
            nodes, _, counts = level_arrays(tree, key)
            assert np.array_equal(state._nodes, nodes) and counts.sum() == len(nodes)
            assert {tuple(r) for r in g.id_array[level_routes(tree, key)].tolist()} == \
                set(matching_routes(g, m, (), turns))

    @pytest.mark.parametrize("method", ["ES", "ES+T", "T-only"])
    def test_a_repeated_unculled_search_extends_nothing(self, method):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=200, seed=38))
        store = make_store(g, seed=28)
        rng = np.random.default_rng(29)
        truths = simulate_routes(g, 3, 8, seed=5)
        queries = [rng.normal(0, 1, (8, DIM)) for _ in truths]
        patterns = None if method == "ES" else [turn_pattern(t, g) for t in truths]

        if method == "T-only":
            # All-zero costs: only the turn bits tell routes apart.
            store = DescriptorStore(g.id_array, np.zeros((len(g), DIM)))
            queries = [np.zeros((8, DIM)) for _ in truths]

        def search():
            """Every state's ranking, and how often the search grew the tree."""
            with mock.patch.object(localizer, "_extend", wraps=localizer._extend) as extend, \
                    mock.patch.object(localizer.RouteTree, "expand", autospec=True,
                                      side_effect=localizer.RouteTree.expand) as expand:
                states = lockstep_chain(g, store, queries, LocalizerConfig(), patterns)
                ranked = [[s.top(s.sizes[q], q) for q in range(len(queries))] for s in states]
            return ranked, extend.call_count + expand.call_count

        # The first search on a fresh tree fills the levels; the same search
        # again reads them and grows nothing.
        first, grown = search()
        again, regrown = search()
        assert grown > 0 and regrown == 0
        assert again == first

    @given(fuzzed_graphs(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_filtered_levels_hold_each_node_once_per_length(self, g, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            m = int(rng.integers(2, 7))
            queries = int(rng.integers(1, 4))
            costs = rng.integers(0, 3, (m, queries, len(g))).astype(float)
            # Bits that filter every step after the first, or none; no route turns
            # on its second location, so a pattern that starts with 1 matches none.
            patterns = rng.integers(0, 2, (queries, m - 1))
            patterns[rng.random(queries) < 0.8, 0] = 0
            complete = rng.random() < 0.2
            state = start_candidates(g, costs[0])
            for i in range(1, m):
                state = advance_candidates(state, costs[i], None if complete else patterns[:, i - 1])
        tree = state.tree
        for m in {len(key) for key in tree.levels}:
            filtered = [level_arrays(tree, key)[0] for key in tree.levels
                        if len(key) == m and any(b is not None for b in key)]
            nodes = np.concatenate([np.arange(0)] + filtered)
            # Disjoint sets of the tree's nodes, so at most one filtered entry per node.
            assert len(np.unique(nodes)) == len(nodes)
            assert (nodes >= 0).all() and (nodes < tree.size).all()
        # With the complete levels, at most two entries per node.
        assert sum(len(level[0]) for level in tree.levels.values()) <= 2 * tree.size

    @given(lockstep_searches(), search_configs, st.booleans(), st.integers(0, 4),
           st.booleans(), maybe_turns, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_cached_levels_rank_like_a_fresh_tree(self, search, cfg, exclude, plain,
                                                   lockstep, with_turns, impossible):
        g, store, queries, patterns = search
        excl = ("tunnel",) if exclude else ()
        if not lockstep:
            queries, patterns = queries[:1], patterns[:1]
        if impossible:
            # No route turns on its second location, so this pattern matches none.
            patterns = patterns[:-1] + [(1, *patterns[-1][1:])]
        if not with_turns:
            patterns = None
        turns = [None] * len(queries) if patterns is None else patterns
        states = mixed_chain(g, store, queries, cfg, patterns, excl, plain)
        tree = states[0].tree
        # A set stays on the levels until a step culls it: once the cull has
        # started, until some query's matching routes outnumber the cull floor.
        on_levels, filled = True, {level_key(1)}
        for i, state in enumerate(states):
            want = [matching_routes(g, i + 1, excl, t, plain) for t in turns]
            keys = [level_key(i + 1, t, plain) for t in turns]
            if on_levels:
                # A step taken from the levels fills its own, culled after or not.
                filled |= {key for key, w in zip(keys, want) if w}
            if i >= plain and cfg.cull_fraction > 0:
                on_levels &= max(map(len, want)) <= cfg.cull_floor
            if not on_levels:
                assert state.keys is None
                continue
            assert state.keys == keys
            assert list(state.sizes) == [len(w) for w in want]
            for q, w in enumerate(want):
                segment = localizer._ids(state._nodes)[state._bounds[q]:state._bounds[q + 1]]
                got = tree.walks(segment, i + 1).T
                assert {tuple(r) for r in g.id_array[got].tolist()} == set(w)
        # No other level is filled, and an empty one is never held: a pattern
        # that matches no route leaves no level.
        assert set(tree.levels) == filled
        assert not any(len(key) > 1 and key[1] == 1 for key in tree.levels)
        # Complete and fully turn-filtered searches fill more levels, which
        # then serve every step on the levels, whatever follows it.
        run_chain(g, store, queries[0], LocalizerConfig(), None, excl)
        lockstep_chain(g, store, queries, LocalizerConfig(), patterns, excl)
        cached = mixed_chain(g, store, queries, cfg, patterns, excl, plain)
        fresh = MapGraph(list(g.locations()))
        uncached = mixed_chain(fresh, store, queries, cfg, patterns, excl, plain, cached=False)
        assert len(localizer._route_trees[fresh][frozenset(excl)].levels) == 1
        for a, b, c in zip(states, cached, uncached):
            assert list(a.sizes) == list(b.sizes) == list(c.sizes)
            for q in range(len(queries)):
                assert a.top(a.sizes[q], q) == b.top(b.sizes[q], q) == c.top(c.sizes[q], q)
                assert a.top(2, q) == b.top(2, q) == c.top(2, q)


class TestSmallest:
    @given(st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 6)), min_size=1, max_size=4),
           st.sampled_from(["ties", "equal", "floats", "inf"]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_a_full_sort(self, segments, kind, seed):
        rng = np.random.default_rng(seed)
        bounds = np.concatenate([[0], np.cumsum([n for n, _ in segments])])
        keep = [min(k, n) for n, k in segments]    # k = 0 keeps none
        size = int(bounds[-1])
        # Sums of finite costs can reach +inf and -inf.
        signed_inf = np.where(rng.random(size) < 0.5, np.inf, -np.inf)
        dists = {"ties": rng.integers(0, 4, size).astype(float), "equal": np.full(size, 2.0),
                 "floats": rng.random(size),
                 "inf": np.where(rng.random(size) < 0.3, signed_inf,
                                 rng.integers(0, 4, size).astype(float))}[kind]
        got = localizer._smallest(dists, bounds, keep)
        if keep == [n for n, _ in segments]:
            assert got is None
        else:
            assert np.array_equal(got, reference_smallest(dists, bounds, keep))

    def test_large_segments_pick_through_a_sampled_threshold(self):
        rng = np.random.default_rng(5)
        dists = rng.integers(0, 60, 30000).astype(float)    # ties at every value
        # The first segment is too small to sample; the other two are sampled.
        bounds = np.array([0, 100, 20000, 30000])
        keep = [5, 5, 3]
        assert np.array_equal(localizer._smallest(dists, bounds, keep),
                              reference_smallest(dists, bounds, keep))
        # All-equal entries: the sample bounds the k-th smallest exactly.
        assert np.array_equal(localizer._smallest(np.zeros(5000), np.array([0, 5000]), [5]),
                              np.arange(5))


class TestCheckSuccess:
    def test_tail_agreement(self):
        assert check_success((9, 1, 2, 3), (8, 1, 2, 3), window=3)
        assert not check_success((9, 1, 2, 3), (8, 1, 2, 4), window=3)
        assert check_success((1, 2), (1, 2), window=2)

    def test_full_window_compares_everything(self):
        assert not check_success((1, 2, 3), (9, 2, 3), window=3)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            check_success((1, 2), (1, 2), window=0)
        with pytest.raises(ValueError, match="at least window"):
            check_success((1, 2), (1, 2, 3), window=3)


class TestRankedCsv:
    def test_round_trip(self, tmp_path):
        ranked = [((0, 1, 3), 2.5), ((2, 1, 0), 7.25)]
        path = tmp_path / "ranked.csv"
        write_ranked_csv(path, ranked)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "distance", "route"]
        assert rows[1] == ["1", "2.5", "0,1,3"]
        assert rows[2] == ["2", "7.25", "2,1,0"]
