"""Sequential route localization: ranking oracle, stepping, culling, turns."""
import contextlib
import csv
import dataclasses
import gc
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
    localize_step,
    route_distance,
    start_candidates,
    turn_pattern,
    write_ranked_csv,
)

DIM = 4


def make_store(g, seed=0):
    rng = np.random.default_rng(seed)
    return DescriptorStore(g.id_array, rng.normal(0.0, 1.0, (len(g), DIM)))


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
    ints = st.integers(0, 2)
    store = DescriptorStore(g.id_array, np.array(draw(st.lists(ints, min_size=n, max_size=n)),
                                                 dtype=np.float64)[:, None])
    m = draw(st.integers(2, 4))
    query = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.float64)[:, None]
    routes = sorted(enumerate_routes(g, m))
    if routes and draw(st.booleans()):
        turns = turn_pattern(draw(st.sampled_from(routes)), g)
    else:
        turns = tuple(draw(st.lists(st.integers(0, 1), min_size=m - 1, max_size=m - 1)))
    return g, store, query, turns


search_configs = st.builds(
    LocalizerConfig,
    use_turns=st.booleans(),
    cull_fraction=st.sampled_from([0.0, 0.3, 0.6]),
    cull_floor=st.integers(1, 4),
    turn_threshold=st.sampled_from([10.0, 30.0, 60.0]),
)


# Limits on the route locations a frontier carries: none carried (routes
# are always rebuilt from the steps), carried for a few steps only, default.
carry_limits = st.sampled_from([0, 12, None])


@contextlib.contextmanager
def carry_limit(limit):
    if limit is None:
        yield
    else:
        with mock.patch.object(localizer, "_CARRY_LIMIT", limit):
            yield


def run_chain(g, store, q, cfg, turns=None, exclusions=(), carry=None):
    """Stepped search over the query q, with query turn bits when given."""
    with carry_limit(carry):
        state = start_candidates(g, store.cost_vector(q[0], g.id_array), exclusions, cfg)
        for i in range(1, len(q)):
            bit = None if turns is None else turns[i - 1]
            state = localize_step(state, q[i], bit, g, store, cfg)
    return state


def oracle_ranking(query, routes, store, graph=None, turns=None, threshold=30.0):
    """Score every route by brute force and sort by (distance, id sequence)."""
    scored = []
    for r in routes:
        if turns is not None and turn_pattern(r, graph, threshold) != tuple(turns):
            continue
        d = sum(float(np.linalg.norm(query[i] - store.vector(loc)))
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
            dict(top_k=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LocalizerConfig(**kwargs)

    def test_frozen(self):
        cfg = LocalizerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.top_k = 3


class TestRouteDistance:
    def test_hand_case(self):
        q = np.array([[0.0, 0.0], [1.0, 1.0]])
        c = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert route_distance(q, c) == pytest.approx(5.0)

    def test_matches_loop(self):
        rng = np.random.default_rng(1)
        q, c = rng.normal(0, 1, (2, 6, 3))
        want = sum(float(np.linalg.norm(q[i] - c[i])) for i in range(6))
        assert route_distance(q, c) == pytest.approx(want, rel=1e-15)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="share shape"):
            route_distance(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="share shape"):
            route_distance(np.ones(3), np.ones(3))


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

    def test_top_k_prefix(self, tee_graph):
        store = make_store(tee_graph, seed=4)
        routes = enumerate_routes(tee_graph, 3)
        q = np.random.default_rng(5).normal(0, 1, (3, DIM))
        full = localize_full(q, routes, store)
        cut = localize_full(q, routes, store, cfg=LocalizerConfig(top_k=2))
        assert cut == full[:2]

    def test_turn_filter_matches_oracle(self, tee_graph):
        store = make_store(tee_graph, seed=6)
        routes = enumerate_routes(tee_graph, 3)
        q = np.random.default_rng(7).normal(0, 1, (3, DIM))
        for turns in [(0, 0), (0, 1)]:
            got = localize_full(q, routes, store, graph=tee_graph, turns=turns,
                                cfg=LocalizerConfig(use_turns=True))
            want = oracle_ranking(q, routes, store, graph=tee_graph, turns=turns)
            assert [r for r, _ in got] == [r for r, _ in want]
        # The straight pattern keeps the two horizontal routes only.
        straight = localize_full(q, routes, store, graph=tee_graph, turns=(0, 0),
                                 cfg=LocalizerConfig(use_turns=True))
        assert {r for r, _ in straight} == {(0, 1, 2), (2, 1, 0)}

    def test_turn_filter_can_empty(self, path_graph):
        # A collinear graph has no turns at all.
        store = make_store(path_graph, seed=8)
        routes = enumerate_routes(path_graph, 3)
        q = np.zeros((3, DIM))
        got = localize_full(q, routes, store, graph=path_graph, turns=(0, 1),
                            cfg=LocalizerConfig(use_turns=True))
        assert got == []

    def test_empty_routes(self, path_graph):
        assert localize_full(np.zeros((3, DIM)), [], make_store(path_graph)) == []

    def test_validation(self, tee_graph):
        store = make_store(tee_graph)
        with pytest.raises(ValueError, match="query must be"):
            localize_full(np.zeros(DIM), [(0, 1)], store)
        with pytest.raises(ValueError, match="query length"):
            localize_full(np.zeros((2, DIM)), [(0, 1, 2)], store)
        with pytest.raises(ValueError, match="needs the graph"):
            localize_full(np.zeros((2, DIM)), [(0, 1)], store, turns=(0,),
                          cfg=LocalizerConfig(use_turns=True))
        with pytest.raises(ValueError, match="must have 2 bits"):
            localize_full(np.zeros((3, DIM)), [(0, 1, 2)], store, graph=tee_graph,
                          turns=(0,), cfg=LocalizerConfig(use_turns=True))

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
        cfg = LocalizerConfig(use_turns=True)
        state = run_chain(tee_graph, store, q, cfg, turns=turns)
        want = localize_full(q, enumerate_routes(tee_graph, 3), store,
                             graph=tee_graph, turns=turns, cfg=cfg)
        assert state.ranked() == want

    @given(tie_heavy_searches(), carry_limits)
    @settings(max_examples=150, deadline=None)
    def test_stepped_turn_search_equals_full_search(self, search, carry):
        g, store, q, turns = search
        cfg = LocalizerConfig(use_turns=True)
        state = run_chain(g, store, q, cfg, turns=turns, carry=carry)
        want = localize_full(q, enumerate_routes(g, len(q)), store, graph=g,
                             turns=turns, cfg=cfg)
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
        state = start_candidates(tee_graph, store.cost_vector(q[0], tee_graph.id_array),
                                 ("tunnel",), cfg)
        state = localize_step(state, q[1], None, tee_graph, store, cfg)
        visited = {loc for route, _ in state.ranked() for loc in route}
        assert 2 not in visited
        want = localize_full(q, enumerate_routes(tee_graph, 2, ("tunnel",)), store)
        assert state.ranked() == want

    def test_dead_state_stays_empty(self, path_graph):
        # Demanding a turn on a collinear graph kills every candidate.
        store = make_store(path_graph, seed=19)
        q = np.random.default_rng(20).normal(0, 1, (3, DIM))
        cfg = LocalizerConfig(use_turns=True)
        state = start_candidates(path_graph, store.cost_vector(q[0], path_graph.id_array),
                                 (), cfg)
        state = localize_step(state, q[1], 0, path_graph, store, cfg)
        assert state.size > 0
        state = localize_step(state, q[2], 1, path_graph, store, cfg)
        assert state.size == 0 and state.ranked() == []
        state = localize_step(state, q[2], 0, path_graph, store, cfg)
        assert state.size == 0

    def test_graph_mismatch(self, path_graph, tee_graph):
        store = make_store(path_graph)
        state = start_candidates(path_graph, np.zeros(5))
        with pytest.raises(ValueError, match="different graph"):
            localize_step(state, np.zeros(DIM), None, tee_graph, store)

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
        state = start_candidates(g, store.cost_vector(q[0], g.id_array), (), cfg)
        for i in (1, 2):
            state = localize_step(state, q[i], None, g, store, cfg)
        plain = start_candidates(g, store.cost_vector(q[0], g.id_array))
        for i in (1, 2):
            plain = localize_step(plain, q[i], None, g, store)
        assert state.size < plain.size
        # Every culled survivor appears in the exhaustive set with equal cost.
        want = dict(plain.ranked())
        for route, dist in state.ranked():
            assert route in want
            assert dist == pytest.approx(want[route], rel=1e-12)

    @given(tie_heavy_searches(), search_configs, st.booleans(), carry_limits)
    @settings(max_examples=150, deadline=None)
    def test_culled_ranking_is_a_subset_of_full(self, search, cfg, exclude, carry):
        g, store, q, turns = search
        excl = ("tunnel",) if exclude else ()
        culled = run_chain(g, store, q, cfg, turns, excl, carry).ranked()
        full = run_chain(g, store, q, dataclasses.replace(cfg, cull_fraction=0.0), turns,
                         excl).ranked()
        kept = {route for route, _ in culled}
        assert len(kept) == len(culled)
        assert culled == [(route, dist) for route, dist in full if route in kept]


class TestRouteTree:
    @given(tie_heavy_searches(), search_configs, st.booleans(), carry_limits,
           st.lists(st.tuples(search_configs, st.booleans(), st.booleans(), carry_limits),
                    max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_grown_tree_ranks_like_a_fresh_one(self, search, cfg, exclude, carry, earlier):
        g, store, q, turns = search
        excl = ("tunnel",) if exclude else ()
        want = run_chain(MapGraph(list(g.locations())), store, q, cfg, turns, excl).ranked()
        # Earlier queries grow g's trees, some the tree the last query uses.
        for other, same_tree, other_exclude, other_carry in earlier:
            if same_tree:
                other = dataclasses.replace(other, turn_threshold=cfg.turn_threshold)
            run_chain(g, store, q[::-1], other, turns[::-1],
                      excl if same_tree else ("tunnel",) if other_exclude else (), other_carry)
        assert run_chain(g, store, q, cfg, turns, excl, carry).ranked() == want

    @given(tie_heavy_searches(), st.sampled_from([10.0, 30.0, 60.0]),
           st.sampled_from([10.0, 30.0, 60.0]), carry_limits, st.data())
    @settings(max_examples=100, deadline=None)
    def test_step_threshold_other_than_start(self, search, start_th, step_th, carry, data):
        g, store, q, turns = search
        routes = sorted(enumerate_routes(g, len(q)))
        if routes:
            turns = turn_pattern(data.draw(st.sampled_from(routes)), g, step_th)
        step_cfg = LocalizerConfig(use_turns=True, turn_threshold=step_th)
        with carry_limit(carry):
            state = start_candidates(g, store.cost_vector(q[0], g.id_array), (),
                                     LocalizerConfig(use_turns=True, turn_threshold=start_th))
            for i in range(1, len(q)):
                state = localize_step(state, q[i], turns[i - 1], g, store, step_cfg)
        want = localize_full(q, routes, store, graph=g, turns=turns, cfg=step_cfg)
        assert state.ranked() == want

    def test_one_tree_per_exclusions_and_threshold(self, tee_graph):
        costs = np.zeros(4)
        tree = start_candidates(tee_graph, costs).tree
        other_cfg = LocalizerConfig(use_turns=True, cull_fraction=0.5, cull_floor=1)
        assert start_candidates(tee_graph, costs, (), other_cfg).tree is tree
        assert start_candidates(tee_graph, costs, ("tunnel",)).tree is not tree
        assert start_candidates(tee_graph, costs, (),
                                LocalizerConfig(turn_threshold=45.0)).tree is not tree

    def test_graph_and_tree_are_freed_with_the_last_reference(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=30, seed=34))
        store = make_store(g, seed=23)
        q = np.random.default_rng(24).normal(0, 1, (4, DIM))
        state = run_chain(g, store, q, LocalizerConfig(cull_fraction=0.5, cull_floor=5))
        assert state.top(3)
        refs = [weakref.ref(g), weakref.ref(state.tree)]
        del g, state
        gc.collect()
        assert [r() for r in refs] == [None, None]


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
