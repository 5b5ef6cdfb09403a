"""Hand-crafted baselines: binary code reading, Hamming ranking, turn matching.

Ranking runs through the localizer's stepped search, as in the benchmark
sweeps: BSD with Hamming costs per step, turn-only with all-zero costs.
"""
import numpy as np
import pytest

from routeloc import (
    BSD_TAG_ORDER,
    BsdNoise,
    advance_candidates,
    enumerate_routes,
    hamming_cost_vector,
    map_code_matrix,
    simulate_query_codes,
    start_candidates,
    turn_pattern,
)

def bsd_from_map(loc_id, g):
    """Reference BSD code of one location, read off its semantic tags."""
    tags = g.location(loc_id).tags
    return tuple(1 if t in tags else 0 for t in BSD_TAG_ORDER)


def search(g, cost_seq, turns=None):
    """Stepped search over per-step costs, turn-filtered when ``turns`` is given."""
    state = start_candidates(g, cost_seq[0])
    for i, costs in enumerate(cost_seq[1:]):
        state = advance_candidates(state, costs, None if turns is None else turns[i])
    return state


def bsd_search(query_codes, g, turns=None):
    codes = map_code_matrix(g)
    return search(g, [hamming_cost_vector(codes, qc) for qc in query_codes], turns)


def turn_only_routes(turns, g):
    state = search(g, [np.zeros(len(g))] * (len(turns) + 1), turns)
    return [r for r, _ in state.ranked()]


def oracle_bsd_ranking(query_codes, routes, g, turns=None):
    scored = []
    for r in routes:
        if turns is not None and turn_pattern(r, g) != tuple(turns):
            continue
        d = 0
        for qc, loc in zip(query_codes, r):
            d += sum(a != b for a, b in zip(qc, bsd_from_map(loc, g)))
        scored.append((float(d), tuple(r)))
    scored.sort()
    return [(r, d) for d, r in scored]


class TestBsdNoise:
    def test_defaults(self):
        noise = BsdNoise()
        assert (noise.p_junction, noise.p_gap) == (0.3, 0.23)
        np.testing.assert_array_equal(noise.per_bit(), [0.3, 0.3, 0.23, 0.23])

    @pytest.mark.parametrize("kwargs", [dict(p_junction=-0.1), dict(p_gap=1.5)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match="flip probability"):
            BsdNoise(**kwargs)


class TestCodeReading:
    def test_codes_follow_tags(self, tee_graph):
        assert bsd_from_map(0, tee_graph) == (0, 0, 1, 0)   # gap_left only
        assert bsd_from_map(1, tee_graph) == (1, 1, 0, 0)   # both junction bits
        assert bsd_from_map(2, tee_graph) == (0, 0, 0, 0)   # tunnel is not a code bit
        assert bsd_from_map(3, tee_graph) == (0, 0, 0, 0)

    def test_matrix_matches_per_location(self, tee_graph):
        codes = map_code_matrix(tee_graph)
        assert codes.shape == (4, 4) and codes.dtype == np.uint8
        for row, loc in enumerate(tee_graph.id_array):
            np.testing.assert_array_equal(codes[row], bsd_from_map(int(loc), tee_graph))

    def test_bit_order_constant(self):
        assert BSD_TAG_ORDER == (
            "junction_ahead", "junction_behind", "gap_left", "gap_right"
        )


class TestSimulatedQueries:
    def test_zero_noise_is_ground_truth(self, tee_graph):
        rng = np.random.default_rng(0)
        codes = simulate_query_codes((0, 1, 2), tee_graph, BsdNoise(0.0, 0.0), rng)
        assert codes == [bsd_from_map(i, tee_graph) for i in (0, 1, 2)]

    def test_certain_flip_inverts_every_bit(self, tee_graph):
        rng = np.random.default_rng(0)
        codes = simulate_query_codes((0, 1), tee_graph, BsdNoise(1.0, 1.0), rng)
        assert codes == [(1, 1, 0, 1), (0, 0, 1, 1)]

    def test_flip_rates(self, tee_graph):
        rng = np.random.default_rng(1)
        noise = BsdNoise(0.3, 0.23)
        route = (3,) * 4000  # untagged: any 1 bit is a flip
        codes = np.array(simulate_query_codes(route, tee_graph, noise, rng))
        rates = codes.mean(axis=0)
        np.testing.assert_allclose(rates, [0.3, 0.3, 0.23, 0.23], atol=0.03)

    def test_rng_determinism(self, tee_graph):
        noise = BsdNoise()
        a = simulate_query_codes((0, 1, 2), tee_graph, noise, np.random.default_rng(7))
        b = simulate_query_codes((0, 1, 2), tee_graph, noise, np.random.default_rng(7))
        assert a == b


class TestHammingCosts:
    def test_matches_loop(self, tee_graph):
        codes = map_code_matrix(tee_graph)
        query = (1, 0, 1, 0)
        got = hamming_cost_vector(codes, query)
        want = [sum(a != b for a, b in zip(row, query)) for row in codes]
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.float64

    def test_bit_count_checked(self, tee_graph):
        with pytest.raises(ValueError, match="4 bits"):
            hamming_cost_vector(map_code_matrix(tee_graph), (1, 0))


class TestBsdLocalize:
    def test_matches_brute_force(self, tee_graph):
        routes = enumerate_routes(tee_graph, 3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            query = [tuple(rng.integers(0, 2, 4)) for _ in range(3)]
            got = bsd_search(query, tee_graph).ranked()
            assert got == oracle_bsd_ranking(query, routes, tee_graph)

    def test_noiseless_truth_ties_break_lexicographically(self, tee_graph):
        # Locations 2 and 3 share the all-zero code, so the truth (0,1,2) ties
        # with (0,1,3) at distance zero and must win on id order.
        truth = (0, 1, 2)
        query = [bsd_from_map(i, tee_graph) for i in truth]
        got = bsd_search(query, tee_graph).ranked()
        assert got[0] == ((0, 1, 2), 0.0)
        assert got[1] == ((0, 1, 3), 0.0)
        assert got[2][1] > 0.0

    def test_turn_filter(self, tee_graph):
        routes = enumerate_routes(tee_graph, 3)
        query = [bsd_from_map(i, tee_graph) for i in (0, 1, 3)]
        turns = turn_pattern((0, 1, 3), tee_graph)
        got = bsd_search(query, tee_graph, turns).ranked()
        want = oracle_bsd_ranking(query, routes, tee_graph, turns=turns)
        assert got == want
        assert all(turn_pattern(r, tee_graph) == turns for r, _ in got)

    def test_top_k(self, tee_graph):
        state = bsd_search([(0, 0, 0, 0), (1, 1, 1, 1)], tee_graph)
        assert state.ranked(3) == state.ranked()[:3]

    def test_empty_routes(self, path_graph):
        # A collinear graph has no turns, so a bent pattern leaves no route.
        assert bsd_search([(0, 0, 0, 0)] * 3, path_graph, turns=(0, 1)).ranked() == []


class TestTurnOnly:
    def test_bent_pattern(self, tee_graph):
        got = turn_only_routes((0, 1), tee_graph)
        assert got == [(0, 1, 3), (2, 1, 3), (3, 1, 0), (3, 1, 2)]

    def test_straight_pattern(self, tee_graph):
        assert turn_only_routes((0, 0), tee_graph) == [(0, 1, 2), (2, 1, 0)]

    def test_matches_manual_filter(self, path_graph):
        routes = enumerate_routes(path_graph, 3)
        want = sorted(r for r in routes if turn_pattern(r, path_graph) == (0, 0))
        assert turn_only_routes((0, 0), path_graph) == want
        assert turn_only_routes((0, 1), path_graph) == []
