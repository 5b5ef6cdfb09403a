"""Hand-worked cases for the oracle, on graphs of a few nodes.

    python3 -m pytest perfbench/test_oracle.py -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def path_graph(tags=None):
    """0 - 1 - 2 along the x axis, 10 m apart."""
    tags = tags or {}
    return oracle.Graph(
        adj={0: (1,), 1: (0, 2), 2: (1,)},
        pos={0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)},
        tags={i: frozenset(tags.get(i, ())) for i in range(3)},
    )


def tee_graph():
    """0 - 1 - 2 along the x axis, with 3 due north of 1."""
    return oracle.Graph(
        adj={0: (1,), 1: (0, 2, 3), 2: (1,), 3: (1,)},
        pos={0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0), 3: (10.0, 10.0)},
        tags={i: frozenset() for i in range(4)},
    )


def test_sums_and_orders_by_distance():
    costs = [{0: 1.0, 1: 2.0, 2: 3.0}, {0: 0.0, 1: 5.0, 2: 1.0}]
    # (1,0) = 2+0, (1,2) = 2+1, (0,1) = 1+5, (2,1) = 3+5
    assert oracle.ranked_routes(path_graph(), costs, 2) == [
        (2.0, (1, 0)), (3.0, (1, 2)), (6.0, (0, 1)), (8.0, (2, 1))]
    assert oracle.top_routes(path_graph(), costs, 2, 2) == [((1, 0), 2.0), ((1, 2), 3.0)]


def test_ties_break_on_location_ids():
    zero = [dict.fromkeys(range(3), 0.0)] * 3
    assert [r for _, r in oracle.ranked_routes(path_graph(), zero, 2)] == [
        (0, 1), (1, 0), (1, 2), (2, 1)]
    assert [r for _, r in oracle.ranked_routes(path_graph(), zero, 3)] == [
        (0, 1, 2), (2, 1, 0)]


def test_no_revisits_on_a_triangle():
    tri = oracle.Graph(adj={0: (1, 2), 1: (0, 2), 2: (0, 1)},
                       pos={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)},
                       tags={i: frozenset() for i in range(3)})
    zero = [dict.fromkeys(range(3), 0.0)] * 4
    routes = [r for _, r in oracle.ranked_routes(tri, zero, 3)]
    assert routes == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    assert oracle.ranked_routes(tri, zero, 4) == []


def test_excluded_tags_cut_routes():
    g = path_graph({1: ("tunnel",)})
    zero = [dict.fromkeys(range(3), 0.0)] * 2
    assert oracle.ranked_routes(g, zero, 2, exclusions=("tunnel",)) == []
    assert oracle.ranked_routes(g, zero, 1, exclusions=("tunnel",)) == [(0.0, (0,)), (0.0, (2,))]
    assert not oracle.is_legal((0, 1), g, ("tunnel",))


def test_legality():
    g = tee_graph()
    assert oracle.is_legal((0, 1, 3), g)
    assert not oracle.is_legal((0, 2), g)        # not adjacent
    assert not oracle.is_legal((0, 1, 0), g)     # revisit


def test_turn_bits_from_positions():
    g = tee_graph()
    assert oracle.turn_bits((0, 1, 2), g.pos) == (0, 0)
    assert oracle.turn_bits((0, 1, 3), g.pos) == (0, 1)
    assert oracle.turn_bits((3, 1, 2), g.pos) == (0, 1)
    assert oracle.turn_bits((0, 1), g.pos) == (0,)
    # 20 degrees stays under the 30-degree threshold, 45 degrees exceeds it.
    pos = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 3.64), 3: (20.0, 10.0)}
    assert oracle.turn_bit(pos, 0, 1, 2) == 0
    assert oracle.turn_bit(pos, 0, 1, 3) == 1


def test_turn_filter_keeps_matching_routes_only():
    g = tee_graph()
    zero = [dict.fromkeys(range(4), 0.0)] * 3
    turning = [r for _, r in oracle.ranked_routes(g, zero, 3, turns=(0, 1))]
    assert turning == [(0, 1, 3), (2, 1, 3), (3, 1, 0), (3, 1, 2)]
    straight = [r for _, r in oracle.ranked_routes(g, zero, 3, turns=(0, 0))]
    assert straight == [(0, 1, 2), (2, 1, 0)]


def test_hamming_costs_from_tags():
    assert oracle.bsd_code({"junction_ahead", "gap_right", "tunnel"}) == (1, 0, 0, 1)
    assert oracle.hamming((1, 0, 0, 1), (0, 0, 1, 1)) == 2
    g = path_graph({0: ("junction_ahead",), 2: ("gap_left", "gap_right")})
    costs = oracle.hamming_costs(g, [(1, 0, 0, 0), (0, 0, 1, 1)])
    assert costs == [{0: 0.0, 1: 1.0, 2: 3.0}, {0: 3.0, 1: 2.0, 2: 0.0}]
    # (0,1) = 0+2, (1,2) = 1+0, (1,0) = 1+3, (2,1) = 3+2
    assert oracle.top_routes(g, costs, 2, 4) == [
        ((1, 2), 1.0), ((0, 1), 2.0), ((1, 0), 4.0), ((2, 1), 5.0)]


def test_route_cost_sums_per_step():
    costs = [{0: 0.5, 1: 1.0}, {0: 2.0, 1: 4.0}]
    assert oracle.route_cost((1, 0), costs) == 3.0
    assert oracle.route_cost((0, 1), costs) == 4.5


def test_reads_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "# routeloc map graph\n"
        "N 0 0 0 0 -\n"
        "N 1 10 0 0 junction_ahead,gap_left\n"
        "N 2 10 10 90 -\n"
        "E 0 1\n"
        "E 1 2\n"
        "L 0 0.5 1.5\n"
    )
    g = oracle.read_graph(path)
    assert g.adj == {0: (1,), 1: (0, 2), 2: (1,)}
    assert g.pos[2] == (10.0, 10.0)
    assert g.tags[1] == frozenset({"junction_ahead", "gap_left"})
    assert g.allowed(("gap_left",)) == [0, 2]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
