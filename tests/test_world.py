"""Graph model, file format, route enumeration and turn patterns."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routeloc import (
    GraphFormatError,
    GraphInvariantError,
    Location,
    MapGraph,
    TAG_NAMES,
    bearing_deg,
    enumerate_routes,
    extend_routes,
    load_graph,
    save_graph,
    turn_pattern,
    turn_bits,
    turn_pattern_matrix,
)
from conftest import brute_force_routes


class TestMapGraph:
    def test_basic_access(self, tee_graph):
        g = tee_graph
        assert len(g) == 4
        assert 2 in g and 99 not in g
        assert g.neighbors_of(1) == (0, 2, 3)
        assert g.edge_count() == 3
        assert [loc.id for loc in g.locations()] == [0, 1, 2, 3]

    def test_spacing_is_mean_edge_length(self, tee_graph):
        # All three edges are exactly 10 m here.
        assert tee_graph.spacing == pytest.approx(10.0)

    def test_spacing_mixed_lengths(self):
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,)),
            Location(1, (10.0, 0.0), 0.0, (0, 2)),
            Location(2, (10.0, 30.0), 0.0, (1,)),
        ]
        assert MapGraph(locs).spacing == pytest.approx((10.0 + 30.0) / 2)

    def test_duplicate_id_rejected(self):
        locs = [
            Location(0, (0.0, 0.0), 0.0, ()),
            Location(0, (1.0, 0.0), 0.0, ()),
        ]
        with pytest.raises(GraphInvariantError, match="duplicate location id 0"):
            MapGraph(locs)

    def test_unknown_location_raises(self, tee_graph):
        with pytest.raises(GraphInvariantError, match="unknown location id 7"):
            tee_graph.location(7)

    def test_locations_sorted_regardless_of_input_order(self):
        locs = [
            Location(5, (0.0, 0.0), 0.0, (2,)),
            Location(2, (10.0, 0.0), 0.0, (5,)),
        ]
        g = MapGraph(locs)
        assert [loc.id for loc in g.locations()] == [2, 5]


class TestValidation:
    def _pair(self, **overrides):
        defaults = dict(id=0, position=(0.0, 0.0), heading=0.0, neighbors=(1,))
        defaults.update(overrides)
        return [Location(**defaults), Location(1, (1.0, 0.0), 0.0, (0,))]

    def test_negative_id(self):
        locs = [Location(-1, (0.0, 0.0), 0.0, ())]
        with pytest.raises(GraphInvariantError, match="negative location id"):
            MapGraph(locs)

    @pytest.mark.parametrize("heading", [-0.1, 360.0, 720.0])
    def test_heading_range(self, heading):
        with pytest.raises(GraphInvariantError, match="heading"):
            MapGraph(self._pair(heading=heading))

    def test_unknown_tag(self):
        with pytest.raises(GraphInvariantError, match="unknown tags"):
            MapGraph(self._pair(tags=frozenset({"roundabout"})))

    def test_self_reference(self):
        with pytest.raises(GraphInvariantError, match="self-reference"):
            MapGraph([Location(0, (0.0, 0.0), 0.0, (0,))])

    def test_unresolved_neighbor(self):
        with pytest.raises(GraphInvariantError, match="neighbor 9 does not resolve"):
            MapGraph([Location(0, (0.0, 0.0), 0.0, (9,))])

    def test_asymmetric_edge(self):
        # Only constructible in memory: the file format stores undirected
        # E records, so a loaded graph is always symmetric.
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,)),
            Location(1, (1.0, 0.0), 0.0, ()),
        ]
        with pytest.raises(GraphInvariantError, match="asymmetric edge"):
            MapGraph(locs)

    def test_duplicate_neighbor(self):
        with pytest.raises(GraphInvariantError, match="duplicate neighbor"):
            MapGraph(self._pair(neighbors=(1, 1)))

    def test_latent_dim_mismatch(self):
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,), latent=np.zeros(3)),
            Location(1, (1.0, 0.0), 0.0, (0,), latent=np.zeros(4)),
        ]
        with pytest.raises(GraphInvariantError, match="latent dimension"):
            MapGraph(locs)

    def test_partial_latents(self):
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,), latent=np.zeros(3)),
            Location(1, (1.0, 0.0), 0.0, (0,)),
        ]
        with pytest.raises(GraphInvariantError, match="latent missing"):
            MapGraph(locs)


class TestRowIndex:
    def test_id_array_ascending(self, tee_graph):
        assert np.array_equal(tee_graph.id_array, [0, 1, 2, 3])

    def test_positions_match(self, tee_graph):
        g = tee_graph
        for r, loc in enumerate(g.locations()):
            assert tuple(g.position_array[r]) == loc.position

    def test_neighbor_rows_padded(self, tee_graph):
        g = tee_graph
        nbr = g.neighbor_rows
        assert nbr.shape == (4, 3)
        for r, loc in enumerate(g.locations()):
            got = sorted(int(x) for x in nbr[r] if x >= 0)
            assert got == sorted(g.row_of(nb) for nb in loc.neighbors)

    def test_rows_of_roundtrip(self, tee_graph):
        g = tee_graph
        rows = g.rows_of([3, 0, 2])
        assert np.array_equal(g.id_array[rows], [3, 0, 2])

    def test_rows_of_unknown(self, tee_graph):
        with pytest.raises(GraphInvariantError, match="unknown location id"):
            tee_graph.rows_of([0, 42])

    def test_rows_of_noncontiguous_ids(self):
        locs = [
            Location(4, (0.0, 0.0), 0.0, (17,)),
            Location(17, (1.0, 0.0), 0.0, (4, 30)),
            Location(30, (2.0, 0.0), 0.0, (17,)),
        ]
        g = MapGraph(locs)
        assert np.array_equal(g.rows_of([30, 4, 17]), [2, 0, 1])
        assert g.row_of(17) == 1

    def test_allowed_mask(self, tee_graph):
        g = tee_graph
        assert g.allowed_mask().all()
        mask = g.allowed_mask({"tunnel"})
        assert np.array_equal(mask, [True, True, False, True])
        mask = g.allowed_mask({"tunnel", "gap_left"})
        assert np.array_equal(mask, [False, True, False, True])

    def test_allowed_mask_unknown_tag(self, tee_graph):
        with pytest.raises(ValueError, match="unknown exclusion tags"):
            tee_graph.allowed_mask({"bridge"})

    def test_latent_matrix(self, tee_graph):
        lm = tee_graph.latent_matrix()
        assert lm.shape == (4, 2)
        assert np.array_equal(lm, np.arange(8.0).reshape(4, 2))

    def test_latent_matrix_missing(self, path_graph):
        with pytest.raises(GraphInvariantError, match="latent missing"):
            path_graph.latent_matrix()


@st.composite
def fuzzed_graphs(draw):
    """Small valid graphs with arbitrary ids, finite geometry, tags and latents."""
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=8, unique=True))
    n = len(ids)
    coord = st.floats(-1e9, 1e9)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    latent_dim = draw(st.sampled_from([None, 1, 3]))
    locs = []
    for i, loc_id in enumerate(ids):
        latent = None
        if latent_dim is not None:
            latent = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=latent_dim, max_size=latent_dim)))
        locs.append(Location(
            id=loc_id,
            position=(draw(coord), draw(coord)),
            heading=draw(st.floats(0.0, 360.0, exclude_max=True)),
            neighbors=tuple(sorted(ids[b if a == i else a] for a, b in edges if i in (a, b))),
            tags=draw(st.frozensets(st.sampled_from(TAG_NAMES))),
            latent=latent,
        ))
    g = MapGraph(locs, validate=False)
    assume(g.edge_count() == 0 or g.spacing > 0.0)
    g.validate()
    return g


class TestFileFormat:
    @given(fuzzed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_round_trip(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("graph") / "g.txt"
        save_graph(g, path)
        back = load_graph(path)
        assert [loc.id for loc in back.locations()] == [loc.id for loc in g.locations()]
        for a, b in zip(g.locations(), back.locations()):
            assert a.position == b.position
            assert a.heading == b.heading
            assert a.tags == b.tags
            assert a.neighbors == b.neighbors
            if a.latent is None:
                assert b.latent is None
            else:
                np.testing.assert_array_equal(a.latent, b.latent)

    def test_round_trip_exact(self, tee_graph, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(tee_graph, path)
        g2 = load_graph(path)
        assert len(g2) == len(tee_graph)
        for a, b in zip(tee_graph.locations(), g2.locations()):
            assert a.id == b.id
            assert a.position == b.position  # %.17g round-trips float64 exactly
            assert a.heading == b.heading
            assert a.neighbors == b.neighbors
            assert a.tags == b.tags
            assert np.array_equal(a.latent, b.latent)

    def test_save_deterministic(self, tee_graph, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(tee_graph, p1)
        save_graph(tee_graph, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_awkward_floats(self, tmp_path):
        locs = [
            Location(0, (1.0 / 3.0, -2.7182818284590451), 359.99999999999994, (1,),
                     latent=np.array([1e-300, 1e300, -0.1])),
            Location(1, (0.1 + 0.2, 1e-17), 0.0, (0,),
                     latent=np.array([math.pi, -0.0, 2.0**-1074])),
        ]
        g = MapGraph(locs)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        g2 = load_graph(path)
        for a, b in zip(g.locations(), g2.locations()):
            assert a.position == b.position
            assert a.heading == b.heading
            assert np.array_equal(a.latent, b.latent)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "# header comment\n"
            "\n"
            "N 0 0 0 0 -\n"
            "N 1 10 0 0 tunnel,gap_left\n"
            "  \n"
            "E 0 1\n"
        )
        g = load_graph(path)
        assert len(g) == 2
        assert g.location(1).tags == frozenset({"tunnel", "gap_left"})

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("N 0 0 0", "line 2"),
            ("N x 0 0 0 -", "line 2"),
            ("N 0 0 0 0 roundabout", "unknown tags"),
            ("E 1 2 3", "expected: E"),
            ("Q 1 2", "unknown record kind"),
            ("L 0", "expected: L"),
            ("L 0 1.0 nope", "line 2"),
        ],
    )
    def test_format_errors_carry_line_context(self, tmp_path, line, fragment):
        path = tmp_path / "bad.txt"
        path.write_text("N 9 0 0 0 -\n" + line + "\n")
        with pytest.raises(GraphFormatError, match=fragment):
            load_graph(path)

    @pytest.mark.parametrize(
        "line",
        ["N 0 inf 0 0 -", "N 0 0 -inf 0 -", "N 0 0 0 nan -", "L 9 1.0 nan", "L 9 inf 0.0"],
    )
    def test_non_finite_values_rejected(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("N 9 0 0 0 -\n" + line + "\n")
        with pytest.raises(GraphFormatError, match="line 2: .* must be finite"):
            load_graph(path)

    def test_duplicate_node_record(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N 0 0 0 0 -\nN 0 1 0 0 -\n")
        with pytest.raises(GraphFormatError, match="duplicate node record"):
            load_graph(path)

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N 0 0 0 0 -\nN 1 1 0 0 -\nE 0 1\nE 1 0\n")
        with pytest.raises(GraphFormatError, match="duplicate edge 0-1"):
            load_graph(path)

    def test_self_loop_is_invariant_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N 0 0 0 0 -\nE 0 0\n")
        with pytest.raises(GraphInvariantError, match="self-loop"):
            load_graph(path)

    def test_edge_to_missing_node(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N 0 0 0 0 -\nE 0 5\n")
        with pytest.raises(GraphInvariantError, match="endpoint 5 does not resolve"):
            load_graph(path)

    def test_latent_for_missing_node(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N 0 0 0 0 -\nL 3 1.0 2.0\n")
        with pytest.raises(GraphInvariantError, match="unknown location id 3"):
            load_graph(path)


class TestRouteEnumeration:
    def test_matches_brute_force(self, tee_graph):
        for m in (1, 2, 3, 4):
            assert enumerate_routes(tee_graph, m) == brute_force_routes(tee_graph, m)

    def test_m1_is_singletons(self, tee_graph):
        assert enumerate_routes(tee_graph, 1) == {(0,), (1,), (2,), (3,)}

    def test_reverse_routes_are_distinct(self, path_graph):
        routes = enumerate_routes(path_graph, 3)
        assert (0, 1, 2) in routes and (2, 1, 0) in routes

    def test_no_revisits(self, tee_graph):
        for m in (2, 3, 4):
            for r in enumerate_routes(tee_graph, m):
                assert len(set(r)) == m

    def test_exclusions(self, tee_graph):
        routes = enumerate_routes(tee_graph, 2, exclusions={"tunnel"})
        assert routes == brute_force_routes(tee_graph, 2, {"tunnel"})
        assert all(2 not in r for r in routes)

    def test_exhausted_length_is_empty(self, tee_graph):
        assert enumerate_routes(tee_graph, 5) == set()

    def test_bad_length(self, tee_graph):
        with pytest.raises(ValueError, match="route length"):
            enumerate_routes(tee_graph, 0)

    def test_extend_matches_enumerate(self, tee_graph):
        for m in (1, 2, 3):
            extended = extend_routes(enumerate_routes(tee_graph, m), tee_graph)
            assert extended == enumerate_routes(tee_graph, m + 1)

    def test_extend_respects_exclusions(self, tee_graph):
        base = enumerate_routes(tee_graph, 2, exclusions={"tunnel"})
        extended = extend_routes(base, tee_graph, exclusions={"tunnel"})
        assert extended == enumerate_routes(tee_graph, 3, exclusions={"tunnel"})

    def test_extend_rejects_mixed_lengths(self, tee_graph):
        with pytest.raises(ValueError, match="mixed route lengths"):
            extend_routes({(0, 1), (0, 1, 2)}, tee_graph)

    def test_extend_empty_input(self, tee_graph):
        assert extend_routes(set(), tee_graph) == set()


class TestTurnPatterns:
    def test_bearing_cardinal_directions(self):
        origin = (0.0, 0.0)
        assert bearing_deg(origin, (1.0, 0.0)) == pytest.approx(0.0)
        assert bearing_deg(origin, (0.0, 1.0)) == pytest.approx(90.0)
        assert bearing_deg(origin, (-1.0, 0.0)) == pytest.approx(180.0)
        assert bearing_deg(origin, (0.0, -1.0)) == pytest.approx(270.0)

    def test_turn_bits_wrap_and_reversal(self):
        def walk(b0, b1):
            # a -> b heads along bearing b0, b -> c along bearing b1.
            a = np.zeros(2)
            b = a + [math.cos(math.radians(b0)), math.sin(math.radians(b0))]
            c = b + [math.cos(math.radians(b1)), math.sin(math.radians(b1))]
            return a, b, c

        # 350 -> 10 degrees is a 20 degree change, not a turn at 30...
        for b0, b1 in [(350.0, 10.0), (10.0, 350.0)]:
            assert not turn_bits(*walk(b0, b1), threshold=30.0)
            assert turn_bits(*walk(b0, b1), threshold=19.9)
            assert not turn_bits(*walk(b0, b1), threshold=20.0 + 1e-9)
        # ...a reversal is 180 degrees, and going straight is 0.
        assert turn_bits(*walk(0.0, 180.0), threshold=179.9)
        assert not turn_bits(*walk(0.0, 180.0), threshold=180.0)
        assert not turn_bits(*walk(90.0, 90.0), threshold=0.0)

    def test_turn_bits_broadcast(self):
        # One incoming segment against three outgoing ones.
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        c = np.array([[2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_array_equal(turn_bits(a, b, c), [False, True, True])
        assert turn_bits(a[None, None], b[None, None], c[None]).shape == (1, 3)

    def test_straight_route_is_all_zeros(self, path_graph):
        assert turn_pattern((0, 1, 2, 3, 4), path_graph) == (0, 0, 0, 0)

    def test_right_angle_turn(self, tee_graph):
        # 0 -> 1 heads east, 1 -> 3 heads north: a 90 degree change at 1.
        assert turn_pattern((0, 1, 3), tee_graph) == (0, 1)
        assert turn_pattern((0, 1, 2), tee_graph) == (0, 0)

    def test_first_bit_fixed_zero(self, tee_graph):
        for route in [(0, 1), (3, 1), (2, 1)]:
            assert turn_pattern(route, tee_graph)[0] == 0

    def test_threshold_is_strict(self):
        # A 30 degree bend at location 1: not a turn at the default
        # threshold (strictly greater than), a turn just below it.
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,)),
            Location(1, (1.0, 0.0), 0.0, (0, 2)),
            Location(2, (1.0 + math.cos(math.radians(30.0)),
                         math.sin(math.radians(30.0))), 0.0, (1,)),
        ]
        g = MapGraph(locs)
        assert turn_pattern((0, 1, 2), g, threshold=30.0 + 1e-9) == (0, 0)
        assert turn_pattern((0, 1, 2), g, threshold=29.9) == (0, 1)

    def test_too_short_raises(self, tee_graph):
        with pytest.raises(ValueError, match="at least 2"):
            turn_pattern((1,), tee_graph)

    def test_reversal_mirrors_interior_bits(self):
        # The same geometric bends are visited in reverse order, so the
        # interior bits (everything after the fixed leading zero) reverse.
        rng = np.random.default_rng(7)
        n = 12
        locs = []
        pts = np.cumsum(rng.normal(0.0, 5.0, size=(n, 2)), axis=0)
        for i in range(n):
            nbrs = tuple(j for j in (i - 1, i + 1) if 0 <= j < n)
            locs.append(Location(i, (float(pts[i, 0]), float(pts[i, 1])), 0.0, nbrs))
        g = MapGraph(locs)
        route = tuple(range(n))
        fwd = turn_pattern(route, g)
        rev = turn_pattern(route[::-1], g)
        assert rev[0] == 0
        assert rev[1:] == fwd[1:][::-1]

    def test_matrix_agrees_with_scalar(self, tee_graph):
        def loop_pattern(route, g, threshold=30.0):
            # Scalar reference: per-segment bearings, wrapped differences.
            pos = [g.location(i).position for i in route]
            bearings = [bearing_deg(pos[i], pos[i + 1]) for i in range(len(route) - 1)]
            return (0,) + tuple(
                int(abs((b1 - b0 + 180.0) % 360.0 - 180.0) > threshold)
                for b0, b1 in zip(bearings, bearings[1:])
            )

        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 50.0, size=(9, 2))
        locs = [Location(i, (float(pts[i, 0]), float(pts[i, 1])), 0.0,
                         tuple(j for j in range(9) if j != i)) for i in range(9)]
        for g, m in [(tee_graph, 3), (MapGraph(locs), 4)]:
            routes = sorted(enumerate_routes(g, m))
            mat = turn_pattern_matrix(np.array(routes), g)
            for row, route in zip(mat, routes):
                assert tuple(int(b) for b in row) == loop_pattern(route, g)
                assert turn_pattern(route, g) == loop_pattern(route, g)

    def test_matrix_m2_is_zero_column(self, tee_graph):
        routes = sorted(enumerate_routes(tee_graph, 2))
        mat = turn_pattern_matrix(np.array(routes), tee_graph)
        assert mat.shape == (len(routes), 1)
        assert not mat.any()

    def test_matrix_rejects_bad_shape(self, tee_graph):
        with pytest.raises(ValueError, match="route matrix"):
            turn_pattern_matrix(np.array([0, 1, 2]), tee_graph)
        with pytest.raises(ValueError, match="route matrix"):
            turn_pattern_matrix(np.array([[0], [1]]), tee_graph)
