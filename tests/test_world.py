"""Graph model, file format, route enumeration and turn patterns."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routeloc import (
    DescriptorStore,
    GraphFormatError,
    GraphInvariantError,
    Location,
    MapGraph,
    SyntheticWorldConfig,
    TAG_NAMES,
    WorldViews,
    bearing_deg,
    enumerate_routes,
    generate_synthetic_world,
    load_graph,
    save_graph,
    start_candidates,
    turn_pattern,
)
from routeloc.world import bearing_turns, segment_bearings
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
            assert got == sorted(int(g.rows_of(nb)) for nb in loc.neighbors)

    def test_rows_of_roundtrip(self, tee_graph):
        g = tee_graph
        rows = g.rows_of([3, 0, 2])
        assert np.array_equal(g.id_array[rows], [3, 0, 2])

    def test_rows_of_unknown(self, tee_graph):
        with pytest.raises(GraphInvariantError, match="unknown location id"):
            tee_graph.rows_of([0, 42])
        with pytest.raises(GraphInvariantError, match="unknown location id 0"):
            MapGraph([]).rows_of([0])

    def test_rows_of_noncontiguous_ids(self):
        locs = [
            Location(4, (0.0, 0.0), 0.0, (17,)),
            Location(17, (1.0, 0.0), 0.0, (4, 30)),
            Location(30, (2.0, 0.0), 0.0, (17,)),
        ]
        g = MapGraph(locs)
        assert np.array_equal(g.rows_of([30, 4, 17]), [2, 0, 1])
        assert int(g.rows_of(17)) == 1

    @pytest.mark.parametrize("owner,error", [
        ("graph", GraphInvariantError), ("store", KeyError), ("views", ValueError),
    ])
    @pytest.mark.parametrize("known,unknown", [
        (np.array(3), np.array(42)),
        ([3, 0], [0, 42]),
        ([[3, 0], [1, 2]], [[3, 0], [1, 42]]),
        ([], None),
    ], ids=["0-d", "1-D", "2-D", "empty"])
    def test_every_lookup_keeps_shape_and_names_missing_id(self, tee_graph, owner, error,
                                                           known, unknown):
        lookup = {
            "graph": tee_graph,
            "store": DescriptorStore(tee_graph.id_array, np.eye(4)),
            "views": WorldViews.from_graph(tee_graph),
        }[owner]
        rows = lookup.rows_of(known)
        assert rows.shape == np.shape(known)
        np.testing.assert_array_equal(tee_graph.id_array[rows], known)
        if unknown is not None:
            with pytest.raises(error, match="unknown location id 42") as exc:
                lookup.rows_of(unknown)
            assert type(exc.value) is error

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
    try:
        return MapGraph(locs)
    except GraphInvariantError as exc:
        # Coinciding positions leave a graph with edges but no spacing.
        assume("spacing" not in str(exc))
        raise


INDEX = ("id_array", "position_array", "neighbor_rows", "tag_matrix")


def reference_index(g):
    """The row-space arrays built location by location, through a dict from id to row."""
    locs = list(g.locations())
    n = len(locs)
    row_of = {loc.id: r for r, loc in enumerate(locs)}
    ids = np.array([loc.id for loc in locs], dtype=np.int64)
    pos = np.empty((n, 2), dtype=np.float64)
    max_deg = max((len(loc.neighbors) for loc in locs), default=0)
    nbr = np.full((n, max(max_deg, 1)), -1, dtype=np.int32)
    tags = np.zeros((n, len(TAG_NAMES)), dtype=bool)
    for r, loc in enumerate(locs):
        pos[r] = loc.position
        for j, nb in enumerate(sorted(loc.neighbors)):
            nbr[r, j] = row_of[nb]
        for t, name in enumerate(TAG_NAMES):
            tags[r, t] = name in loc.tags
    return dict(zip(INDEX, (ids, pos, nbr, tags)))


def assert_index_matches_reference(g):
    for name, want in reference_index(g).items():
        got = getattr(g, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert not got.flags.writeable, name


class TestIndexArrays:
    @given(fuzzed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_graphs_match_reference(self, g):
        assert_index_matches_reference(g)

    @pytest.mark.parametrize("layout", ["grid", "random-planar"])
    @pytest.mark.parametrize("seed,block_len,drop", [(0, 1, 0.0), (1, 3, 0.0), (2, 1, 0.3),
                                                     (3, 3, 0.3)])
    def test_generated_worlds_match_reference(self, layout, seed, block_len, drop):
        g = generate_synthetic_world(SyntheticWorldConfig(
            layout=layout, node_count=80, seed=seed, block_len=block_len, edge_drop_prob=drop,
            tag_densities={"tunnel": 0.2, "gap_left": 0.1}))
        assert_index_matches_reference(g)

    def test_edgeless_and_empty_graphs_match_reference(self):
        edgeless = MapGraph([Location(9, (1.0, 2.0), 0.0, ()),
                             Location(4, (3.0, 4.0), 0.0, (), frozenset({"tunnel"}))])
        assert_index_matches_reference(edgeless)
        assert_index_matches_reference(MapGraph([]))

    @pytest.mark.parametrize("name", INDEX)
    def test_arrays_are_read_only(self, tee_graph, name):
        arr = getattr(tee_graph, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]
        assert getattr(tee_graph, name) is arr

    def test_tag_edit_cannot_empty_a_search(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=60, seed=4))
        with pytest.raises(ValueError, match="read-only"):
            g.tag_matrix[:, TAG_NAMES.index("tunnel")] = True
        assert start_candidates(g, np.zeros(len(g)), ("tunnel",)).size == len(g)

    def test_saving_builds_no_index(self, tee_graph, tmp_path):
        g = MapGraph(tee_graph.locations())
        save_graph(g, tmp_path / "g.txt")
        assert not set(INDEX) & set(vars(g))
        g.allowed_mask()
        assert not set(INDEX) & set(vars(g))
        g.rows_of([2])
        assert set(INDEX) & set(vars(g)) == {"id_array"}


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


def turn_bits(a, b, c):
    """Turn bits at b of the walks a -> b -> c, over broadcast (..., 2) positions."""
    return bearing_turns(segment_bearings(a, b), segment_bearings(b, c))


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

        # 350 -> 10 degrees is a 20 degree change, not a turn at 30; the
        # bearings wrap, so 350 -> 35 and 35 -> 350 are 45 degree turns...
        for b0, b1 in [(350.0, 10.0), (10.0, 350.0)]:
            assert not turn_bits(*walk(b0, b1))
        for b0, b1 in [(350.0, 35.0), (35.0, 350.0)]:
            assert turn_bits(*walk(b0, b1))
        # ...a reversal is a turn, and going straight is not.
        assert turn_bits(*walk(0.0, 180.0))
        assert not turn_bits(*walk(90.0, 90.0))
        # Over raw bearings, the change is wrapped into [0, 180].
        assert not bearing_turns(350.0, 19.0) and not bearing_turns(-170.0, 170.0)
        assert bearing_turns(350.0, 21.0) and bearing_turns(-170.0, 150.0)
        assert bearing_turns(0.0, 180.0) and not bearing_turns(180.0, -179.999)

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
        # A route of two locations has that bit alone.
        assert {turn_pattern(r, tee_graph) for r in enumerate_routes(tee_graph, 2)} == {(0,)}

    def test_threshold_is_strict(self):
        # A bearing change of exactly 30 degrees is no turn (the test is
        # strictly greater than), and anything past it is one.
        assert not bearing_turns(0.0, 30.0) and not bearing_turns(0.0, -30.0)
        assert bearing_turns(0.0, 30.0 + 1e-9) and bearing_turns(0.0, -30.0 - 1e-9)
        assert not bearing_turns(np.array([100.0]), np.array([130.0]))[0]

        def bend(deg):
            # Location 1 bends the route 0 -> 1 -> 2 by ``deg`` degrees.
            end = (1.0 + math.cos(math.radians(deg)), math.sin(math.radians(deg)))
            return MapGraph([Location(0, (0.0, 0.0), 0.0, (1,)),
                             Location(1, (1.0, 0.0), 0.0, (0, 2)),
                             Location(2, end, 0.0, (1,))])

        assert turn_pattern((0, 1, 2), bend(29.9)) == (0, 0)
        assert turn_pattern((0, 1, 2), bend(30.1)) == (0, 1)

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

    def test_agrees_with_scalar_loop(self, tee_graph):
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
            for route in sorted(enumerate_routes(g, m)):
                got = turn_pattern(route, g)
                assert got == loop_pattern(route, g)
                assert all(type(b) is int for b in got)
