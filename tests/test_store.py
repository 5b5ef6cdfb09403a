"""Descriptor store: construction, lookup, distances, file round-trips."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from routeloc import DescriptorStore, StoreFormatError


@pytest.fixture
def store():
    rng = np.random.default_rng(0)
    # Deliberately unsorted, non-contiguous ids.
    return DescriptorStore([40, 7, 19, 3], rng.normal(0.0, 1.0, (4, 6)))


class TestConstruction:
    def test_sorts_by_id(self):
        vecs = np.arange(8.0).reshape(4, 2)
        s = DescriptorStore([9, 2, 5, 0], vecs)
        np.testing.assert_array_equal(s.ids, [0, 2, 5, 9])
        np.testing.assert_array_equal(s.vectors, vecs[[3, 1, 2, 0]])
        assert len(s) == 4 and s.dim == 2

    @pytest.mark.parametrize(
        "ids,vecs,msg",
        [
            ([1, 2], np.ones((3, 2)), "matching length"),
            ([1], np.ones(2), "matching length"),
            ([], np.ones((0, 2)), "cannot be empty"),
            ([1, -2], np.ones((2, 2)), "non-negative"),
            ([3, 1, 3], np.ones((3, 2)), "duplicate descriptor id 3"),
            ([1, 2], [[0.0, np.nan], [1.0, 1.0]], "must be finite"),
            ([1, 2], [[0.0, 1.0], [-np.inf, 1.0]], "must be finite"),
            ([1, 2], np.ones((2, 0)), "at least one dimension"),
        ],
    )
    def test_rejects_invalid(self, ids, vecs, msg):
        with pytest.raises(ValueError, match=msg):
            DescriptorStore(ids, vecs)


class TestLookup:
    def test_row_of(self, store):
        for row, loc in enumerate([3, 7, 19, 40]):
            assert store.rows_of(loc) == row

    @pytest.mark.parametrize("missing", [0, 8, 41, 1000])
    def test_row_of_missing(self, store, missing):
        with pytest.raises(KeyError, match=str(missing)):
            store.rows_of(missing)

    def test_rows_of(self, store):
        np.testing.assert_array_equal(store.rows_of([40, 3, 19]), [3, 0, 2])
        with pytest.raises(KeyError):
            store.rows_of([3, 99])
        np.testing.assert_array_equal(store.rows_of([[40, 3], [7, 19]]), [[3, 0], [1, 2]])
        with pytest.raises(KeyError, match="99"):
            store.rows_of([[3, 7], [19, 99]])


class TestDistances:
    def test_distances_match_loop(self, store):
        q = np.linspace(-1.0, 1.0, store.dim)
        got = store.distance_matrix(q[None])[0]
        want = [float(np.linalg.norm(v - q)) for v in store.vectors]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_zero_distance_to_member(self, store):
        row = store.rows_of(19)
        d = store.distance_matrix(store.vectors[row][None])[0]
        assert d[row] == 0.0

    def test_query_shape_error(self, store):
        with pytest.raises(ValueError, match="does not match"):
            store.distance_matrix(np.ones((1, store.dim + 1)))


def per_row_norms(vectors, queries):
    """Reference table: one np.linalg.norm over the store per query row."""
    return np.array([np.linalg.norm(vectors - q, axis=1) for q in queries])


coords = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def stores_and_queries(draw):
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    vectors = draw(hnp.arrays(np.float64, (n, dim), elements=coords))
    queries = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), dim), elements=coords))
    return DescriptorStore(np.arange(n), vectors), queries


class TestDistanceMatrix:
    @given(stores_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_norm(self, case):
        store, queries = case
        got = store.distance_matrix(queries)
        assert got.shape == (len(queries), len(store))
        np.testing.assert_allclose(got, per_row_norms(store.vectors, queries),
                                   rtol=1e-13, atol=0.0)

    def test_one_row_case_equals_its_row(self, store):
        queries = np.random.default_rng(1).normal(0.0, 1.0, (3, store.dim))
        table = store.distance_matrix(queries)
        for q, row in zip(queries, table):
            np.testing.assert_array_equal(store.distance_matrix(q[None])[0], row)

    def test_duplicate_rows_bit_equal(self):
        rng = np.random.default_rng(2)
        base = rng.normal(0.0, 8.0, (5, 16))
        store = DescriptorStore(np.arange(35), np.tile(base, (7, 1)))
        table = store.distance_matrix(rng.normal(0.0, 8.0, (20, 16)))
        for k in range(1, 7):
            np.testing.assert_array_equal(table[:, 5 * k:5 * k + 5], table[:, :5])

    def test_member_query_is_exactly_zero(self, store):
        table = store.distance_matrix(store.vectors)
        np.testing.assert_array_equal(np.diag(table), 0.0)

    def test_small_difference_keeps_precision(self, store):
        # The Gram form ||q||^2 + ||r||^2 - 2 q.r loses this to cancellation.
        q = store.vectors[2].copy()
        q[4] += 1e-9
        d = store.distance_matrix(q[None, :])[0, 2]
        assert abs(d - 1e-9) <= 1e-15

    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (6,), (1, 2, 6)])
    def test_shape_errors(self, store, shape):
        with pytest.raises(ValueError, match="does not match"):
            store.distance_matrix(np.ones(shape))


class TestBinaryFormat:
    def test_round_trip_quantizes_to_f32(self, tmp_path, store):
        path = tmp_path / "d.emb"
        store.save(path)
        back = DescriptorStore.load(path)
        np.testing.assert_array_equal(back.ids, store.ids)
        np.testing.assert_array_equal(
            back.vectors, store.vectors.astype(np.float32).astype(np.float64)
        )

    def test_byte_deterministic(self, tmp_path, store):
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        store.save(a)
        store.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path, store):
        path = tmp_path / "d.emb"
        store.save(path)
        raw = path.read_bytes()
        magic, dim, count = struct.unpack("<4sII", raw[:12])
        assert (magic, dim, count) == (b"EMB1", 6, 4)
        assert len(raw) == 12 + count * (4 + dim * 4)

    def test_u32_id_limit(self, tmp_path):
        s = DescriptorStore([2**32], np.ones((1, 2)))
        with pytest.raises(ValueError, match="u32 range"):
            s.save(tmp_path / "d.emb")
        # The CSV format has no such limit.
        s.save(tmp_path / "d.csv")
        assert DescriptorStore.load(tmp_path / "d.csv").ids[0] == 2**32

    @pytest.mark.parametrize(
        "body,msg",
        [
            (b"EMB1\x06\x00", "truncated header"),
            (b"EMB1" + struct.pack("<II", 0, 3), "zero descriptor dimension"),
            (b"EMB1" + struct.pack("<II", 2, 5) + b"\x00" * 12, "got 12 bytes"),
            (b"EMB1" + struct.pack("<IIIfIf", 1, 2, 3, 1.0, 4, np.inf),
             r"record 1 \(id 4\) is not finite"),
        ],
    )
    def test_malformed_binary(self, tmp_path, body, msg):
        path = tmp_path / "bad.emb"
        path.write_bytes(body)
        with pytest.raises(StoreFormatError, match=msg):
            DescriptorStore.load(path)


def round_trip(store, path):
    store.save(path)
    return DescriptorStore.load(path)


finite_f64 = st.floats(allow_nan=False, allow_infinity=False)
# Values a float32 record can hold without overflowing.
f32_range = st.floats(-3.0e38, 3.0e38)


@st.composite
def stores(draw, elements):
    dim = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True))
    vectors = draw(hnp.arrays(np.float64, (len(ids), dim), elements=elements))
    return DescriptorStore(ids, vectors)


class TestFuzzedRoundTrips:
    @given(stores(finite_f64))
    @settings(max_examples=40, deadline=None)
    def test_csv_exact(self, tmp_path_factory, store):
        back = round_trip(store, tmp_path_factory.mktemp("csv") / "d.csv")
        np.testing.assert_array_equal(back.ids, store.ids)
        np.testing.assert_array_equal(back.vectors, store.vectors)

    @given(stores(f32_range))
    @settings(max_examples=40, deadline=None)
    def test_binary_to_f32(self, tmp_path_factory, store):
        back = round_trip(store, tmp_path_factory.mktemp("bin") / "d.emb")
        np.testing.assert_array_equal(back.ids, store.ids)
        np.testing.assert_array_equal(
            back.vectors, store.vectors.astype(np.float32).astype(np.float64))


class TestCsvFormat:
    def test_round_trip_exact_f64(self, tmp_path):
        vecs = np.array([[0.1, 1.0 / 3.0], [1e-300, 2.0**-1074], [np.pi, -2.5e17]])
        s = DescriptorStore([5, 1, 3], vecs)
        path = tmp_path / "d.csv"
        s.save(path)
        back = DescriptorStore.load(path)
        np.testing.assert_array_equal(back.ids, s.ids)
        np.testing.assert_array_equal(back.vectors, s.vectors)

    def test_header_row(self, tmp_path, store):
        path = tmp_path / "d.csv"
        store.save(path)
        assert path.read_text().splitlines()[0] == "id,v0,v1,v2,v3,v4,v5"

    def test_sniffs_csv_without_extension(self, tmp_path, store):
        # Loader dispatch is by magic bytes, not filename.
        path = tmp_path / "no_ext"
        path.write_text("id,v0\n7,1.5\n8,2.5\n")
        back = DescriptorStore.load(path)
        np.testing.assert_array_equal(back.ids, [7, 8])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,v0\n1,0.5\n\n2,1.5\n")
        assert len(DescriptorStore.load(path)) == 2

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("", "empty file"),
            ("loc,v0\n1,2.0\n", "expected CSV header"),
            ("id,v0,v1\n1,2.0\n", "line 2: expected 3 fields"),
            ("id,v0\n1,2.0\n2,spam\n", "line 3"),
            ("id,v0\n", "no descriptor rows"),
            ("id\n1\n2\n", "bad.csv: CSV header has no value columns"),
            ("id\n", "no value columns"),
            ("id,v0,v1\n1,2.0,0\n2,0,nan\n", "line 3: values must be finite"),
            ("id,v0\n1,-inf\n", "line 2: values must be finite"),
        ],
    )
    def test_malformed_csv(self, tmp_path, text, msg):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(StoreFormatError, match=msg):
            DescriptorStore.load(path)
