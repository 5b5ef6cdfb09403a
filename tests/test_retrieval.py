"""Retrieval metrics: rank oracle, recall cutoffs, PR curves, histograms."""
import math
from unittest import mock

import numpy as np
import pytest

from routeloc import retrieval
from routeloc import (
    DescriptorStore,
    distance_histograms,
    precision_recall_curve,
    topk_percent_recall,
    truth_ranks,
)


def oracle_rank(query, truth_id, refs):
    """Exhaustive sort by (distance, ref id); 1-based position of the truth."""
    keyed = sorted(
        (float(np.linalg.norm(v - query)), int(i))
        for i, v in zip(refs.ids, refs.vectors)
    )
    return [i for _, i in keyed].index(truth_id) + 1


def per_row_ranks(queries, truth, refs):
    """Ranks from one single-query distance vector per query."""
    ranks = []
    for q, t in zip(queries, truth):
        d = refs.distance_matrix(q[None])[0]
        dt = d[refs.rows_of(t)]
        ranks.append(int(np.sum(d < dt) + np.sum((d == dt) & (refs.ids < t))) + 1)
    return ranks


class TestTruthRanks:
    @pytest.mark.parametrize("block", [1, 4, 7, 256])
    def test_blocks_equal_the_per_row_loop(self, block):
        # Integer coordinates make many exact distance ties.
        rng = np.random.default_rng(11)
        refs = DescriptorStore(rng.permutation(80), rng.integers(0, 3, (80, 3)))
        queries = rng.integers(0, 3, (30, 3)).astype(np.float64)
        truth = rng.choice(refs.ids, 30)
        with mock.patch.object(retrieval, "ROW_BLOCK", block):
            got = truth_ranks(queries, truth, refs)
            blocks = list(retrieval.distance_blocks(queries, refs))
        np.testing.assert_array_equal(got, per_row_ranks(queries, truth, refs))
        assert [lo for lo, _ in blocks] == list(range(0, 30, block))
        for lo, d in blocks:
            for i, row in enumerate(d, lo):
                np.testing.assert_array_equal(row, refs.distance_matrix(queries[i:i + 1])[0])

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(10)
        refs = DescriptorStore(rng.permutation(60), rng.normal(0, 1, (60, 5)))
        queries = rng.normal(0, 1, (25, 5))
        truth = rng.choice(refs.ids, 25)
        got = truth_ranks(queries, truth, refs)
        want = [oracle_rank(q, t, refs) for q, t in zip(queries, truth)]
        np.testing.assert_array_equal(got, want)

    def test_exact_match_ranks_first(self):
        refs = DescriptorStore([2, 5, 8], np.diag([1.0, 2.0, 3.0]))
        assert truth_ranks(refs.vectors[[1]], [5], refs)[0] == 1

    def test_ties_break_by_ascending_id(self):
        # ids 5 and 9 are both exactly distance 1 from the origin query.
        refs = DescriptorStore([9, 5], np.array([[0.0, 1.0], [1.0, 0.0]]))
        q = np.zeros((1, 2))
        assert truth_ranks(q, [5], refs)[0] == 1
        assert truth_ranks(q, [9], refs)[0] == 2

    def test_validation(self):
        refs = DescriptorStore([0, 1], np.ones((2, 3)))
        with pytest.raises(ValueError, match="one truth id per query"):
            truth_ranks(np.ones((2, 3)), [0], refs)
        with pytest.raises(ValueError, match="no queries"):
            truth_ranks(np.ones((0, 3)), [], refs)
        with pytest.raises(KeyError):
            truth_ranks(np.ones((1, 3)), [7], refs)


class TestTopkPercentRecall:
    @pytest.fixture
    def line_refs(self):
        # Colinear refs so query-at-origin ranks are exactly 1, 2, 3, 4.
        return DescriptorStore([0, 1, 2, 3], np.array([[0.0], [10.0], [20.0], [30.0]]))

    def test_hand_computed_curve(self, line_refs):
        queries = np.zeros((4, 1))
        truth = [0, 1, 2, 3]  # ranks 1..4
        curve = topk_percent_recall(queries, truth, line_refs, [25, 50, 75, 100])
        assert curve.points == [(25.0, 0.25), (50.0, 0.5), (75.0, 0.75), (100.0, 1.0)]

    def test_ceil_cutoff(self):
        # With 7 refs, k=1% keeps ceil(0.07) = 1 reference: top-1 only.
        rng = np.random.default_rng(11)
        refs = DescriptorStore(np.arange(7), rng.normal(0, 1, (7, 3)))
        queries = refs.vectors[[4, 6]] + 1e-9
        curve = topk_percent_recall(queries, [4, 6], refs, [1])
        assert math.ceil(1 / 100 * len(refs)) == 1
        assert curve.recall_at(1) == 1.0

    def test_k100_is_always_one(self):
        rng = np.random.default_rng(12)
        refs = DescriptorStore(np.arange(20), rng.normal(0, 1, (20, 4)))
        queries = rng.normal(0, 5, (10, 4))
        curve = topk_percent_recall(queries, rng.choice(20, 10), refs, [100])
        assert curve.recall_at(100) == 1.0

    def test_ks_sorted_in_output(self, line_refs):
        curve = topk_percent_recall(np.zeros((1, 1)), [0], line_refs, [75, 25])
        assert [k for k, _ in curve.points] == [25.0, 75.0]

    def test_recall_at_missing_k(self, line_refs):
        curve = topk_percent_recall(np.zeros((1, 1)), [0], line_refs, [50])
        with pytest.raises(KeyError, match="no point"):
            curve.recall_at(10)

    @pytest.mark.parametrize("ks", [[], [0], [101], [-5], [float("nan")], [50, float("nan")]])
    def test_bad_ks(self, line_refs, ks):
        with pytest.raises(ValueError, match="k value|k percentages"):
            topk_percent_recall(np.zeros((1, 1)), [0], line_refs, ks)

    def test_write_csv(self, tmp_path, line_refs):
        curve = topk_percent_recall(np.zeros((2, 1)), [0, 1], line_refs, [25, 100])
        path = tmp_path / "recall.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k_percent,recall"
        assert [float(x) for x in lines[1].split(",")] == [25.0, 0.5]


class TestPrecisionRecall:
    def test_hand_computed_points(self):
        curve = precision_recall_curve([1.0, 3.0], [2.0, 4.0], [0, 1, 2, 3, 4])
        want = [
            (0.0, 1.0, 0.0),       # nothing retrieved: precision defined as 1
            (1.0, 1.0, 0.5),
            (2.0, 0.5, 0.5),
            (3.0, 2.0 / 3.0, 1.0),
            (4.0, 0.5, 1.0),
        ]
        for got, exp in zip(curve.points, want):
            assert got == pytest.approx(exp)

    def test_recall_monotone(self):
        rng = np.random.default_rng(13)
        curve = precision_recall_curve(
            rng.uniform(0, 5, 200), rng.uniform(0, 5, 300), np.linspace(0, 5, 40)
        )
        recalls = [r for _, _, r in curve.points]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))

    def test_no_unmatched_gives_unit_precision(self):
        curve = precision_recall_curve([1.0, 2.0], [], [0.5, 1.5, 2.5])
        assert [p for _, p, _ in curve.points] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "m,u,ts",
        [([], [1.0], [1.0]), ([1.0], [-1.0], [1.0]), ([1.0], [1.0], [])],
    )
    def test_validation(self, m, u, ts):
        with pytest.raises(ValueError):
            precision_recall_curve(m, u, ts)

    @pytest.mark.parametrize("m,u,ts", [([math.nan], [1.0], [1.0]), ([1.0], [math.inf], [1.0]),
                                        ([1.0], [1.0], [math.nan]), ([1.0], [1.0], [math.inf])])
    def test_rejects_non_finite(self, m, u, ts):
        with pytest.raises(ValueError, match="finite"):
            precision_recall_curve(m, u, ts)

    def test_write_csv(self, tmp_path):
        curve = precision_recall_curve([1.0], [2.0], [1.5])
        path = tmp_path / "pr.csv"
        curve.write_csv(path)
        assert path.read_text().splitlines() == ["threshold,precision,recall", "1.5,1,1"]


class TestDistanceHistograms:
    def test_counts_conserved(self):
        rng = np.random.default_rng(14)
        m = rng.uniform(0, 3, 500)
        u = rng.uniform(0, 7, 800)
        hist = distance_histograms(m, u, bin_count=16)
        assert hist.matched_counts.sum() == 500
        assert hist.unmatched_counts.sum() == 800

    def test_shared_edges_span_both_populations(self):
        hist = distance_histograms([1.0, 2.0], [5.0], bin_count=10)
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 5.0
        assert len(hist.edges) == 11

    def test_all_zero_distances(self):
        hist = distance_histograms([0.0, 0.0], [0.0], bin_count=4)
        assert hist.edges[-1] == 1.0
        assert hist.matched_counts[0] == 2

    @pytest.mark.parametrize("m,u,bins", [([], [1.0], 4), ([1.0], [], 4), ([1.0], [1.0], 0)])
    def test_validation(self, m, u, bins):
        with pytest.raises(ValueError):
            distance_histograms(m, u, bin_count=bins)

    @pytest.mark.parametrize("m,u", [([math.inf], [2.0]), ([1.0], [math.nan]),
                                     ([1.0], [-math.inf])])
    def test_rejects_non_finite(self, m, u):
        with pytest.raises(ValueError, match="finite"):
            distance_histograms(m, u)

    def test_write_csv(self, tmp_path):
        hist = distance_histograms([0.5, 1.5], [1.5], bin_count=2)
        path = tmp_path / "hist.csv"
        hist.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,matched,unmatched"
        assert len(lines) == 3
        assert lines[2].split(",")[2:] == ["1", "1"]
