"""Retrieval quality metrics over descriptor stores.

Covers top-k% recall curves (rank cutoff is a percentage of the reference
set), precision/recall over distance thresholds for matched vs unmatched
pairs, and paired distance histograms over shared bin edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .store import DescriptorStore
from .world import write_csv

# Query rows per block of query-to-reference distances.
ROW_BLOCK = 256
DEFAULT_BIN_COUNT = 32


@dataclass
class RecallCurve:
    """Top-k% recall: (k_percent, recall) points, k ascending."""

    points: list

    def recall_at(self, k_percent: float) -> float:
        for k, r in self.points:
            if k == k_percent:
                return r
        raise KeyError(f"no point at k={k_percent}")

    def write_csv(self, path) -> None:
        write_csv(path, ["k_percent", "recall"],
                  (["%.17g" % k, "%.17g" % r] for k, r in self.points))


@dataclass
class PrCurve:
    """Precision/recall at ascending distance thresholds."""

    points: list  # (threshold, precision, recall)

    def write_csv(self, path) -> None:
        write_csv(path, ["threshold", "precision", "recall"],
                  (["%.17g" % t, "%.17g" % p, "%.17g" % r] for t, p, r in self.points))


@dataclass
class DistHistogram:
    """Matched and unmatched distance histograms over shared bin edges."""

    edges: np.ndarray
    matched_counts: np.ndarray
    unmatched_counts: np.ndarray

    def write_csv(self, path) -> None:
        write_csv(path, ["bin_lo", "bin_hi", "matched", "unmatched"],
                  (["%.17g" % lo, "%.17g" % hi, int(m), int(u)]
                   for lo, hi, m, u in zip(self.edges[:-1], self.edges[1:],
                                           self.matched_counts, self.unmatched_counts)))


def distance_blocks(query_vectors, refs: DescriptorStore):
    """(first row, distances) for each block of ``ROW_BLOCK`` query rows, in order.

    Each block is a (rows, |refs|) table from ``refs.distance_matrix``, so
    every entry equals the one a single-query call gives.
    """
    for lo in range(0, len(query_vectors), ROW_BLOCK):
        yield lo, refs.distance_matrix(query_vectors[lo:lo + ROW_BLOCK])


def truth_ranks(query_vectors, truth_ids, refs: DescriptorStore) -> np.ndarray:
    """1-based rank of each query's true reference under (distance, ref id) order.

    Distance ties are broken by ascending reference id, matching an
    exhaustive sort with that key.
    """
    q = np.asarray(query_vectors, dtype=np.float64)
    truth = np.asarray(truth_ids, dtype=np.int64)
    if q.ndim != 2 or len(q) != len(truth):
        raise ValueError("need query vectors (Q, dim) with one truth id per query")
    if len(q) == 0:
        raise ValueError("no queries given")
    rows = refs.rows_of(truth)
    ranks = np.empty(len(q), dtype=np.int64)
    for lo, d in distance_blocks(q, refs):
        hi = lo + len(d)
        dt = d[np.arange(len(d)), rows[lo:hi]][:, None]
        ties = (d == dt) & (refs.ids[None, :] < truth[lo:hi, None])
        ranks[lo:hi] = (d < dt).sum(axis=1) + ties.sum(axis=1) + 1
    return ranks


def topk_percent_recall(query_vectors, truth_ids, refs: DescriptorStore,
                        ks) -> RecallCurve:
    """Recall within the top ceil(k/100 * |refs|) nearest references, per k.

    Every query's truth id must exist in the reference store.
    """
    ks = [float(k) for k in ks]
    if not ks:
        raise ValueError("need at least one k value")
    if not all(0 < k <= 100 for k in ks):
        raise ValueError(f"k percentages must lie in (0, 100], got {ks}")
    ks.sort()
    ranks = truth_ranks(query_vectors, truth_ids, refs)
    points = []
    for k in ks:
        cutoff = math.ceil(k / 100.0 * len(refs))
        points.append((k, float(np.mean(ranks <= cutoff))))
    return RecallCurve(points)


def precision_recall_curve(matched_d, unmatched_d, thresholds) -> PrCurve:
    """Precision and recall of "distance <= threshold means match" per threshold.

    Precision is defined as 1.0 at thresholds that retrieve nothing.
    """
    m = np.asarray(matched_d, dtype=np.float64)
    u = np.asarray(unmatched_d, dtype=np.float64)
    if m.size == 0:
        raise ValueError("need at least one matched distance")
    _check_distances(m, u)
    ts = sorted(float(t) for t in thresholds)
    if not ts:
        raise ValueError("need at least one threshold")
    if not np.isfinite(ts).all():
        raise ValueError(f"thresholds must be finite, got {ts}")
    points = []
    for t in ts:
        tp = int(np.sum(m <= t))
        fp = int(np.sum(u <= t))
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / m.size
        points.append((t, precision, recall))
    return PrCurve(points)


def distance_histograms(matched_d, unmatched_d,
                        bin_count: int = DEFAULT_BIN_COUNT) -> DistHistogram:
    """Histogram both distance populations over shared edges spanning [0, max]."""
    m = np.asarray(matched_d, dtype=np.float64)
    u = np.asarray(unmatched_d, dtype=np.float64)
    if m.size == 0 or u.size == 0:
        raise ValueError("both distance populations must be non-empty")
    _check_distances(m, u)
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    hi = float(max(m.max(), u.max()))
    if hi <= 0:
        hi = 1.0
    edges = np.linspace(0.0, hi, bin_count + 1)
    mc, _ = np.histogram(m, bins=edges)
    uc, _ = np.histogram(u, bins=edges)
    return DistHistogram(edges=edges, matched_counts=mc, unmatched_counts=uc)


def _check_distances(m: np.ndarray, u: np.ndarray) -> None:
    """Raise ValueError unless every matched and unmatched distance is finite and >= 0."""
    if not (np.isfinite(m).all() and np.isfinite(u).all()):
        raise ValueError("distances must be finite")
    if np.any(m < 0) or np.any(u < 0):
        raise ValueError("distances must be non-negative")
