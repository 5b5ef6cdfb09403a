"""Hand-crafted localization baselines.

Binary semantic descriptors (BSD) condense each location into four bits read
from its semantic tags.  This module reads the map-side codes, simulates
noisy query-side codes and turns a query code into per-location Hamming
costs.  Routes are ranked by the localizer's search, which takes these
costs as it takes descriptor distances.  The turn-only baseline runs the
same search on all-zero costs, so only its turn filter tells routes apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .world import TAG_NAMES, MapGraph, Route

# Bit order of a BSD code.
BSD_TAG_ORDER = ("junction_ahead", "junction_behind", "gap_left", "gap_right")

BsdCode = tuple[int, int, int, int]


@dataclass(frozen=True)
class BsdNoise:
    """Per-bit flip probabilities for simulating an imperfect image classifier.

    Defaults are calibrated so that simulated junction and gap detections
    show roughly the precision/recall of a real classifier on street-level
    imagery (junction bits flip more often than gap bits).
    """

    p_junction: float = 0.3
    p_gap: float = 0.23

    def __post_init__(self):
        for p in (self.p_junction, self.p_gap):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"flip probability must be in [0, 1], got {p}")

    def per_bit(self) -> np.ndarray:
        return np.array([self.p_junction, self.p_junction, self.p_gap, self.p_gap])


def map_code_matrix(g: MapGraph) -> np.ndarray:
    """BSD codes for every location, shape (N, 4) uint8 in graph row order."""
    cols = [TAG_NAMES.index(t) for t in BSD_TAG_ORDER]
    return g.tag_matrix[:, cols].astype(np.uint8)


def simulate_query_codes(route: Route, g: MapGraph, noise: BsdNoise, rng) -> list[BsdCode]:
    """Noisy query-side BSD codes along a route (each bit flips independently)."""
    codes = map_code_matrix(g)[g.rows_of(route)]
    flips = rng.random(codes.shape) < noise.per_bit()
    return list(map(tuple, np.where(flips, 1 - codes, codes).tolist()))


def hamming_cost_vector(codes: np.ndarray, query_code) -> np.ndarray:
    """Hamming distance from one query code to every map code, float64."""
    qc = np.asarray(query_code, dtype=np.uint8)
    if qc.shape != (codes.shape[1],):
        raise ValueError(f"query code must have {codes.shape[1]} bits, got {qc.shape}")
    return (codes != qc[None, :]).sum(axis=1).astype(np.float64)
