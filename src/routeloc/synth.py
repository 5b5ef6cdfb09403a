"""Synthetic world generation.

Builds deterministic, road-like test worlds: either a street grid whose
blocks are chains of evenly spaced locations, or a random planar road
network (Delaunay skeleton thinned to a spanning structure, roads then
subdivided at roughly `spacing` meters).  Latents are drawn i.i.d. Gaussian
plus per-tag offset vectors, so semantic tags stay recoverable from latents.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay

from .world import TAG_NAMES, Location, MapGraph, bearing_deg

LAYOUTS = ("grid", "random-planar")


@dataclass
class SyntheticWorldConfig:
    """Parameters for generate_synthetic_world.

    Parameters
    ----------
    layout : str
        "grid" for a street grid, "random-planar" for a random road network.
    node_count : int
        Target number of locations (exact for grid layouts without edge
        drops; after drops the largest connected component is kept, so the
        final count may be lower).
    spacing : float
        Approximate distance in meters between consecutive locations.
    edge_drop_prob : float
        Probability of removing each road edge before subdivision.
    latent_dim : int
        Dimension of per-location latent vectors.
    tag_densities : dict
        Per-tag Bernoulli probability, keyed by TAG_NAMES entries.
    seed : int
        RNG seed; identical configs generate byte-identical worlds.
    block_len : int
        Grid layout only: number of spacing-steps per city block edge.
        1 gives a plain lattice; larger values insert degree-2 chain
        locations between junctions, which keeps route enumeration tractable
        at longer lengths.
    """

    layout: str = "grid"
    node_count: int = 100
    spacing: float = 10.0
    edge_drop_prob: float = 0.0
    latent_dim: int = 16
    tag_densities: dict = field(default_factory=dict)
    seed: int = 0
    block_len: int = 1

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; expected one of {LAYOUTS}")
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not 0.0 <= self.edge_drop_prob < 1.0:
            raise ValueError(f"edge_drop_prob must be in [0, 1), got {self.edge_drop_prob}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.block_len < 1:
            raise ValueError(f"block_len must be >= 1, got {self.block_len}")
        unknown = set(self.tag_densities) - set(TAG_NAMES)
        if unknown:
            raise ValueError(f"unknown tags in tag_densities: {sorted(unknown)}")
        for tag, p in self.tag_densities.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"tag density for {tag} must be in [0, 1], got {p}")


def generate_synthetic_world(cfg: SyntheticWorldConfig) -> MapGraph:
    """Generate a deterministic synthetic world from a config.

    Returns a validated MapGraph whose node count equals the size of the
    largest connected component of the generated topology.  Latents are
    distinct across locations with probability 1.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.layout == "grid":
        positions, adjacency = _grid_topology(cfg, rng)
    else:
        positions, adjacency = _random_planar_topology(cfg, rng)

    keep = _largest_component(adjacency)
    ids = sorted(keep)
    adjacency = {i: sorted(n for n in adjacency[i] if n in keep) for i in ids}
    n = len(ids)

    # Per-tag latent offsets (drawn in canonical tag order), then tag draws,
    # base latents and headings -- all in fixed order for determinism.
    offsets = rng.normal(0.0, 1.0, size=(len(TAG_NAMES), cfg.latent_dim))
    densities = np.array([cfg.tag_densities.get(t, 0.0) for t in TAG_NAMES])
    tag_mask = rng.random((n, len(TAG_NAMES))) < densities[None, :]
    latents = rng.normal(0.0, 1.0, size=(n, cfg.latent_dim))
    latents = latents + tag_mask.astype(np.float64) @ offsets

    locations = []
    for row, nid in enumerate(ids):
        nbrs = adjacency[nid]
        if nbrs:
            pick = int(rng.integers(len(nbrs)))
            heading = bearing_deg(positions[nid], positions[nbrs[pick]])
        else:
            heading = float(rng.uniform(0.0, 360.0))
        tags = frozenset(t for t, on in zip(TAG_NAMES, tag_mask[row]) if on)
        locations.append(
            Location(
                id=nid,
                position=positions[nid],
                heading=heading % 360.0,
                neighbors=tuple(nbrs),
                tags=tags,
                latent=latents[row],
            )
        )
    return MapGraph(locations)


# ----------------------------------------------------------------------
# topology builders: return ({id: (x, y)}, {id: set of neighbor ids})
# ----------------------------------------------------------------------


def _grid_topology(cfg, rng):
    # Street grid with degree-2 chains between junctions; block_len 1 is
    # the plain lattice, whose edges get no interior locations.
    b = cfg.block_len
    if b == 1:
        rows, cols = _near_square_factors(cfg.node_count)
    else:
        rows, cols = _best_block_grid(cfg.node_count, b)
    step = b * cfg.spacing
    positions = {}
    adjacency = {}
    jid = lambda r, c: r * cols + c
    for r in range(rows):
        for c in range(cols):
            positions[jid(r, c)] = (c * step, r * step)
            adjacency[jid(r, c)] = set()
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((jid(r, c), jid(r, c + 1)))
            if r + 1 < rows:
                edges.append((jid(r, c), jid(r + 1, c)))
    kept = _drop_edges(edges, cfg.edge_drop_prob, rng)
    interior = [b - 1] * len(kept)
    total = rows * cols + sum(interior)
    deficit = cfg.node_count - total
    i = 0
    while deficit > 0 and kept:
        interior[i % len(kept)] += 1
        deficit -= 1
        i += 1
    next_id = rows * cols
    for (a, bb), q in zip(kept, interior):
        next_id = _subdivide(a, bb, q, positions, adjacency, next_id)
    return positions, adjacency


def _random_planar_topology(cfg, rng):
    n = cfg.node_count
    if n < 8:
        # Too small for a road skeleton; fall back to a simple chain.
        positions = {i: (i * cfg.spacing, 0.0) for i in range(n)}
        adjacency = {i: set() for i in range(n)}
        for i in range(n - 1):
            adjacency[i].add(i + 1)
            adjacency[i + 1].add(i)
        return positions, adjacency

    n_junctions = max(4, min(n // 12, 400))
    side = cfg.spacing * math.sqrt(n) * 1.5
    pts = rng.uniform(0.0, side, size=(n_junctions, 2))

    # Delaunay skeleton -> MST plus the shortest extra edges for loops.
    tri = Delaunay(pts)
    dedges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, bb = int(simplex[i]), int(simplex[(i + 1) % 3])
            dedges.add((min(a, bb), max(a, bb)))
    dedges = sorted(dedges)
    weights = np.array([math.dist(pts[a], pts[bb]) for a, bb in dedges])
    rows_ = np.array([e[0] for e in dedges])
    cols_ = np.array([e[1] for e in dedges])
    mst = minimum_spanning_tree(
        csr_matrix((weights, (rows_, cols_)), shape=(n_junctions, n_junctions))
    ).tocoo()
    mst_edges = {(min(int(a), int(bb)), max(int(a), int(bb))) for a, bb in zip(mst.row, mst.col)}
    extras = sorted(
        (e for e in dedges if e not in mst_edges),
        key=lambda e: (math.dist(pts[e[0]], pts[e[1]]), e),
    )
    road_edges = sorted(mst_edges | set(extras[: max(1, len(extras) // 3)]))
    road_edges = _drop_edges(road_edges, cfg.edge_drop_prob, rng)

    positions = {i: (float(pts[i][0]), float(pts[i][1])) for i in range(n_junctions)}
    adjacency = {i: set() for i in range(n_junctions)}
    lengths = [math.dist(pts[a], pts[bb]) for a, bb in road_edges]
    interior = [max(0, round(l / cfg.spacing) - 1) for l in lengths]
    total = n_junctions + sum(interior)
    # Adjust interior counts one node at a time to land exactly on node_count,
    # preferring edges whose current segment spacing is farthest from target.
    while total != n and road_edges:
        if total < n:
            j = max(range(len(road_edges)), key=lambda e: (lengths[e] / (interior[e] + 1), e))
            interior[j] += 1
            total += 1
        else:
            candidates = [e for e in range(len(road_edges)) if interior[e] > 0]
            if not candidates:
                break
            j = min(candidates, key=lambda e: (lengths[e] / (interior[e] + 1), e))
            interior[j] -= 1
            total -= 1
    next_id = n_junctions
    for (a, bb), q in zip(road_edges, interior):
        next_id = _subdivide(a, bb, q, positions, adjacency, next_id)
    return positions, adjacency


def _subdivide(a, b, q, positions, adjacency, next_id):
    """Replace edge a-b by a chain with q interior locations; returns next free id."""
    if q == 0:
        adjacency[a].add(b)
        adjacency[b].add(a)
        return next_id
    pa, pb = positions[a], positions[b]
    chain = [a]
    for j in range(1, q + 1):
        t = j / (q + 1)
        positions[next_id] = (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))
        adjacency[next_id] = set()
        chain.append(next_id)
        next_id += 1
    chain.append(b)
    for u, v in zip(chain, chain[1:]):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return next_id


def _drop_edges(edges, p, rng):
    if p <= 0.0:
        return list(edges)
    u = rng.random(len(edges))
    return [e for e, x in zip(edges, u) if x >= p]


def _near_square_factors(n):
    root = int(math.isqrt(n))
    for r in range(root, 0, -1):
        if n % r == 0:
            return r, n // r
    return 1, n


def _best_block_grid(n, b):
    """Largest (rows, cols) street grid whose full node count fits inside n."""
    best = None
    for rows in range(2, int(math.isqrt(n)) + 2):
        denom = rows * (2 * b - 1) - (b - 1)
        if denom <= 0:
            continue
        cols = (n + rows * (b - 1)) // denom
        if cols < rows:
            continue
        total = rows * cols * (2 * b - 1) - (rows + cols) * (b - 1)
        while total > n and cols > rows:
            cols -= 1
            total = rows * cols * (2 * b - 1) - (rows + cols) * (b - 1)
        if total > n:
            continue
        key = (total, -(cols - rows))
        if best is None or key > best[0]:
            best = (key, rows, cols)
    if best is None:
        raise ValueError(f"node_count {n} too small for block_len {b}")
    return best[1], best[2]


def _largest_component(adjacency):
    unseen = set(adjacency)
    best: set = set()
    while unseen:
        start = min(unseen)
        comp = {start}
        queue = deque([start])
        unseen.discard(start)
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v in unseen:
                    unseen.discard(v)
                    comp.add(v)
                    queue.append(v)
        if len(comp) > len(best) or (len(comp) == len(best) and min(comp) < min(best or {0})):
            best = comp
    return best
