"""Synthetic world generator: determinism, exact counts, connectivity."""
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from routeloc import synth
from routeloc import (
    SyntheticWorldConfig,
    TAG_NAMES,
    generate_synthetic_world,
    save_graph,
)


def is_connected(g):
    """BFS connectivity oracle, independent of the generator internals."""
    ids = [loc.id for loc in g.locations()]
    seen = {ids[0]}
    queue = deque([ids[0]])
    while queue:
        u = queue.popleft()
        for v in g.neighbors_of(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(ids)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(layout="hex"), "unknown layout"),
            (dict(node_count=1), "node_count"),
            (dict(spacing=0.0), "spacing"),
            (dict(edge_drop_prob=1.0), "edge_drop_prob"),
            (dict(latent_dim=0), "latent_dim"),
            (dict(block_len=0), "block_len"),
            (dict(tag_densities={"bridge": 0.5}), "unknown tags"),
            (dict(tag_densities={"tunnel": 1.5}), "tag density"),
            (dict(node_count=60.5), "node_count"),
            (dict(latent_dim=2.5), "latent_dim"),
            (dict(block_len=2.5), "block_len"),
            (dict(node_count=True), "node_count"),
            (dict(spacing=float("inf")), "spacing"),
            (dict(spacing=float("nan")), "spacing"),
        ],
    )
    def test_rejects(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SyntheticWorldConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = SyntheticWorldConfig(node_count=np.int64(30), latent_dim=np.int32(4),
                                   block_len=np.int64(2))
        assert len(generate_synthetic_world(cfg)) == 30


class TestGridLayout:
    @pytest.mark.parametrize("n", [4, 30, 100, 101])
    def test_exact_node_count_plain_lattice(self, n):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=n, seed=1))
        assert len(g) == n

    @pytest.mark.parametrize("n,b", [(60, 3), (200, 5), (2000, 10)])
    def test_exact_node_count_block_grid(self, n, b):
        cfg = SyntheticWorldConfig(node_count=n, block_len=b, seed=2)
        g = generate_synthetic_world(cfg)
        assert len(g) == n

    def test_connected_and_valid(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=64, seed=3))
        g.validate()
        assert is_connected(g)

    def test_block_grid_has_chain_interiors(self):
        cfg = SyntheticWorldConfig(node_count=200, block_len=5, seed=4)
        g = generate_synthetic_world(cfg)
        degrees = [len(loc.neighbors) for loc in g.locations()]
        assert max(degrees) <= 4
        # Chains dominate a street grid with long blocks.
        assert sum(1 for d in degrees if d == 2) > len(g) / 2

    def test_spacing_close_to_target(self):
        cfg = SyntheticWorldConfig(node_count=150, block_len=4, spacing=12.0, seed=5)
        g = generate_synthetic_world(cfg)
        assert g.spacing == pytest.approx(12.0, rel=0.35)

    def test_edge_drops_keep_largest_component(self):
        cfg = SyntheticWorldConfig(node_count=100, edge_drop_prob=0.3, seed=6)
        g = generate_synthetic_world(cfg)
        assert 2 <= len(g) <= 100
        assert is_connected(g)
        g.validate()

    def test_equal_components_tie_to_the_smallest_id(self):
        adjacency = {0: {3}, 1: {2}, 2: {1}, 3: {0}, 4: set()}
        assert synth._largest_component(adjacency) == {0, 3}
        adjacency = {0: set(), 1: {4}, 2: {3, 4}, 3: {2}, 4: {1, 2}}
        assert synth._largest_component(adjacency) == {1, 2, 3, 4}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_largest_component_matches_scipy_labels(self, data):
        # Random edges over n ids; half the time the graph gets a copy of
        # itself, so every component size ties; then the ids are shuffled.
        n = data.draw(st.integers(1, 12))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = [(u, v) for u, v in data.draw(st.lists(pair, max_size=20)) if u != v]
        if data.draw(st.booleans()):
            edges += [(u + n, v + n) for u, v in edges]
            n *= 2
        ids = data.draw(st.permutations(range(n)))
        adjacency = {i: set() for i in range(n)}
        for u, v in edges:
            adjacency[ids[u]].add(ids[v])
            adjacency[ids[v]].add(ids[u])
        rows = [u for u in range(n) for _ in adjacency[u]]
        cols = [v for u in range(n) for v in adjacency[u]]
        links = csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(n, n))
        labels = connected_components(links, directed=False)[1]
        expected = set(np.flatnonzero(labels == np.argmax(np.bincount(labels))).tolist())
        assert synth._largest_component(adjacency) == expected


class TestRandomPlanarLayout:
    def test_exact_node_count(self):
        cfg = SyntheticWorldConfig(layout="random-planar", node_count=300, seed=7)
        g = generate_synthetic_world(cfg)
        assert len(g) == 300
        assert is_connected(g)
        g.validate()

    def test_tiny_world_chain_fallback(self):
        cfg = SyntheticWorldConfig(layout="random-planar", node_count=5, seed=8)
        g = generate_synthetic_world(cfg)
        assert len(g) == 5
        degrees = sorted(len(loc.neighbors) for loc in g.locations())
        assert degrees == [1, 1, 2, 2, 2]

    def test_has_loops(self):
        # Extra edges beyond the spanning tree mean edges >= nodes.
        cfg = SyntheticWorldConfig(layout="random-planar", node_count=400, seed=9)
        g = generate_synthetic_world(cfg)
        assert g.edge_count() >= len(g)


class TestDeterminismAndContent:
    def test_identical_seeds_identical_worlds(self, tmp_path):
        cfg = SyntheticWorldConfig(node_count=80, block_len=3, seed=11,
                                   tag_densities={"tunnel": 0.2, "gap_left": 0.4})
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(generate_synthetic_world(cfg), p1)
        save_graph(generate_synthetic_world(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        base = dict(node_count=80, block_len=3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(generate_synthetic_world(SyntheticWorldConfig(seed=1, **base)), p1)
        save_graph(generate_synthetic_world(SyntheticWorldConfig(seed=2, **base)), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_latents_present_distinct_and_sized(self):
        cfg = SyntheticWorldConfig(node_count=50, latent_dim=7, seed=12)
        g = generate_synthetic_world(cfg)
        lm = g.latent_matrix()
        assert lm.shape == (50, 7)
        assert len(np.unique(lm, axis=0)) == 50

    def test_headings_in_range(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=60, seed=13))
        for loc in g.locations():
            assert 0.0 <= loc.heading < 360.0

    def test_tag_frequencies_match_densities(self):
        dens = {"tunnel": 0.3, "junction_ahead": 0.1}
        cfg = SyntheticWorldConfig(node_count=2000, block_len=10, seed=14,
                                   tag_densities=dens)
        g = generate_synthetic_world(cfg)
        counts = {t: 0 for t in TAG_NAMES}
        for loc in g.locations():
            for t in loc.tags:
                counts[t] += 1
        n = len(g)
        assert counts["tunnel"] / n == pytest.approx(0.3, abs=0.04)
        assert counts["junction_ahead"] / n == pytest.approx(0.1, abs=0.03)
        for t in TAG_NAMES:
            if t not in dens:
                assert counts[t] == 0

    def test_empty_densities_mean_no_tags(self):
        g = generate_synthetic_world(SyntheticWorldConfig(node_count=40, seed=15))
        assert all(not loc.tags for loc in g.locations())

    def test_tagged_latents_carry_offsets(self):
        # Tag offsets shift the latent mean, so tags stay recoverable: the
        # mean latent of tagged locations differs from the untagged mean by
        # far more than sampling noise.
        cfg = SyntheticWorldConfig(node_count=1000, seed=16,
                                   tag_densities={"motorway": 0.5})
        g = generate_synthetic_world(cfg)
        lm = g.latent_matrix()
        tagged = np.array(["motorway" in loc.tags for loc in g.locations()])
        gap = np.linalg.norm(lm[tagged].mean(axis=0) - lm[~tagged].mean(axis=0))
        assert gap > 1.0
