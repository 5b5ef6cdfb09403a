"""Release gate: end-to-end statistical checks and exactness oracles.

Each test here pins one externally meaningful guarantee of the engine:
gradient correctness, counting identities, incremental/batch search
equivalence, noise-free convergence, culling fidelity, held-out retrieval,
metric monotonicity, baseline ordering, difference-score identities, and
numerical stability.  Budgets are asserted where a check is only useful if
it stays cheap.  Statistical thresholds were calibrated once on the pinned
seeds and are expected to be stable: these are regression gates, not flaky
estimates.
"""
import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from routeloc import (
    AugmentationConfig,
    BsdNoise,
    DescriptorStore,
    Encoder,
    ExperimentConfig,
    LocalizerConfig,
    LossConfig,
    NoiseParams,
    SyntheticWorldConfig,
    TrainBatch,
    TrainParams,
    WorldViews,
    advance_candidates,
    batch_loss,
    difference_score,
    enumerate_routes,
    generate_synthetic_world,
    localize_full,
    normalize_scale,
    pair_counts,
    precision_recall_curve,
    run_experiment,
    soft_margin_loss,
    start_candidates,
    topk_percent_recall,
    train_encoders,
    truth_ranks,
)

BIG_WORLD = SyntheticWorldConfig(node_count=2000, spacing=10.0, seed=3, block_len=10)


@pytest.fixture(scope="module")
def convergence_setup():
    """2000-location world with encoders trained to convergence (shared)."""
    t0 = time.monotonic()
    g = generate_synthetic_world(BIG_WORLD)
    views = WorldViews.from_graph(g, seed=3)
    encoders = train_encoders(
        g, LossConfig(), AugmentationConfig(), epochs=30, lr=0.2, seed=42,
        views=views,
    )
    return {
        "graph": g,
        "views": views,
        "encoders": encoders,
        "build_s": time.monotonic() - t0,
    }


def test_01_analytic_gradients_match_finite_differences():
    """Analytic batch-loss gradients agree with central differences.

    120 random configurations over batch locations 2..5, augmentations 1..3
    and descriptor dims {4, 16}; 10 sampled coordinates per parameter array;
    per-coordinate relative error < 1e-4; whole check under 60 s.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    h = 1e-6
    configs = 0
    checked = 0
    worst = 0.0
    for n_b in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for dim in (4, 16):
                for _ in range(5):
                    configs += 1
                    cfg = LossConfig(
                        alpha=float(rng.uniform(0.1, 0.5)),
                        lambdas=tuple(rng.uniform(0.5, 1.5, 4)),
                        dim=dim,
                    )
                    batch = TrainBatch(
                        rng.normal(0.0, 1.0, (n_b, k, dim)),
                        rng.normal(0.0, 1.0, (n_b, k, dim)),
                    )
                    g_enc = Encoder(rng.normal(0, 0.5, (dim, dim)),
                                    rng.normal(0, 0.1, dim))
                    f_enc = Encoder(rng.normal(0, 0.5, (dim, dim)),
                                    rng.normal(0, 0.1, dim))
                    _, grads = batch_loss(batch, g_enc, f_enc, cfg)
                    pairs = (
                        (g_enc.weights, grads.g_weights),
                        (g_enc.bias, grads.g_bias),
                        (f_enc.weights, grads.f_weights),
                        (f_enc.bias, grads.f_bias),
                    )
                    for arr, g_arr in pairs:
                        flat = arr.reshape(-1)
                        for j in rng.choice(flat.size, size=min(10, flat.size),
                                            replace=False):
                            keep = flat[j]
                            flat[j] = keep + h
                            up = batch_loss(batch, g_enc, f_enc, cfg)[0]
                            flat[j] = keep - h
                            dn = batch_loss(batch, g_enc, f_enc, cfg)[0]
                            flat[j] = keep
                            fd = (up - dn) / (2 * h)
                            an = g_arr.reshape(-1)[j]
                            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                            worst = max(worst, rel)
                            checked += 1
    elapsed = time.monotonic() - t0
    assert configs == 120
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"PASS gradients: {configs} configs, {checked} coords, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_pair_count_identities():
    """Frozen case (10, 5) -> (250, 2250) plus the exhaustive-grid identity."""
    assert pair_counts(10, 5) == (250, 2250)
    for n_b in range(1, 9):
        for k in range(1, 7):
            matched, unmatched = pair_counts(n_b, k)
            assert matched == n_b * k * k
            assert unmatched == n_b * (n_b - 1) * k * k
            assert matched + unmatched == (n_b * k) ** 2
    print("PASS pair counts: frozen case and full grid identity")


def test_03_incremental_search_equals_batch_search():
    """Step-composed search reproduces the batch ranking exactly.

    20 random worlds (both layouts, up to 200 nodes), route lengths 2..6,
    culling disabled: identical route order, distances within 1e-9; under
    2 minutes.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    dim = 8
    cfg = LocalizerConfig()
    for trial in range(20):
        layout = "grid" if trial % 2 == 0 else "random-planar"
        nodes = (30, 60, 100, 150, 200)[trial % 5]
        m = 2 + trial % 5
        world_cfg = SyntheticWorldConfig(
            layout=layout, node_count=nodes, seed=trial,
            edge_drop_prob=0.1 if trial % 4 == 0 else 0.0,
        )
        g = generate_synthetic_world(world_cfg)
        assert len(g) <= 200
        store = DescriptorStore(g.id_array, rng.normal(0.0, 1.0, (len(g), dim)))
        query = rng.normal(0.0, 1.0, (m, dim))

        costs = store.distance_matrix(query)[:, store.rows_of(g.id_array)]
        state = start_candidates(g, costs[0], (), cfg)
        for i in range(1, m):
            state = advance_candidates(state, costs[i], None, cfg)
        got = state.ranked()
        want = localize_full(query, enumerate_routes(g, m), store)

        assert [r for r, _ in got] == [r for r, _ in want]
        np.testing.assert_allclose(
            [d for _, d in got], [d for _, d in want], rtol=0.0, atol=1e-9
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f}s"
    print(f"PASS incremental==batch: 20 worlds, {elapsed:.1f}s")


def test_04_noise_free_convergence(convergence_setup):
    """Clean queries on the 2000-location world localize perfectly.

    Top-1 accuracy is 1.0 at every reported length up to 20, for both the
    plain descriptor search and the turn-filtered variant, over 500 routes;
    total runtime (including world build and training) under 5 minutes.
    """
    t0 = time.monotonic()
    reports = {}
    for method in ("ES", "ES+T"):
        cfg = ExperimentConfig(world=BIG_WORLD, method=method, route_count=500,
                               max_length=20, seed=42)
        reports[method] = run_experiment(
            cfg,
            graph=convergence_setup["graph"],
            views=convergence_setup["views"],
            encoders=convergence_setup["encoders"],
        )
    elapsed = convergence_setup["build_s"] + (time.monotonic() - t0)
    for method, rep in reports.items():
        assert rep.lengths[-1] == 20
        for m in rep.lengths:
            assert rep.top1[m] == 1.0, f"{method} top1@{m} = {rep.top1[m]}"
    assert elapsed < 300.0, f"convergence check took {elapsed:.1f}s"
    print(f"PASS noise-free convergence: ES and ES+T at 1.0 everywhere, "
          f"{elapsed:.1f}s including setup")


def test_05_culling_preserves_final_accuracy(convergence_setup):
    """Aggressive per-step culling does not change where routes end up.

    At a noise level yielding 80-95% full-search accuracy, culling half the
    candidates per step (floor 100) keeps final top-1 accuracy within 2
    percentage points of the full search on identical seeds.
    """
    noise = NoiseParams(sigma=0.75, outlier_prob=0.1, outlier_scale=40.0)
    shared = dict(world=BIG_WORLD, method="ES", route_count=500, max_length=20,
                  noise=noise, seed=42)
    artifacts = dict(
        graph=convergence_setup["graph"],
        views=convergence_setup["views"],
        encoders=convergence_setup["encoders"],
    )
    full = run_experiment(ExperimentConfig(**shared), **artifacts)
    culled = run_experiment(
        ExperimentConfig(localizer=LocalizerConfig(cull_fraction=0.5,
                                                   cull_floor=100), **shared),
        **artifacts,
    )
    final = full.lengths[-1]
    assert 0.80 <= full.top1[final] <= 0.95, (
        f"full-search accuracy {full.top1[final]} outside the calibrated band"
    )
    gap = abs(culled.top1[final] - full.top1[final])
    assert gap <= 0.02, (
        f"culling moved final top-1 by {gap * 100:.1f}pp "
        f"(full {full.top1[final]:.3f}, culled {culled.top1[final]:.3f})"
    )
    print(f"PASS culling fidelity: full {full.top1[final]:.3f}, "
          f"culled {culled.top1[final]:.3f}, gap {gap * 100:.2f}pp")


def test_06_held_out_retrieval():
    """Encoders generalize: held-out top-1% recall >= 0.95.

    The world is first verified separable on raw latents (nearest-neighbor
    oracle maps every held-out image latent to its own location).  Encoders
    train on an 80% split; queries come from the held-out 20%.  The rank
    metric itself is cross-checked against an exhaustive sort oracle.
    """
    g = generate_synthetic_world(
        SyntheticWorldConfig(node_count=2000, spacing=10.0, seed=5, block_len=10)
    )
    views = WorldViews.from_graph(g, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence([99, 7]))
    perm = rng.permutation(len(g))
    train_rows, held_rows = perm[:1600], perm[1600:]

    # Separability precheck on raw latents: NN must be the true location.
    raw_d = cdist(views.image[held_rows], views.map_s1)
    assert (np.argmin(raw_d, axis=1) == held_rows).all(), (
        "world is not separable on raw latents; retrieval result would be"
        " meaningless"
    )

    cfg = LossConfig()
    g_enc, f_enc = train_encoders(
        g, cfg, AugmentationConfig(), epochs=10, lr=0.2, seed=17,
        views=views, train_rows=train_rows,
    )
    from routeloc import encode_batch

    refs = DescriptorStore(g.id_array, encode_batch(views.map_s1, g_enc, cfg))
    queries = encode_batch(views.image[held_rows], f_enc, cfg)
    truth = g.id_array[held_rows]

    curve = topk_percent_recall(queries, truth, refs, [1])
    recall = curve.recall_at(1)
    assert recall >= 0.95, f"held-out top-1% recall {recall}"

    # Exhaustive oracle over every held-out query against all 2000 refs.
    ranks = truth_ranks(queries, truth, refs)
    for i in range(len(queries)):
        keyed = sorted(
            (float(np.linalg.norm(v - queries[i])), int(j))
            for j, v in zip(refs.ids, refs.vectors)
        )
        want = [j for _, j in keyed].index(int(truth[i])) + 1
        assert ranks[i] == want
    print(f"PASS held-out retrieval: top-1% recall {recall:.3f} over "
          f"{len(held_rows)} held-out queries, rank oracle exact")


def test_07_metric_monotonicity():
    """Recall curves, PR recall, and top-5 vs top-1 behave monotonically."""
    rng = np.random.default_rng(55)
    refs = DescriptorStore(np.arange(300), rng.normal(0, 1, (300, 8)))
    queries = refs.vectors + 0.3 * rng.standard_normal((300, 8))
    curve = topk_percent_recall(queries, refs.ids, refs,
                                [1, 2, 5, 10, 25, 50, 75, 100])
    recalls = [r for _, r in curve.points]
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))
    assert curve.recall_at(100) == 1.0

    pr = precision_recall_curve(rng.uniform(0, 4, 400), rng.uniform(0, 6, 600),
                                np.linspace(0, 6, 50))
    pr_recalls = [r for _, _, r in pr.points]
    assert all(a <= b for a, b in zip(pr_recalls, pr_recalls[1:]))
    assert pr_recalls[-1] == 1.0

    rep = run_experiment(ExperimentConfig(
        world=SyntheticWorldConfig(node_count=36, seed=40),
        method="ES", route_count=20, max_length=8, success_window=4,
        train=TrainParams(epochs=3), seed=1,
    ))
    for m in rep.lengths:
        assert rep.top5[m] >= rep.top1[m]
    print("PASS metric monotonicity: recall curves, PR recall, top-5 >= top-1")


def test_08_descriptor_search_beats_handcrafted_baselines():
    """Learned descriptors out-rank the binary-code and turn-only baselines.

    Feature-sparse world (every tag density 0.1), calibrated bit-flip noise
    on the binary codes, latent noise on the descriptors.  At lengths
    {5, 10, 15, 20}: descriptor search beats Hamming matching, and turn-only
    matching is lowest, each required on at least 2 of 3 seeds.
    """
    world_cfg = SyntheticWorldConfig(
        node_count=500, spacing=10.0, seed=33, block_len=5,
        tag_densities={"junction_ahead": 0.1, "junction_behind": 0.1,
                       "gap_left": 0.1, "gap_right": 0.1},
    )
    g = generate_synthetic_world(world_cfg)
    views = WorldViews.from_graph(g)
    noise = NoiseParams(sigma=1.5, bsd=BsdNoise(0.05, 0.05))
    seeds = (0, 1, 2)
    top1 = {}
    for seed in seeds:
        for method in ("ES", "BSD", "T-only"):
            cfg = ExperimentConfig(
                world=world_cfg, method=method, route_count=500, max_length=20,
                noise=noise, train=TrainParams(epochs=30, lr=0.2), seed=seed,
            )
            top1[method, seed] = run_experiment(cfg, graph=g, views=views).top1

    for length in (5, 10, 15, 20):
        holds = 0
        for seed in seeds:
            es = top1["ES", seed][length]
            bsd = top1["BSD", seed][length]
            turn = top1["T-only", seed][length]
            if es > bsd and turn < bsd and turn < es:
                holds += 1
        assert holds >= 2, (
            f"baseline ordering held on only {holds}/3 seeds at length {length}: "
            + ", ".join(
                f"seed {s}: ES {top1['ES', s][length]:.3f} "
                f"BSD {top1['BSD', s][length]:.3f} "
                f"T {top1['T-only', s][length]:.3f}"
                for s in seeds
            )
        )
    summary = ", ".join(
        f"m={length}: ES {np.mean([top1['ES', s][length] for s in seeds]):.2f} "
        f"> BSD {np.mean([top1['BSD', s][length] for s in seeds]):.2f} "
        f"> T {np.mean([top1['T-only', s][length] for s in seeds]):.2f}"
        for length in (5, 10, 15, 20)
    )
    print(f"PASS baseline ordering: {summary}")


def test_09_difference_score_identities():
    """Self-difference is 0, disjoint difference is 1, and the ratio is exact."""
    localized = frozenset({3, 1, 4, 15, 9, 2, 6})
    assert difference_score(localized, localized) == 0.0
    assert difference_score(localized, {100, 200}) == 1.0
    assert difference_score({1, 2, 3, 4}, {3, 4, 5, 6}) == 0.5
    assert difference_score({1}, set(range(100))) == 0.0
    print("PASS difference score: identity, disjoint, and exact-ratio cases")


def test_10_numerical_stability():
    """Loss is finite/monotone over a huge argument range; norms stay exact.

    soft margin over alpha*d in [-1e6, 1e6], and 100,000 random vectors
    spanning 12 orders of magnitude renormalized to 32 within 1e-6 relative.
    """
    alpha = 0.2
    d = np.linspace(-1e6 / alpha, 1e6 / alpha, 2_000_001)
    v = soft_margin_loss(d, alpha)
    assert np.isfinite(v).all()
    assert (np.diff(v) >= 0.0).all()
    assert (v >= 0.0).all()
    assert soft_margin_loss(1e6 / alpha, alpha) == pytest.approx(1e6)

    rng = np.random.default_rng(99)
    mags = 10.0 ** rng.uniform(-6, 6, 100_000)
    vecs = rng.standard_normal((100_000, 16)) * mags[:, None]
    norms = np.array([np.linalg.norm(normalize_scale(x)) for x in vecs])
    rel = np.abs(norms - 32.0) / 32.0
    assert rel.max() < 1e-6, f"worst norm error {rel.max():.2e}"
    print(f"PASS numerical stability: loss monotone over 2e6 points, "
          f"worst norm error {rel.max():.2e}")
