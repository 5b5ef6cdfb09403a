"""Experiment harness: route simulation, sweep invariants, report files."""
import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest

from routeloc import bench
from routeloc import (
    METHODS,
    CandidateSet,
    AccuracyReport,
    AugmentationConfig,
    BsdNoise,
    ExperimentConfig,
    Location,
    LocalizerConfig,
    LossConfig,
    MapGraph,
    NoiseParams,
    SimulationError,
    SyntheticWorldConfig,
    TrainParams,
    WorldViews,
    difference_score,
    generate_synthetic_world,
    run_experiment,
    simulate_routes,
    train_encoders,
)

WORLD = SyntheticWorldConfig(node_count=36, spacing=10.0, seed=40)


def small_cfg(**overrides):
    base = dict(world=WORLD, route_count=20, max_length=8, success_window=4,
                train=TrainParams(epochs=3), seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDifferenceScore:
    def test_identities(self):
        assert difference_score({1, 2}, {1, 2}) == 0.0
        assert difference_score({1, 2}, set()) == 1.0
        assert difference_score({1, 2, 3, 4}, {3, 4, 5}) == 0.5

    def test_asymmetric(self):
        assert difference_score({1}, {1, 2}) == 0.0
        assert difference_score({1, 2}, {1}) == 0.5

    def test_accepts_iterables(self):
        assert difference_score([1, 2, 2], (2,)) == 0.5

    def test_empty_first_set(self):
        with pytest.raises(ValueError, match="empty first set"):
            difference_score(set(), {1})


class TestConfigs:
    def test_method_table(self):
        assert METHODS == ("ES", "ES+T", "BSD", "BSD+T", "T-only")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=-1.0),
            dict(sigma=float("nan")),
            dict(outlier_prob=-0.1),
            dict(outlier_prob=2.0),
            dict(outlier_scale=0.5),
            dict(outlier_scale=float("nan")),
        ],
    )
    def test_noise_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(method="DNN"), "unknown method"),
            (dict(route_count=0), "route_count"),
            (dict(max_length=3, success_window=5), "must be >="),
            (dict(success_window=0), "success_window"),
            (dict(route_count=2.5), "route_count"),
            (dict(max_length=10.5), "max_length"),
            (dict(success_window=2.5), "success_window"),
            (dict(route_count=True), "route_count"),
        ],
    )
    def test_experiment_validation(self, kwargs, msg):
        base = dict(world=WORLD)
        base.update(kwargs)
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(**base)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(epochs=0), "epochs"),
        (dict(epochs=2.5), "epochs"),
        (dict(epochs=True), "epochs"),
        (dict(lr=float("nan")), "lr"),
        (dict(lr=float("inf")), "lr"),
        (dict(lr=-1.0), "lr"),
    ])
    def test_train_params_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            TrainParams(**kwargs)
        # A bad schedule never reaches an experiment.
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(world=WORLD, train=TrainParams(**kwargs))

    def test_train_params_accept_zero_rate_and_numpy_integers(self):
        assert TrainParams(epochs=np.int64(2), lr=0.0) == TrainParams(epochs=2, lr=0.0)

    def test_accepts_numpy_integers(self):
        cfg = ExperimentConfig(world=WORLD, route_count=np.int64(3), max_length=np.int32(6),
                               success_window=np.int64(5))
        assert (cfg.route_count, cfg.max_length, cfg.success_window) == (3, 6, 5)


@pytest.fixture(scope="module")
def world():
    return generate_synthetic_world(WORLD)


class TestSimulateRoutes:
    def test_routes_are_valid_walks(self, world):
        routes = simulate_routes(world, count=30, max_length=8, seed=2)
        assert len(routes) == 30
        for r in routes:
            assert len(r) == 8
            assert len(set(r)) == 8
            for a, b in zip(r, r[1:]):
                assert b in world.neighbors_of(a)

    def test_deterministic(self, world):
        a = simulate_routes(world, count=10, max_length=6, seed=3)
        b = simulate_routes(world, count=10, max_length=6, seed=3)
        assert a == b
        assert a != simulate_routes(world, count=10, max_length=6, seed=4)

    def test_exclusions_respected(self):
        g = generate_synthetic_world(
            dataclasses.replace(WORLD, node_count=100,
                                tag_densities={"tunnel": 0.2})
        )
        tunnels = {loc.id for loc in g.locations() if "tunnel" in loc.tags}
        assert tunnels
        routes = simulate_routes(g, count=10, max_length=5, seed=5)
        assert all(tunnels.isdisjoint(r) for r in routes)

    # Routes the generator gives on a world with ids 5, 8, 11, ... and some
    # tunnels and motorways, by seed; pinned so that its RNG draws and the
    # order of its options stay as they are.
    PINNED = {
        0: [(137, 134, 164, 161, 158, 188), (173, 170, 200, 230, 233, 263),
            (200, 170, 140, 110, 80, 83)],
        9: [(11, 41, 44, 74, 77, 47), (125, 128, 158, 188, 191, 194),
            (296, 266, 263, 233, 230, 260)],
    }

    @pytest.mark.parametrize("seed", list(PINNED))
    def test_pinned_routes(self, seed):
        g = generate_synthetic_world(dataclasses.replace(
            WORLD, node_count=100, tag_densities={"tunnel": 0.2, "motorway": 0.1}))
        g = MapGraph([dataclasses.replace(loc, id=3 * loc.id + 5,
                                          neighbors=tuple(3 * n + 5 for n in loc.neighbors))
                      for loc in g.locations()])
        routes = simulate_routes(g, count=3, max_length=6, seed=seed)
        assert routes == self.PINNED[seed]
        assert all(type(i) is int for r in routes for i in r)

    def test_unreachable_length(self, path_graph):
        with pytest.raises(SimulationError, match="exhausted"):
            simulate_routes(path_graph, count=2, max_length=10, seed=0)

    def test_everything_excluded(self):
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,), frozenset({"tunnel"})),
            Location(1, (10.0, 0.0), 0.0, (0,), frozenset({"tunnel"})),
        ]
        with pytest.raises(SimulationError, match="no locations remain"):
            simulate_routes(MapGraph(locs), count=1, max_length=2, seed=0)

    def test_validation(self, path_graph):
        with pytest.raises(ValueError, match="positive"):
            simulate_routes(path_graph, count=0, max_length=3)


class TestAccuracyReport:
    @pytest.fixture
    def report(self):
        return AccuracyReport(
            method="ES",
            lengths=[4, 5],
            top1={4: 0.5, 5: 0.75},
            top5={4: 0.75, 5: 1.0},
            localized_top1={4: frozenset({0, 2}), 5: frozenset({0, 2, 3})},
            localized_top5={4: frozenset({0, 1, 2}), 5: frozenset({0, 1, 2, 3})},
            meta={"seed": 7, "sigma": 0.5},
        )

    def test_localized_accessor(self, report):
        assert report.localized(4) == frozenset({0, 2})
        assert report.localized(4, k=5) == frozenset({0, 1, 2})

    @pytest.mark.parametrize("k", [0, 3])
    def test_localized_rejects_other_k(self, report, k):
        with pytest.raises(ValueError, match=f"k must be 1 or 5, got {k}"):
            report.localized(4, k=k)

    def test_csv(self, tmp_path, report):
        path = tmp_path / "acc.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "length,top1,top5"
        assert lines[1] == "4,0.5,0.75"
        assert lines[2] == "5,0.75,1"

    def test_meta_round_trip(self, tmp_path, report):
        path = tmp_path / "acc.json"
        report.write_meta(path)
        back = AccuracyReport.read_meta(path)
        assert back.method == report.method
        assert back.lengths == report.lengths
        assert back.top1 == report.top1
        assert back.top5 == report.top5
        assert back.localized_top1 == report.localized_top1
        assert back.localized_top5 == report.localized_top5
        assert back.meta == report.meta


class TestRunExperiment:
    @pytest.mark.parametrize("method", METHODS)
    def test_structural_invariants(self, method):
        rep = run_experiment(small_cfg(method=method))
        assert rep.method == method
        assert rep.lengths == [4, 5, 6, 7, 8]
        n = rep.meta["route_count"]
        for m in rep.lengths:
            assert 0.0 <= rep.top1[m] <= rep.top5[m] <= 1.0
            assert rep.top1[m] == len(rep.localized_top1[m]) / n
            assert rep.top5[m] == len(rep.localized_top5[m]) / n
            assert rep.localized_top1[m] <= rep.localized_top5[m]
            assert all(0 <= i < n for i in rep.localized_top5[m])

    @pytest.mark.parametrize("method", METHODS)
    def test_turn_bits_only_for_turn_methods(self, method):
        # The search filters on turns exactly when it is given turn bits.
        bits, advance = [], bench.advance_candidates

        def recording_advance(state, costs, next_turn_bit, cfg):
            bits.append(next_turn_bit)
            return advance(state, costs, next_turn_bit, cfg)

        with mock.patch.object(bench, "advance_candidates", recording_advance):
            run_experiment(small_cfg(method=method, route_count=3))
        with_turns = method in ("ES+T", "BSD+T", "T-only")
        assert bits and all((b is not None) == with_turns for b in bits)

    def test_deterministic(self):
        cfg = small_cfg(method="ES")
        a = run_experiment(cfg)
        b = run_experiment(small_cfg(method="ES"))
        assert a.top1 == b.top1
        assert a.localized_top1 == b.localized_top1

    def test_noise_paths_deterministic(self):
        noisy = dict(
            noise=NoiseParams(sigma=0.5, bsd=BsdNoise(0.2, 0.2),
                              outlier_prob=0.5, outlier_scale=5.0),
        )
        for method in ("ES+T", "BSD+T", "T-only"):
            a = run_experiment(small_cfg(method=method, **noisy))
            b = run_experiment(small_cfg(method=method, **noisy))
            assert a.top1 == b.top1 and a.top5 == b.top5
            assert a.localized_top5 == b.localized_top5

    def test_reused_artifacts_match_auto_build(self):
        cfg = small_cfg(method="ES")
        auto = run_experiment(cfg)
        g = generate_synthetic_world(cfg.world)
        views = WorldViews.from_graph(g, cfg.seed)
        encs = train_encoders(
            g, LossConfig(), AugmentationConfig(),
            epochs=cfg.train.epochs, lr=cfg.train.lr, seed=cfg.seed, views=views,
        )
        reused = run_experiment(cfg, graph=g, views=views, encoders=encs)
        assert reused.top1 == auto.top1
        assert reused.localized_top1 == auto.localized_top1
        skipped = [reused.meta["stage_s"][k] for k in ("world", "views", "training")]
        assert skipped == [0.0, 0.0, 0.0]

    def test_world_from_file(self, tmp_path):
        from routeloc import save_graph

        g = generate_synthetic_world(WORLD)
        path = tmp_path / "world.txt"
        save_graph(g, path)
        rep = run_experiment(small_cfg(world=str(path), method="T-only"))
        assert rep.meta["world_size"] == len(g)

    def test_meta_echo(self):
        cfg = small_cfg(
            method="ES",
            noise=NoiseParams(sigma=0.75, outlier_prob=0.1),
            localizer=LocalizerConfig(cull_fraction=0.5, cull_floor=10),
        )
        rep = run_experiment(cfg)
        assert rep.meta["sigma"] == 0.75
        assert rep.meta["outlier_prob"] == 0.1
        assert rep.meta["cull_fraction"] == 0.5
        assert rep.meta["cull_floor"] == 10
        assert rep.meta["exclusions"] == ["motorway", "tunnel"]
        assert rep.meta["seed"] == 1
        assert rep.meta["runtime_s"] >= 0
        stages = rep.meta["stage_s"]
        assert set(stages) == {"world", "views", "training", "costs", "search", "scoring"}
        assert all(v >= 0.0 for v in stages.values())
        assert stages["world"] > 0.0 and stages["training"] > 0.0
        assert sum(stages.values()) <= rep.meta["runtime_s"] + 1e-3


@contextlib.contextmanager
def recorded_search(chunk_sizes, tops, latents):
    """Record each chunk's route count, every top() call and every encode_batch input."""
    start, top, encode = bench.start_candidates, CandidateSet.top, bench.encode_batch

    def recording_start(g, costs, *args):
        chunk_sizes.append(len(np.atleast_2d(costs)))
        return start(g, costs, *args)

    def recording_top(state, k, q=0):
        out = top(state, k, q)
        tops.append((state.length_m, out))
        return out

    def recording_encode(x, *args):
        latents.append(np.array(x))
        return encode(x, *args)

    with mock.patch.object(bench, "start_candidates", recording_start), \
            mock.patch.object(CandidateSet, "top", recording_top), \
            mock.patch.object(bench, "encode_batch", recording_encode):
        yield


class TestLockstepChunks:
    CASES = {
        "ES culled": dict(method="ES", noise=NoiseParams(sigma=0.75, outlier_prob=0.1,
                                                         outlier_scale=40.0),
                          localizer=LocalizerConfig(cull_fraction=0.5, cull_floor=10)),
        "ES+T": dict(method="ES+T", noise=NoiseParams(sigma=0.5)),
        "BSD culled": dict(method="BSD", noise=NoiseParams(bsd=BsdNoise(0.1, 0.1)),
                           localizer=LocalizerConfig(cull_fraction=0.3, cull_floor=20)),
        "T-only": dict(method="T-only"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_reports_equal_one_route_at_a_time(self, case):
        cfg = small_cfg(**self.CASES[case])
        chunks, tops = [], []
        with recorded_search(chunks, tops, []):
            lockstep = run_experiment(cfg)
        assert chunks[0] == 1 and max(chunks) > 1 and sum(chunks) == cfg.route_count
        single_chunks, single_tops = [], []
        with mock.patch.object(bench, "_LOCKSTEP_CANDIDATES", 1), \
                recorded_search(single_chunks, single_tops, []):
            single = run_experiment(cfg)
        assert single_chunks == [1] * cfg.route_count
        for name in ("lengths", "top1", "top5", "localized_top1", "localized_top5"):
            assert getattr(lockstep, name) == getattr(single, name)
        assert tops == single_tops

    def test_calls_follow_route_order(self):
        cfg = small_cfg(method="ES", route_count=6,
                        localizer=LocalizerConfig(cull_fraction=0.5, cull_floor=10))
        chunks, tops, latents = [], [], []
        with recorded_search(chunks, tops, latents):
            run_experiment(cfg)
        assert len(chunks) > 1 and max(chunks) > 1
        # Every scored length of route 0, then of route 1, and so on.
        assert [m for m, _ in tops] == list(range(4, 9)) * 6
        # encode_batch: the map store once, then each route's views in route order.
        g = generate_synthetic_world(WORLD)
        views = WorldViews.from_graph(g, cfg.seed)
        routes = simulate_routes(g, 6, 8, cfg.seed)
        assert len(latents) == 7
        np.testing.assert_array_equal(latents[0], views.map_s1)
        for lat, route in zip(latents[1:], routes):
            np.testing.assert_array_equal(lat, views.image[views.rows_of(np.asarray(route))])
