"""Experiment harness: route simulation, sweep invariants, report files."""
import dataclasses

import numpy as np
import pytest

from routeloc import (
    METHODS,
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
            dict(turn_flip_prob=1.5),
            dict(outlier_prob=-0.1),
            dict(outlier_prob=2.0),
            dict(outlier_scale=0.5),
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
        ],
    )
    def test_experiment_validation(self, kwargs, msg):
        base = dict(world=WORLD)
        base.update(kwargs)
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(**base)


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
        routes = simulate_routes(g, count=10, max_length=5,
                                 exclusions=("tunnel",), seed=5)
        assert all(tunnels.isdisjoint(r) for r in routes)

    def test_unreachable_length(self, path_graph):
        with pytest.raises(SimulationError, match="exhausted"):
            simulate_routes(path_graph, count=2, max_length=10, seed=0)

    def test_everything_excluded(self):
        locs = [
            Location(0, (0.0, 0.0), 0.0, (1,), frozenset({"tunnel"})),
            Location(1, (10.0, 0.0), 0.0, (0,), frozenset({"tunnel"})),
        ]
        with pytest.raises(SimulationError, match="no locations remain"):
            simulate_routes(MapGraph(locs), count=1, max_length=2,
                            exclusions=("tunnel",), seed=0)

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

    def test_deterministic(self):
        cfg = small_cfg(method="ES")
        a = run_experiment(cfg)
        b = run_experiment(small_cfg(method="ES"))
        assert a.top1 == b.top1
        assert a.localized_top1 == b.localized_top1

    def test_noise_paths_deterministic(self):
        noisy = dict(
            noise=NoiseParams(sigma=0.5, bsd=BsdNoise(0.2, 0.2),
                              turn_flip_prob=0.3, outlier_prob=0.5,
                              outlier_scale=5.0),
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
        views = WorldViews.from_graph(g)
        encs = train_encoders(
            g, LossConfig(), AugmentationConfig(jitter_sigma=cfg.train.jitter_sigma),
            epochs=cfg.train.epochs, lr=cfg.train.lr, seed=cfg.seed,
            n_b=cfg.train.n_b, k=cfg.train.k, views=views,
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
