"""Command-line interface: pipeline subcommands and categorized errors."""
import csv
import inspect
import json
from unittest import mock

import numpy as np
import pytest

from routeloc import embedding, localizer, retrieval
from routeloc import (
    AccuracyReport,
    AugmentationConfig,
    DescriptorStore,
    ExperimentConfig,
    LossConfig,
    NoiseParams,
    SyntheticWorldConfig,
    TrainParams,
    WorldViews,
    enumerate_routes,
    distance_histograms,
    load_graph,
    localize_full,
    precision_recall_curve,
    run_experiment,
    train_encoders,
    turn_pattern,
    write_ranked_csv,
)
from routeloc.bench import DEFAULT_EXCLUSIONS
from routeloc.cli import main


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Artifacts shared by the happy-path tests, built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    world = root / "world"
    enc = root / "enc"
    stores = root / "stores"
    assert main([
        "world", "gen", "--nodes", "25", "--seed", "6",
        "--tag-density", "junction_ahead=0.3", "--out", str(world),
    ]) == 0
    graph = world / "graph.txt"
    assert main([
        "embed", "train", "--graph", str(graph), "--epochs", "3",
        "--seed", "1", "--out", str(enc),
    ]) == 0
    assert main([
        "embed", "export", "--graph", str(graph),
        "--encoders", str(enc / "encoders.npz"), "--domain", "map",
        "--out", str(stores),
    ]) == 0
    assert main([
        "embed", "export", "--graph", str(graph),
        "--encoders", str(enc / "encoders.npz"), "--domain", "image",
        "--name", "image.emb", "--out", str(stores),
    ]) == 0
    return {
        "root": root,
        "graph": graph,
        "encoders": enc / "encoders.npz",
        "map_store": stores / "map.emb",
        "image_store": stores / "image.emb",
    }


class TestWorldCommands:
    def test_gen_writes_loadable_graph(self, pipeline):
        g = load_graph(pipeline["graph"])
        assert len(g) == 25
        assert any("junction_ahead" in loc.tags for loc in g.locations())

    def test_load_prints_summary(self, pipeline, capsys):
        assert main(["world", "load", str(pipeline["graph"])]) == 0
        out = capsys.readouterr().out
        assert "25 locations" in out
        assert "junction_ahead=" in out

    def test_gen_rejects_bad_tag_density(self, tmp_path, capsys):
        ret = main(["world", "gen", "--nodes", "9",
                    "--tag-density", "junction", "--out", str(tmp_path)])
        assert ret == 2
        assert "error[config]:" in capsys.readouterr().err

    def test_gen_rejects_infinite_spacing(self, tmp_path, capsys):
        ret = main(["world", "gen", "--nodes", "9", "--spacing", "inf", "--out", str(tmp_path)])
        assert ret == 2
        assert "error[config]: spacing must be positive and finite" in capsys.readouterr().err


class TestEmbedCommands:
    def test_train_artifact(self, pipeline):
        data = np.load(pipeline["encoders"])
        assert data["g_weights"].shape == (16, 16)
        assert data["f_bias"].shape == (16,)
        history = data["history"]
        assert len(history) == 3 and history[-1] < history[0]

    def test_export_store(self, pipeline):
        store = DescriptorStore.load(pipeline["map_store"])
        assert len(store) == 25 and store.dim == 16
        np.testing.assert_allclose(np.linalg.norm(store.vectors, axis=1), 32.0,
                                   rtol=1e-6)

    def test_exported_domains_differ(self, pipeline):
        map_store = DescriptorStore.load(pipeline["map_store"])
        image_store = DescriptorStore.load(pipeline["image_store"])
        np.testing.assert_array_equal(map_store.ids, image_store.ids)
        assert not np.allclose(map_store.vectors, image_store.vectors)


    def test_export_honours_seed_zero(self, pipeline, tmp_path):
        # The encoders were trained on views with seed 1, which export uses
        # by default; an explicit --seed 0 must not fall back to it.
        def export(*seed):
            out = tmp_path / f"seed{'-'.join(seed) or '-default'}"
            assert main(["embed", "export", "--graph", str(pipeline["graph"]),
                         "--encoders", str(pipeline["encoders"]), *seed,
                         "--out", str(out)]) == 0
            return DescriptorStore.load(out / "map.emb").vectors

        default = export()
        np.testing.assert_array_equal(default, export("--seed", "1"))
        assert not np.allclose(default, export("--seed", "0"))

    def test_export_rejects_non_finite_encoder(self, pipeline, tmp_path, capsys):
        data = dict(np.load(pipeline["encoders"]))
        data["g_weights"] = data["g_weights"].copy()
        data["g_weights"][3, 5] = np.nan
        bad = tmp_path / "encoders.npz"
        np.savez(bad, **data)
        ret = main(["embed", "export", "--graph", str(pipeline["graph"]),
                    "--encoders", str(bad), "--out", str(tmp_path / "out")])
        assert ret == 2
        assert "error[config]: encoder produced a non-finite vector" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,name", [("--alpha", "inf", "alpha"),
                                                 ("--scale", "inf", "scale"),
                                                 ("--jitter", "nan", "jitter_sigma")])
    def test_train_rejects_non_finite_config(self, pipeline, tmp_path, capsys,
                                             flag, value, name):
        ret = main(["embed", "train", "--graph", str(pipeline["graph"]), flag, value,
                    "--out", str(tmp_path / "out")])
        assert ret == 2
        assert f"error[config]: {name} must be" in capsys.readouterr().err


    def test_overflowing_rate_is_a_training_error(self, pipeline, tmp_path, capsys):
        ret = main(["embed", "train", "--graph", str(pipeline["graph"]), "--lr", "1e300",
                    "--epochs", "1", "--out", str(tmp_path / "out")])
        assert ret == 2
        assert "error[training]: encoder output overflows at epoch 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_train_rejects_bad_rate_up_front(self, pipeline, tmp_path, capsys, value):
        with mock.patch.object(embedding, "batch_loss") as step:
            ret = main(["embed", "train", "--graph", str(pipeline["graph"]), "--lr", value,
                        "--out", str(tmp_path / "out")])
        assert ret == 2
        assert "error[config]: lr must be finite and >= 0" in capsys.readouterr().err
        step.assert_not_called()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["embed", "bench"])
    def test_rejects_zero_epochs(self, pipeline, tmp_path, capsys, command):
        args = (["embed", "train"] if command == "embed"
                else ["bench", "sweep", "--methods", "ES"])
        ret = main(args + ["--graph", str(pipeline["graph"]), "--epochs", "0",
                           "--out", str(tmp_path / "out")])
        assert ret == 2
        assert "error[config]: epochs must be a whole number >= 1" in capsys.readouterr().err


class TestEvalCommands:
    def test_recall(self, pipeline, tmp_path, capsys):
        ret = main([
            "eval", "recall", "--queries", str(pipeline["image_store"]),
            "--refs", str(pipeline["map_store"]), "--ks", "5,100",
            "--out", str(tmp_path),
        ])
        assert ret == 0
        with open(tmp_path / "recall.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k_percent", "recall"]
        assert [r[0] for r in rows[1:]] == ["5", "100"]
        assert float(rows[2][1]) == 1.0  # top-100% recall is always perfect
        assert "top100%=" in capsys.readouterr().out

    def test_nan_recall_k_is_config(self, pipeline, tmp_path, capsys):
        assert main(["eval", "recall", "--queries", str(pipeline["image_store"]),
                     "--refs", str(pipeline["map_store"]), "--ks", "50,nan",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error[config]: k percentages must lie")

    def test_pr(self, pipeline, tmp_path):
        ret = main([
            "eval", "pr", "--queries", str(pipeline["image_store"]),
            "--refs", str(pipeline["map_store"]), "--thresholds", "16",
            "--bins", "8", "--out", str(tmp_path),
        ])
        assert ret == 0
        with open(tmp_path / "pr.csv", newline="") as fh:
            pr_rows = list(csv.reader(fh))
        assert pr_rows[0] == ["threshold", "precision", "recall"]
        assert len(pr_rows) == 17
        assert float(pr_rows[-1][2]) == 1.0  # max threshold retrieves all
        with open(tmp_path / "histogram.csv", newline="") as fh:
            hist_rows = list(csv.reader(fh))
        assert len(hist_rows) == 9

    @pytest.mark.parametrize("block", [4, 256])
    def test_pr_files_equal_the_per_row_loop(self, pipeline, tmp_path, block):
        with mock.patch.object(retrieval, "ROW_BLOCK", block):
            assert main([
                "eval", "pr", "--queries", str(pipeline["image_store"]),
                "--refs", str(pipeline["map_store"]), "--seed", "3",
                "--out", str(tmp_path / "cli"),
            ]) == 0
        # The same pairs from one single-query distance vector per query.
        queries = DescriptorStore.load(pipeline["image_store"])
        refs = DescriptorStore.load(pipeline["map_store"])
        rng = np.random.default_rng(3)
        matched, unmatched = [], []
        for qid, vec in zip(queries.ids, queries.vectors):
            d = refs.distance_matrix(vec[None])[0]
            matched.append(d[refs.rows_of(qid)])
            others = np.nonzero(refs.ids != qid)[0]
            unmatched.extend(d[rng.choice(others, size=9, replace=False)])
        matched, unmatched = np.array(matched), np.array(unmatched)
        hi = float(max(matched.max(), unmatched.max()))
        (tmp_path / "loop").mkdir()
        precision_recall_curve(matched, unmatched, np.linspace(0.0, hi, 64)).write_csv(
            tmp_path / "loop" / "pr.csv")
        distance_histograms(matched, unmatched, 32).write_csv(tmp_path / "loop" / "histogram.csv")
        for name in ("pr.csv", "histogram.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "loop" / name).read_bytes()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_pr_rejects_unmatched_below_one(self, tmp_path, capsys, value):
        # Checked before the stores load: the missing files would be error[io].
        assert main(["eval", "pr", "--queries", str(tmp_path / "absent.emb"),
                     "--refs", str(tmp_path / "absent.emb"), "--unmatched-per-query", value,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: --unmatched-per-query must be >= 1, got {value}\n")
        assert not (tmp_path / "out").exists()

    def test_pr_without_an_unmatched_reference(self, tmp_path, capsys):
        store = tmp_path / "one.emb"
        DescriptorStore([3], np.ones((1, 4))).save(store)
        assert main(["eval", "pr", "--queries", str(store), "--refs", str(store),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error[config]: no query has an unmatched "
                                           "reference: each query's only reference is its match\n")
        assert not (tmp_path / "out").exists()

    def test_recall_unknown_truth_id(self, pipeline, tmp_path, capsys):
        bogus = tmp_path / "bogus.emb"
        refs = DescriptorStore.load(pipeline["map_store"])
        DescriptorStore([9999], refs.vectors[:1]).save(bogus)
        ret = main([
            "eval", "recall", "--queries", str(bogus),
            "--refs", str(pipeline["map_store"]), "--out", str(tmp_path),
        ])
        assert ret == 2
        assert "error[lookup]:" in capsys.readouterr().err


class TestLocalizeCommand:
    def make_query(self, pipeline, tmp_path, length):
        g = load_graph(pipeline["graph"])
        store = DescriptorStore.load(pipeline["map_store"])
        truth = sorted(enumerate_routes(g, length))[0]
        vecs = store.vectors[store.rows_of(truth)]
        qpath = tmp_path / "query.emb"
        DescriptorStore(np.arange(length), vecs).save(qpath)
        return g, truth, qpath

    def test_noiseless_query_ranks_truth_first(self, pipeline, tmp_path, capsys):
        g, truth, qpath = self.make_query(pipeline, tmp_path, 3)
        ret = main([
            "localize", "run", "--graph", str(pipeline["graph"]),
            "--store", str(pipeline["map_store"]), "--query", str(qpath),
            "--exclude", "", "--top-k", "4", "--out", str(tmp_path),
        ])
        assert ret == 0
        with open(tmp_path / "ranked.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "distance", "route"]
        assert len(rows) == 5
        assert rows[1][2] == ",".join(str(i) for i in truth)
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-9)
        assert "best" in capsys.readouterr().out

    def test_turn_filtered(self, pipeline, tmp_path):
        g, truth, qpath = self.make_query(pipeline, tmp_path, 3)
        bits = ",".join(str(b) for b in turn_pattern(truth, g))
        ret = main([
            "localize", "run", "--graph", str(pipeline["graph"]),
            "--store", str(pipeline["map_store"]), "--query", str(qpath),
            "--exclude", "", "--turns", bits,
            "--out", str(tmp_path),
        ])
        assert ret == 0
        with open(tmp_path / "ranked.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        routes = [tuple(int(v) for v in r[2].split(",")) for r in rows[1:]]
        assert truth in routes
        want = turn_pattern(truth, g)
        assert all(turn_pattern(r, g) == want for r in routes)

    @pytest.mark.parametrize("with_turns", [False, True])
    def test_ranked_csv_equals_full_search(self, pipeline, tmp_path, with_turns):
        # An image-side query ranks many routes at distinct and tied
        # distances; the stepped search must write what the batch ranker
        # does, over every route without --turns and over the routes of the
        # query's turn pattern with it.
        g = load_graph(pipeline["graph"])
        store = DescriptorStore.load(pipeline["map_store"])
        images = DescriptorStore.load(pipeline["image_store"])
        truth = sorted(enumerate_routes(g, 4))[7]
        query = images.vectors[images.rows_of(truth)]
        qpath = tmp_path / "query.emb"
        DescriptorStore(np.arange(4), query).save(qpath)
        query = DescriptorStore.load(qpath).vectors
        turns = turn_pattern(truth, g)
        args = ["--turns", ",".join(map(str, turns))] if with_turns else []
        assert main(["localize", "run", "--graph", str(pipeline["graph"]),
                     "--store", str(pipeline["map_store"]), "--query", str(qpath),
                     "--out", str(tmp_path)] + args) == 0
        routes = enumerate_routes(g, 4, ("tunnel", "motorway"))
        if with_turns:
            routes = [r for r in routes if turn_pattern(r, g) == turns]
        want = localize_full(query, routes, store)
        write_ranked_csv(tmp_path / "want.csv", want)
        got = (tmp_path / "ranked.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\n") == len(want) + 1 > 10

    def test_bad_turn_pattern(self, pipeline, tmp_path, capsys):
        _, _, qpath = self.make_query(pipeline, tmp_path, 3)
        for bits in ("0", "0,2", "", "0,1,1"):
            ret = main(["localize", "run", "--graph", str(pipeline["graph"]),
                        "--store", str(pipeline["map_store"]), "--query", str(qpath),
                        "--turns", bits, "--out", str(tmp_path)])
            assert ret == 2
            assert "error[config]: turn pattern must be 2 bits" in capsys.readouterr().err

    def test_turn_pattern_starting_with_a_turn_is_config(self, pipeline, tmp_path, capsys):
        # Every route's first turn bit is 0, so such a pattern could match no route.
        _, _, qpath = self.make_query(pipeline, tmp_path, 3)
        ret = main(["localize", "run", "--graph", str(pipeline["graph"]),
                    "--store", str(pipeline["map_store"]), "--query", str(qpath),
                    "--turns", "1,0", "--out", str(tmp_path / "out")])
        assert ret == 2
        assert capsys.readouterr().err.startswith(
            "error[config]: turn pattern must start with 0, got 1,0")
        assert not (tmp_path / "out").exists()

    def test_top_k_below_one(self, pipeline, tmp_path, capsys):
        _, _, qpath = self.make_query(pipeline, tmp_path, 3)
        with mock.patch("routeloc.cli.start_candidates") as start:
            ret = main(["localize", "run", "--graph", str(pipeline["graph"]),
                        "--store", str(pipeline["map_store"]), "--query", str(qpath),
                        "--top-k", "0", "--out", str(tmp_path)])
        assert ret == 2
        assert "error[config]: --top-k must be >= 1, got 0" in capsys.readouterr().err
        assert not start.called and not (tmp_path / "ranked.csv").exists()

    def test_candidate_budget_is_config_error(self, pipeline, tmp_path, capsys):
        _, _, qpath = self.make_query(pipeline, tmp_path, 4)
        with mock.patch.object(localizer, "_MAX_FRONTIER", 5):
            ret = main(["localize", "run", "--graph", str(pipeline["graph"]),
                        "--store", str(pipeline["map_store"]), "--query", str(qpath),
                        "--out", str(tmp_path)])
        assert ret == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: a step would build") and "budget of 5" in err

    def test_bad_query_ids(self, pipeline, tmp_path, capsys):
        store = DescriptorStore.load(pipeline["map_store"])
        qpath = tmp_path / "query.emb"
        DescriptorStore([3, 4, 5], store.vectors[:3]).save(qpath)
        ret = main([
            "localize", "run", "--graph", str(pipeline["graph"]),
            "--store", str(pipeline["map_store"]), "--query", str(qpath),
            "--out", str(tmp_path),
        ])
        assert ret == 2
        assert "error[config]: query store ids" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_dir(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert main([
        "bench", "sweep", "--graph", str(pipeline["graph"]),
        "--methods", "ES,T-only", "--routes", "5", "--max-length", "6",
        "--epochs", "2", "--seed", "3", "--out", str(out),
    ]) == 0
    return out


class TestBenchCommands:
    def test_sweep_files(self, sweep_dir):
        for stem in ("ES", "T_only"):
            with open(sweep_dir / f"{stem}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["length", "top1", "top5"]
            assert [r[0] for r in rows[1:]] == ["5", "6"]
            payload = json.loads((sweep_dir / f"{stem}.json").read_text())
            assert payload["meta"]["route_count"] == 5

    def test_diff(self, sweep_dir, capsys):
        ret = main([
            "bench", "diff", str(sweep_dir / "ES.json"),
            str(sweep_dir / "T_only.json"), "--length", "6", "--k", "5",
        ])
        err = capsys.readouterr()
        if ret == 2:
            # Either report may have localized nothing at this length, which
            # difference_score rejects; accept only that exact config error.
            assert "empty first set" in err.err
        else:
            assert ret == 0
            assert err.out.count("S_d(") == 2

    def test_diff_at_a_length_the_report_lacks(self, sweep_dir, capsys):
        report = str(sweep_dir / "T_only.json")
        assert main(["bench", "diff", report, report, "--length", "9"]) == 2
        assert capsys.readouterr().err == (
            "error[config]: length 9 is not in the T-only report, which holds lengths [5, 6]\n")

    def test_unknown_method(self, pipeline, tmp_path, capsys):
        ret = main([
            "bench", "sweep", "--graph", str(pipeline["graph"]),
            "--methods", "ES,DNN", "--out", str(tmp_path),
        ])
        assert ret == 2
        assert "error[config]: unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [["--routes", "0"], ["--cull-fraction", "1.5"],
                                         ["--max-length", "3"]])
    def test_sweep_checks_settings_before_training(self, pipeline, tmp_path, capsys,
                                                   monkeypatch, setting):
        def train(*args, **kwargs):
            raise AssertionError("encoders trained before the settings were checked")

        monkeypatch.setattr("routeloc.bench.train_sweep_encoders", train)
        ret = main(["bench", "sweep", "--graph", str(pipeline["graph"]), "--methods", "ES",
                    *setting, "--out", str(tmp_path / "out")])
        assert ret == 2
        assert "error[config]:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_views_follow_seed(self, pipeline, tmp_path, monkeypatch):
        seeds = []
        from_graph = WorldViews.from_graph

        def spy(g, seed=0, **kwargs):
            seeds.append(seed)
            return from_graph(g, seed=seed, **kwargs)

        monkeypatch.setattr(WorldViews, "from_graph", spy)
        assert main([
            "bench", "sweep", "--graph", str(pipeline["graph"]),
            "--methods", "ES", "--routes", "2", "--max-length", "5",
            "--epochs", "1", "--seed", "7", "--out", str(tmp_path),
        ]) == 0
        assert seeds and set(seeds) == {7}

    def test_sweep_of_no_method_is_config(self, pipeline, tmp_path, capsys, monkeypatch):
        def load(*args, **kwargs):
            raise AssertionError("graph loaded for a sweep of no method")

        monkeypatch.setattr("routeloc.cli.load_graph", load)
        ret = main(["bench", "sweep", "--graph", str(pipeline["graph"]), "--methods", ",",
                    "--out", str(tmp_path / "out")])
        assert ret == 2
        assert capsys.readouterr().err.startswith("error[config]: --methods names no method")
        assert not (tmp_path / "out").exists()

    def test_sweep_of_a_repeated_method_is_config(self, pipeline, tmp_path, capsys,
                                                  monkeypatch):
        # A repeated method would overwrite its own report files.
        def load(*args, **kwargs):
            raise AssertionError("graph loaded for a sweep that repeats a method")

        monkeypatch.setattr("routeloc.cli.load_graph", load)
        ret = main(["bench", "sweep", "--graph", str(pipeline["graph"]),
                    "--methods", "T-only,BSD,T-only", "--out", str(tmp_path / "out")])
        assert ret == 2
        assert capsys.readouterr().err == (
            "error[config]: --methods names a method twice, got 'T-only,BSD,T-only'\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_reports_equal_run_experiment(self, tmp_path):
        # The CLI's sweep and run_experiment given only the config are one recipe.
        world = tmp_path / "world"
        assert main(["world", "gen", "--nodes", "60", "--seed", "4", "--out", str(world)]) == 0
        graph = str(world / "graph.txt")
        methods = ("ES", "ES+T", "BSD", "T-only")
        assert main([
            "bench", "sweep", "--graph", graph, "--methods", ",".join(methods),
            "--routes", "20", "--max-length", "7", "--sigma", "1.0", "--epochs", "2",
            "--seed", "3", "--out", str(tmp_path / "out"),
        ]) == 0
        for method in methods:
            stem = method.replace("+", "_plus_").replace("-", "_")
            cli = AccuracyReport.read_meta(tmp_path / "out" / f"{stem}.json")
            api = run_experiment(ExperimentConfig(
                world=graph, method=method, route_count=20, max_length=7,
                noise=NoiseParams(sigma=1.0), train=TrainParams(epochs=2), seed=3,
            ))
            for name in ("lengths", "top1", "top5", "localized_top1", "localized_top5"):
                assert getattr(cli, name) == getattr(api, name), (method, name)

    @pytest.mark.parametrize("case", ["array", "truncated", "no_lengths"])
    def test_malformed_report_is_format(self, sweep_dir, tmp_path, capsys, case):
        text = (sweep_dir / "ES.json").read_text()
        path = tmp_path / "bad.json"
        path.write_text({"array": "[1, 2]", "truncated": text[:len(text) // 2],
                         "no_lengths": '{"method": "ES"}'}[case])
        assert main(["bench", "diff", str(path), str(sweep_dir / "ES.json"),
                     "--length", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {path}: not a sweep report")

    def test_simulation_failure(self, tmp_path, capsys):
        world = tmp_path / "tiny"
        assert main(["world", "gen", "--nodes", "5", "--out", str(world)]) == 0
        ret = main([
            "bench", "sweep", "--graph", str(world / "graph.txt"),
            "--methods", "T-only", "--routes", "2", "--max-length", "10",
            "--out", str(tmp_path),
        ])
        assert ret == 2
        assert "error[simulation]:" in capsys.readouterr().err


class TestErrorReporting:
    def test_missing_file_is_io(self, tmp_path, capsys):
        assert main(["world", "load", str(tmp_path / "absent.txt")]) == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_malformed_graph_is_format(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("Z not a record\n")
        assert main(["world", "load", str(path)]) == 2
        assert "error[format]:" in capsys.readouterr().err

    def test_self_loop_is_invariant(self, pipeline, tmp_path, capsys):
        text = pipeline["graph"].read_text()
        path = tmp_path / "loop.txt"
        path.write_text(text + "E 0 0\n")
        assert main(["world", "load", str(path)]) == 2
        assert "error[invariant]:" in capsys.readouterr().err

    def test_malformed_store_is_format(self, pipeline, tmp_path, capsys):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"EMB1\x00\x00")
        assert main([
            "eval", "recall", "--queries", str(path),
            "--refs", str(pipeline["map_store"]), "--out", str(tmp_path),
        ]) == 2
        assert "error[format]:" in capsys.readouterr().err

    def test_zero_dimension_store_is_format(self, pipeline, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("id\n0\n1\n")
        assert main([
            "eval", "recall", "--queries", str(pipeline["image_store"]),
            "--refs", str(path), "--out", str(tmp_path),
        ]) == 2
        assert "error[format]:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["world", "load", "{dir}"],
        ["eval", "recall", "--queries", "{dir}", "--refs", "{map_store}", "--out", "{out}"],
        ["embed", "export", "--graph", "{graph}", "--encoders", "{dir}", "--out", "{out}"],
        ["embed", "export", "--graph", "{graph}", "--encoders", "{out}", "--out", "{out}"],
        ["world", "gen", "--nodes", "9", "--out", "{file}"],
    ])
    def test_os_errors_are_io(self, pipeline, tmp_path, capsys, command):
        # A directory or a missing file where a file is read, or a file where a
        # directory is made.
        (tmp_path / "file").write_text("")
        paths = dict(dir=tmp_path, file=tmp_path / "file", out=tmp_path / "out",
                     graph=pipeline["graph"], map_store=pipeline["map_store"])
        assert main([arg.format(**paths) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[io]:") and "Traceback" not in err

    @pytest.mark.parametrize("target, command, raised, message", [
        ("routeloc.cli.generate_synthetic_world", ["world", "gen", "--out", "{out}"],
         MemoryError(), "out of memory"),
        ("routeloc.cli.train_encoders", ["embed", "train", "--graph", "{graph}", "--out", "{out}"],
         MemoryError(), "out of memory"),
        ("routeloc.cli.precision_recall_curve",
         ["eval", "pr", "--queries", "{image_store}", "--refs", "{map_store}", "--out", "{out}"],
         MemoryError("Unable to allocate 745. GiB for an array"),
         "Unable to allocate 745. GiB for an array"),
    ])
    def test_memory_errors_are_memory(self, pipeline, tmp_path, capsys, monkeypatch,
                                      target, command, raised, message):
        # Raised by a stand-in: a real allocation this large could succeed on a
        # machine that overcommits memory, and then be killed.
        def stand_in(*args, **kwargs):
            raise raised

        monkeypatch.setattr(target, stand_in)
        paths = dict(out=tmp_path / "out", graph=pipeline["graph"],
                     image_store=pipeline["image_store"], map_store=pipeline["map_store"])
        assert main([arg.format(**paths) for arg in command]) == 2
        assert capsys.readouterr().err == f"error[memory]: {message}\n"

    @pytest.mark.parametrize("command, setting", [
        (["world", "gen", "--seed", "-1"], "seed"),
        (["embed", "train", "--graph", "{graph}", "--seed", "-1"], "seed"),
        (["embed", "export", "--graph", "{graph}", "--encoders", "{encoders}", "--seed", "-1"],
         "seed"),
        # Checked before the graph or the stores are read: they are missing here.
        (["bench", "sweep", "--graph", "{absent}", "--seed", "-1"], "seed"),
        (["eval", "pr", "--queries", "{absent}", "--refs", "{absent}", "--seed", "-1"], "--seed"),
        (["eval", "pr", "--queries", "{absent}", "--refs", "{absent}", "--thresholds", "-1"],
         "--thresholds"),
        (["eval", "pr", "--queries", "{absent}", "--refs", "{absent}", "--bins", "0"], "--bins"),
    ])
    def test_bad_seed_or_threshold_count_is_config(self, pipeline, tmp_path, capsys, command,
                                                   setting):
        paths = dict(graph=pipeline["graph"], encoders=pipeline["encoders"],
                     absent=tmp_path / "absent")
        assert main([arg.format(**paths) for arg in command]
                    + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: {setting} must be ") and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @staticmethod
    def malformed_encoders(pipeline, tmp_path, case):
        """An --encoders file that is no encoder archive, by ``case``."""
        if case == "truncated":
            path = tmp_path / "encoders.npz"
            path.write_bytes(pipeline["encoders"].read_bytes()[:-100])
        elif case == "npy":
            path = tmp_path / "encoders.npy"
            np.save(path, np.ones(3))
        elif case == "store":
            path = pipeline["map_store"]
        else:
            path = tmp_path / "encoders.npz"
            data = dict(np.load(pipeline["encoders"]))
            del data["view_seed"]
            np.savez(path, **data)
        return path

    @pytest.mark.parametrize("case", ["truncated", "npy", "store", "no_view_seed"])
    def test_malformed_encoders_are_format(self, pipeline, tmp_path, capsys, case):
        path = self.malformed_encoders(pipeline, tmp_path, case)
        assert main(["embed", "export", "--graph", str(pipeline["graph"]),
                     "--encoders", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {path}: not an encoder archive")
        assert not (tmp_path / "out").exists()

    def test_argparse_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["world", "explode"])


def _defaults(func, *names):
    """``func``'s default value of each parameter in ``names``."""
    params = inspect.signature(func).parameters
    return {name: params[name].default for name in names}


class _Called(Exception):
    """Stops a command at the library call that a test records."""


class TestDefaults:
    """Given only its required flags, each command calls the library as a default call would."""

    @staticmethod
    def record(monkeypatch, target):
        """Replace ``target`` with a stand-in that records its call and stops the command."""
        calls = []

        def stand_in(*args, **kwargs):
            calls.append((args, kwargs))
            raise _Called

        monkeypatch.setattr(target, stand_in)
        return calls

    def test_world_gen(self, monkeypatch, tmp_path):
        calls = self.record(monkeypatch, "routeloc.cli.generate_synthetic_world")
        with pytest.raises(_Called):
            main(["world", "gen", "--out", str(tmp_path)])
        assert calls == [((SyntheticWorldConfig(),), {})]

    def test_embed_train(self, monkeypatch, tmp_path):
        monkeypatch.setattr("routeloc.cli.load_graph", lambda path: "graph")
        calls = self.record(monkeypatch, "routeloc.cli.train_encoders")
        with pytest.raises(_Called):
            main(["embed", "train", "--graph", "g", "--out", str(tmp_path)])
        schedule = _defaults(train_encoders, "epochs", "lr", "seed", "n_b", "k")
        assert calls == [(("graph", LossConfig(), AugmentationConfig()),
                          {**schedule, "return_history": True})]

    def test_eval_pr(self, pipeline, monkeypatch, tmp_path):
        calls = self.record(monkeypatch, "routeloc.cli.distance_histograms")
        with pytest.raises(_Called):
            main(["eval", "pr", "--queries", str(pipeline["image_store"]),
                  "--refs", str(pipeline["map_store"]), "--out", str(tmp_path)])
        (args, _), = calls
        assert args[2:] == (_defaults(distance_histograms, "bin_count")["bin_count"],)

    def test_localize_run(self, pipeline, monkeypatch, tmp_path):
        refs = DescriptorStore.load(pipeline["map_store"])
        query = tmp_path / "query.emb"
        DescriptorStore(np.arange(2), refs.vectors[:2]).save(query)
        calls = self.record(monkeypatch, "routeloc.cli.start_candidates")
        with pytest.raises(_Called):
            main(["localize", "run", "--graph", str(pipeline["graph"]),
                  "--store", str(pipeline["map_store"]), "--query", str(query),
                  "--out", str(tmp_path)])
        (args, _), = calls
        assert args[2] == DEFAULT_EXCLUSIONS

    def test_bench_sweep(self, monkeypatch, tmp_path):
        monkeypatch.setattr("routeloc.cli.load_graph", lambda path: "graph")
        calls = self.record(monkeypatch, "routeloc.bench.train_sweep_encoders")
        with pytest.raises(_Called):
            main(["bench", "sweep", "--graph", "g", "--out", str(tmp_path)])
        assert calls == [((ExperimentConfig(world="g"), "graph"), {})]
        # The default sweep trains as train_encoders does by default.
        assert TrainParams() == TrainParams(**_defaults(train_encoders, "epochs", "lr"))
