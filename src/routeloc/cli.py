"""Command-line interface.

Subcommands mirror the pipeline: generate or inspect worlds, train/export
descriptor encoders, evaluate retrieval, run a single localization, and run
benchmark sweeps.  Exit status is 0 on success; failures print one
categorized error line to stderr and return nonzero.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from .embedding import (
    AugmentationConfig,
    Encoder,
    LossConfig,
    TrainingDiverged,
    WorldViews,
    encode_batch,
    train_encoders,
)
from .localizer import LocalizerConfig, advance_candidates, start_candidates, write_ranked_csv
from .retrieval import distance_histograms, precision_recall_curve, topk_percent_recall
from .store import DescriptorStore, StoreFormatError
from .synth import SyntheticWorldConfig, generate_synthetic_world
from .world import GraphFormatError, GraphInvariantError, load_graph, save_graph


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routeloc", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    # world ------------------------------------------------------------
    world = sub.add_parser("world", help="generate or inspect map graphs")
    wsub = world.add_subparsers(dest="action", required=True)

    gen = wsub.add_parser("gen", help="generate a synthetic world")
    gen.add_argument("--layout", choices=("grid", "random-planar"), default="grid")
    gen.add_argument("--nodes", type=int, default=100)
    gen.add_argument("--spacing", type=float, default=10.0)
    gen.add_argument("--edge-drop", type=float, default=0.0)
    gen.add_argument("--latent-dim", type=int, default=16)
    gen.add_argument("--block-len", type=int, default=1)
    gen.add_argument("--tag-density", action="append", default=[],
                     metavar="TAG=P", help="per-tag density, repeatable")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    load = wsub.add_parser("load", help="validate a graph file and print a summary")
    load.add_argument("path")

    # embed ------------------------------------------------------------
    embed = sub.add_parser("embed", help="train encoders and export descriptor stores")
    esub = embed.add_subparsers(dest="action", required=True)

    tr = esub.add_parser("train", help="train the two encoders on a world")
    tr.add_argument("--graph", required=True)
    tr.add_argument("--epochs", type=int, default=10)
    tr.add_argument("--lr", type=float, default=0.2)
    tr.add_argument("--alpha", type=float, default=0.2)
    tr.add_argument("--scale", type=float, default=32.0)
    tr.add_argument("--dim", type=int, default=16)
    tr.add_argument("--nb", type=int, default=10)
    tr.add_argument("--k", type=int, default=5)
    tr.add_argument("--jitter", type=float, default=0.05)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="output directory")

    ex = esub.add_parser("export", help="export per-location descriptors to a store file")
    ex.add_argument("--graph", required=True)
    ex.add_argument("--encoders", required=True, help="encoders.npz from embed train")
    ex.add_argument("--domain", choices=("map", "image"), default="map")
    ex.add_argument("--tile", choices=("s1", "s2"), default="s1")
    ex.add_argument("--seed", type=int, default=None,
                    help="view derivation seed (default: the training seed)")
    ex.add_argument("--out", required=True, help="output directory")
    ex.add_argument("--name", default=None, help="store filename (default <domain>.emb)")

    # eval -------------------------------------------------------------
    ev = sub.add_parser("eval", help="retrieval metrics over descriptor stores")
    evsub = ev.add_subparsers(dest="action", required=True)

    rc = evsub.add_parser("recall", help="top-k% recall, query ids are truth ids")
    rc.add_argument("--queries", required=True)
    rc.add_argument("--refs", required=True)
    rc.add_argument("--ks", default="1,2,5,10", help="comma-joined k percentages")
    rc.add_argument("--out", required=True, help="output directory")

    pr = evsub.add_parser("pr", help="precision/recall and histograms over pair distances")
    pr.add_argument("--queries", required=True)
    pr.add_argument("--refs", required=True)
    pr.add_argument("--thresholds", type=int, default=64)
    pr.add_argument("--bins", type=int, default=32)
    pr.add_argument("--unmatched-per-query", type=int, default=9)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True, help="output directory")

    # localize ----------------------------------------------------------
    loc = sub.add_parser("localize", help="rank candidate routes for one query")
    lsub = loc.add_subparsers(dest="action", required=True)
    run = lsub.add_parser("run", help="rank every route that fits one query sequence")
    run.add_argument("--graph", required=True)
    run.add_argument("--store", required=True, help="map-side descriptor store")
    run.add_argument("--query", required=True,
                     help="store file whose ids 0..m-1 are the ordered query descriptors")
    run.add_argument("--turns", default=None, help="comma-joined query turn bits")
    run.add_argument("--use-turns", action="store_true")
    run.add_argument("--exclude", default="tunnel,motorway",
                     help="comma-joined excluded tags (empty string for none)")
    run.add_argument("--top-k", type=int, default=None)
    run.add_argument("--out", required=True, help="output directory")

    # bench --------------------------------------------------------------
    be = sub.add_parser("bench", help="accuracy sweeps and report comparison")
    bsub = be.add_subparsers(dest="action", required=True)

    sw = bsub.add_parser("sweep", help="run methods over simulated routes")
    sw.add_argument("--graph", required=True)
    sw.add_argument("--methods", default="ES", help="comma-joined method names")
    sw.add_argument("--routes", type=int, default=500)
    sw.add_argument("--max-length", type=int, default=20)
    sw.add_argument("--sigma", type=float, default=0.0)
    sw.add_argument("--epochs", type=int, default=10)
    sw.add_argument("--lr", type=float, default=0.2)
    sw.add_argument("--cull-fraction", type=float, default=0.0)
    sw.add_argument("--cull-floor", type=int, default=100)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True, help="output directory")

    df = bsub.add_parser("diff", help="difference scores between two sweep reports")
    df.add_argument("report_a")
    df.add_argument("report_b")
    df.add_argument("--length", type=int, required=True)
    df.add_argument("--k", type=int, choices=(1, 5), default=1)

    return parser


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------


def _parse_tag_densities(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"expected TAG=P, got {item!r}")
        tag, p = item.split("=", 1)
        out[tag.strip()] = float(p)
    return out


def _cmd_world_gen(args):
    cfg = SyntheticWorldConfig(
        layout=args.layout,
        node_count=args.nodes,
        spacing=args.spacing,
        edge_drop_prob=args.edge_drop,
        latent_dim=args.latent_dim,
        tag_densities=_parse_tag_densities(args.tag_density),
        seed=args.seed,
        block_len=args.block_len,
    )
    g = generate_synthetic_world(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "graph.txt")
    save_graph(g, path)
    print(f"wrote {path}: {len(g)} locations, {g.edge_count()} edges, "
          f"spacing {g.spacing:.2f} m")
    return 0


def _cmd_world_load(args):
    g = load_graph(args.path)
    tags = {}
    for loc in g.locations():
        for t in loc.tags:
            tags[t] = tags.get(t, 0) + 1
    print(f"{args.path}: {len(g)} locations, {g.edge_count()} edges, "
          f"spacing {g.spacing:.2f} m")
    if tags:
        print("tags: " + ", ".join(f"{t}={c}" for t, c in sorted(tags.items())))
    return 0


def _cmd_embed_train(args):
    g = load_graph(args.graph)
    cfg = LossConfig(alpha=args.alpha, scale=args.scale, dim=args.dim)
    aug = AugmentationConfig(jitter_sigma=args.jitter)
    views = WorldViews.from_graph(g, seed=args.seed)
    g_enc, f_enc, history = train_encoders(
        g, cfg, aug, epochs=args.epochs, lr=args.lr, seed=args.seed,
        n_b=args.nb, k=args.k, views=views, return_history=True,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "encoders.npz")
    np.savez(
        path,
        g_weights=g_enc.weights, g_bias=g_enc.bias,
        f_weights=f_enc.weights, f_bias=f_enc.bias,
        alpha=cfg.alpha, scale=cfg.scale, dim=cfg.dim,
        view_seed=args.seed, history=np.array(history),
    )
    print(f"wrote {path}: loss {history[0]:.4f} -> {history[-1]:.4f} "
          f"over {args.epochs} epochs")
    return 0


def _load_encoders(path):
    data = np.load(path)
    g_enc = Encoder(data["g_weights"], data["g_bias"])
    f_enc = Encoder(data["f_weights"], data["f_bias"])
    cfg = LossConfig(alpha=float(data["alpha"]), scale=float(data["scale"]),
                     dim=int(data["dim"]))
    return g_enc, f_enc, cfg, int(data["view_seed"])


def _cmd_embed_export(args):
    g = load_graph(args.graph)
    g_enc, f_enc, cfg, view_seed = _load_encoders(args.encoders)
    views = WorldViews.from_graph(g, seed=view_seed if args.seed is None else args.seed)
    if args.domain == "map":
        lat = views.map_s1 if args.tile == "s1" else views.map_s2
        enc = g_enc
    else:
        lat = views.image
        enc = f_enc
    store = DescriptorStore(views.ids, encode_batch(lat, enc, cfg))
    os.makedirs(args.out, exist_ok=True)
    name = args.name or f"{args.domain}.emb"
    path = os.path.join(args.out, name)
    store.save(path)
    print(f"wrote {path}: {len(store)} descriptors, dim {store.dim}")
    return 0


def _cmd_eval_recall(args):
    queries = DescriptorStore.load(args.queries)
    refs = DescriptorStore.load(args.refs)
    ks = [float(k) for k in args.ks.split(",") if k]
    curve = topk_percent_recall(queries.vectors, queries.ids, refs, ks)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "recall.csv")
    curve.write_csv(path)
    print(f"wrote {path}: " + ", ".join(f"top{k:g}%={r:.4f}" for k, r in curve.points))
    return 0


def _cmd_eval_pr(args):
    queries = DescriptorStore.load(args.queries)
    refs = DescriptorStore.load(args.refs)
    rng = np.random.default_rng(args.seed)
    matched = []
    unmatched = []
    for i, qid in enumerate(queries.ids):
        d = refs.distances_to(queries.vectors[i])
        matched.append(d[refs.row_of(int(qid))])
        others = np.nonzero(refs.ids != qid)[0]
        take = min(args.unmatched_per_query, len(others))
        unmatched.extend(d[rng.choice(others, size=take, replace=False)])
    matched = np.array(matched)
    unmatched = np.array(unmatched)
    hi = float(max(matched.max(), unmatched.max()))
    thresholds = np.linspace(0.0, hi, args.thresholds)
    curve = precision_recall_curve(matched, unmatched, thresholds)
    hist = distance_histograms(matched, unmatched, args.bins)
    os.makedirs(args.out, exist_ok=True)
    pr_path = os.path.join(args.out, "pr.csv")
    hist_path = os.path.join(args.out, "histogram.csv")
    curve.write_csv(pr_path)
    hist.write_csv(hist_path)
    print(f"wrote {pr_path} and {hist_path} "
          f"({matched.size} matched / {unmatched.size} unmatched pairs)")
    return 0


def _cmd_localize_run(args):
    g = load_graph(args.graph)
    store = DescriptorStore.load(args.store)
    qstore = DescriptorStore.load(args.query)
    m = len(qstore)
    expected = np.arange(m)
    if not np.array_equal(qstore.ids, expected):
        raise ValueError("query store ids must be 0..m-1 (the query order)")
    exclusions = tuple(t for t in args.exclude.split(",") if t)
    turns = [int(b) for b in args.turns.split(",")] if args.turns else None
    bits = [None] * (m - 1)
    if args.use_turns and turns is not None:
        if len(turns) != m - 1 or not set(turns) <= {0, 1}:
            raise ValueError(f"turn pattern must be {m - 1} bits of 0 or 1, got {args.turns}")
        bits = turns
    cfg = LocalizerConfig(use_turns=args.use_turns, top_k=args.top_k)
    costs = store.distance_matrix(qstore.vectors)[:, store.rows_of(g.id_array)]
    state = start_candidates(g, costs[0], exclusions, cfg)
    for cost, bit in zip(costs[1:], bits):
        state = advance_candidates(state, cost, bit, cfg)
    ranked = state.ranked(cfg.top_k)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "ranked.csv")
    write_ranked_csv(path, ranked)
    if ranked:
        best, dist = ranked[0]
        print(f"wrote {path}: {len(ranked)} candidates, best {best} at {dist:.4f}")
    else:
        print(f"wrote {path}: no candidates survived")
    return 0


def _cmd_bench_sweep(args):
    methods = [m for m in args.methods.split(",") if m]
    for m in methods:
        if m not in bench_mod.METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {bench_mod.METHODS}")
    g = load_graph(args.graph)
    views = WorldViews.from_graph(g, seed=args.seed)
    encoders = None
    needs_embeddings = any(m in ("ES", "ES+T") for m in methods)
    if needs_embeddings:
        aug = AugmentationConfig()
        g_enc, f_enc = train_encoders(
            g, LossConfig(), aug, epochs=args.epochs, lr=args.lr, seed=args.seed,
            views=views,
        )
        encoders = (g_enc, f_enc)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for method in methods:
        cfg = bench_mod.ExperimentConfig(
            world=args.graph,
            method=method,
            route_count=args.routes,
            max_length=args.max_length,
            noise=bench_mod.NoiseParams(sigma=args.sigma),
            localizer=LocalizerConfig(
                cull_fraction=args.cull_fraction, cull_floor=args.cull_floor,
            ),
            train=bench_mod.TrainParams(epochs=args.epochs, lr=args.lr),
            seed=args.seed,
        )
        report = bench_mod.run_experiment(cfg, graph=g, views=views, encoders=encoders)
        stem = method.replace("+", "_plus_").replace("-", "_")
        csv_path = os.path.join(args.out, f"{stem}.csv")
        meta_path = os.path.join(args.out, f"{stem}.json")
        report.write_csv(csv_path)
        report.write_meta(meta_path)
        written.append(csv_path)
        final = report.lengths[-1]
        print(f"{method}: top1@{final}={report.top1[final]:.3f} "
              f"top5@{final}={report.top5[final]:.3f} ({report.meta['runtime_s']}s)")
    print(f"wrote {len(written) * 2} files under {args.out}")
    return 0


def _cmd_bench_diff(args):
    a = bench_mod.AccuracyReport.read_meta(args.report_a)
    b = bench_mod.AccuracyReport.read_meta(args.report_b)
    sa = a.localized(args.length, args.k)
    sb = b.localized(args.length, args.k)
    d_ab = bench_mod.difference_score(sa, sb)
    d_ba = bench_mod.difference_score(sb, sa)
    print(f"S_d({a.method} -> {b.method}) = {d_ab:.4f}")
    print(f"S_d({b.method} -> {a.method}) = {d_ba:.4f}")
    return 0


_COMMANDS = {
    ("world", "gen"): _cmd_world_gen,
    ("world", "load"): _cmd_world_load,
    ("embed", "train"): _cmd_embed_train,
    ("embed", "export"): _cmd_embed_export,
    ("eval", "recall"): _cmd_eval_recall,
    ("eval", "pr"): _cmd_eval_pr,
    ("localize", "run"): _cmd_localize_run,
    ("bench", "sweep"): _cmd_bench_sweep,
    ("bench", "diff"): _cmd_bench_diff,
}

_ERROR_CATEGORIES = (
    (GraphFormatError, "format"),
    (StoreFormatError, "format"),
    (GraphInvariantError, "invariant"),
    (bench_mod.SimulationError, "simulation"),
    (TrainingDiverged, "training"),
    (FileNotFoundError, "io"),
    (PermissionError, "io"),
    (KeyError, "lookup"),
    (ValueError, "config"),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[(args.group, args.action)]
    try:
        return command(args)
    except Exception as exc:  # categorized error line, nonzero exit
        for klass, label in _ERROR_CATEGORIES:
            if isinstance(exc, klass):
                print(f"error[{label}]: {exc}", file=sys.stderr)
                return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
