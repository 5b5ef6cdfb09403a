"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The package is imported from ``src/`` of
the same tree, never from an installed copy.  With ``--trace 0`` the last
line of standard output is a JSON object carrying the end-to-end metrics
(``setup_s``, ``ops_per_s``, ``peak_rss_mb``); with ``--trace 1`` it
carries the per-layer metrics of a traced run instead.  Run records,
and spans of traced runs, go to ``.perfbench_out/`` at the root.
"""
import os
import sys

# Pin the BLAS pool to one thread before numpy loads: OpenBLAS otherwise
# starts one thread per core, and on a small shared machine those threads
# compete with each other and with neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Span names and the per-layer metric their summed self time is reported as.
SELF_TIME_METRICS = {
    "synth.generate": "synth.generate_s",
    "world.save_graph": "world.save_graph_s",
    "world.load_graph": "world.load_graph_s",
    "embedding.train": "embedding.train_self_s",
    "embedding.build_batch": "embedding.build_batch_s",
    "embedding.batch_loss": "embedding.batch_loss_s",
    "embedding.encode_batch": "embedding.encode_batch_s",
    "localizer.start": "localizer.start_s",
    "localizer.advance": "localizer.advance_s",
    "localizer.top": "localizer.top_s",
    "baselines.query_codes": "baselines.query_codes_s",
    "baselines.hamming": "baselines.hamming_s",
    "bench.simulate_routes": "bench.simulate_routes_s",
    "bench.run_experiment": "bench.self_s",
}


def import_package():
    """Import routeloc from this tree's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import routeloc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import routeloc from {src}: {exc}")
    if not Path(routeloc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: routeloc resolved outside {src}: {routeloc.__file__}")


def timed_round(wl, chk, k, tracer=None):
    """Run round k; only its program calls are timed, its checks run after."""
    with tracer.span("round") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = wl.run_round(k)
        dt = time.perf_counter() - t0
    return wl.check_round(k, result, chk), dt


def timed_run(wl, chk, seconds):
    """Set-ups spread through the run, rounds 0, 1, ... in between.

    Rounds go on until they and their checks have taken ``seconds``, and at
    least the n rounds a traced run cycles through, which also covers the
    rounds the oracle replays.  Set-up j runs once the rounds have taken
    j/r of ``seconds`` (r = ``wl.setup_repeats``), so the set-up times
    sample the same stretch of the machine's speed as the rounds, not only
    the first seconds.  Every set-up rebuilds the same inputs from the
    seed.  Returns the set-up times and the per-round (ops, s) pairs.
    """
    setup_times, rounds = [], []

    def setups_due(spent):
        while (len(setup_times) < wl.setup_repeats
               and spent >= len(setup_times) * seconds / wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    spent = 0.0
    while len(rounds) < wl.trace_rounds or spent < seconds:
        setups_due(spent)
        t0 = time.perf_counter()
        rounds.append(timed_round(wl, chk, len(rounds)))
        spent += time.perf_counter() - t0
    setups_due(float("inf"))
    return setup_times, rounds


def traced_cycles(wl, chk, tracer, seconds):
    """One traced set-up, then rounds 0..n-1 untraced and traced in turn.

    Alternating lets both sides see the same machine, so their difference
    is the tracing overhead.  Cycles repeat until ``seconds`` have passed;
    the per-layer window is the traced set-up plus the first cycle, so its
    counts repeat exactly for a seed.  Returns the untraced and traced
    (ops, s) pairs and the number of spans in the window.
    """
    tracer.active = True
    wl.setup()
    tracer.active = False
    untraced, traced, window = [], [], None
    start = time.perf_counter()
    cycle = 0
    while window is None or time.perf_counter() - start < seconds:
        for k in range(wl.trace_rounds):
            chk.phase = f"cycle {cycle}"
            untraced.append(timed_round(wl, chk, k))
            chk.phase = f"cycle {cycle} traced"
            tracer.active = True
            traced.append(timed_round(wl, chk, k, tracer))
            tracer.active = False
        window = window or len(tracer.spans)
        cycle += 1
    chk.phase = "untraced"
    return untraced, traced, window


def rate(rounds):
    """Operations completed per second of timed program calls."""
    return sum(ops for ops, _ in rounds) / sum(dt for _, dt in rounds)


def trace_targets(tracer):
    """Wrappers for each layer's public entry points, installed from outside."""
    import routeloc.bench as rbench
    import routeloc.embedding as remb
    import routeloc.localizer as rloc
    import routeloc.synth as rsynth
    import routeloc.world as rworld

    w = tracer.wrap
    advance_count = lambda a, out: (a[0].size, out.size)
    start_count = lambda a, out: (0, out.size)
    return [
        (rsynth, "generate_synthetic_world",
         w(rsynth.generate_synthetic_world, "synth.generate")),
        (rworld, "save_graph", w(rworld.save_graph, "world.save_graph")),
        (rworld, "load_graph", w(rworld.load_graph, "world.load_graph")),
        (remb, "train_encoders", w(remb.train_encoders, "embedding.train")),
        (remb, "build_batch", w(remb.build_batch, "embedding.build_batch")),
        (remb, "batch_loss", w(remb.batch_loss, "embedding.batch_loss")),
        (rbench, "run_experiment", w(rbench.run_experiment, "bench.run_experiment")),
        (rbench, "simulate_routes", w(rbench.simulate_routes, "bench.simulate_routes")),
        (rbench, "encode_batch", w(rbench.encode_batch, "embedding.encode_batch")),
        (rbench, "start_candidates", w(rbench.start_candidates, "localizer.start",
                                       start_count)),
        (rbench, "advance_candidates", w(rbench.advance_candidates, "localizer.advance",
                                         advance_count)),
        (rbench, "hamming_cost_vector", w(rbench.hamming_cost_vector, "baselines.hamming")),
        (rbench, "simulate_query_codes",
         w(rbench.simulate_query_codes, "baselines.query_codes")),
        (rloc.CandidateSet, "top", w(rloc.CandidateSet.top, "localizer.top")),
    ]


def layer_metrics(tracer, window, traced, untraced):
    """Per-layer figures from the first ``window`` spans, plus the overhead."""
    spans = tracer.spans[:window]
    own = tracer.self_ns()[:window]
    names = np.array([s[0] for s in spans])
    dur_ms = np.array([(s[2] - s[1]) / 1e6 for s in spans])

    def pct(name, q):
        d = dur_ms[names == name]
        return float(np.percentile(d, q)) if len(d) else 0.0

    metrics = {}
    for name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = (float(own[names == name].sum()) / 1e9, "s")
    metrics["embedding.batch_loss_ms.p50"] = (pct("embedding.batch_loss", 50), "ms")
    metrics["embedding.batch_loss_ms.p99"] = (pct("embedding.batch_loss", 99), "ms")
    metrics["embedding.batches"] = (int((names == "embedding.batch_loss").sum()), "count")
    metrics["localizer.advance_ms.p50"] = (pct("localizer.advance", 50), "ms")
    metrics["localizer.advance_ms.p99"] = (pct("localizer.advance", 99), "ms")
    metrics["localizer.top_ms.p50"] = (pct("localizer.top", 50), "ms")

    counted = [s[4] for s in spans if s[0] in ("localizer.start", "localizer.advance")]
    cand_in = sum(s[4][0] for s in spans if s[0] == "localizer.advance")
    advance_ns = float(own[names == "localizer.advance"].sum())
    metrics["localizer.steps"] = (int((names == "localizer.advance").sum()), "count")
    metrics["localizer.candidates_total"] = (sum(c[1] for c in counted), "count")
    metrics["localizer.candidates_max"] = (max((c[1] for c in counted), default=0), "count")
    metrics["localizer.advance_ns_per_candidate"] = (
        advance_ns / cand_in if cand_in else 0.0, "ns")

    rounds = names == "round"
    region_ms = float(dur_ms[rounds].sum())
    metrics["trace.region_s"] = (region_ms / 1e3, "s")
    metrics["trace.accounted_share"] = (1.0 - own[rounds].sum() / 1e6 / region_ms, "ratio")
    metrics["trace.traced_ops_per_s"] = (rate(traced), "1/s")
    metrics["trace.untraced_ops_per_s"] = (rate(untraced), "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (rate(untraced) / rate(traced) - 1.0), "%")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    import_package()
    from spans import Tracer, patched
    from workloads import WORKLOADS, Check

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        chk = Check()
        tracer = Tracer()
        if args.trace:
            with patched(trace_targets(tracer)):
                untraced, traced, window = traced_cycles(wl, chk, tracer, args.seconds)
            rounds = untraced + traced
        else:
            setup_times, rounds = timed_run(wl, chk, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = wl.check(chk)
        attempted = sum(ops for ops, _ in rounds)

        if args.trace:
            metrics = layer_metrics(tracer, window, traced, untraced)
            tracer.write_jsonl(OUT_DIR / f"spans-{tag}.jsonl")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "ops_per_s": (rate(rounds), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count(),
            "round_seeds": sorted(set(wl.round_seeds)), "report_digests": wl.digests,
            "setup_times_s": [] if args.trace else setup_times,
            "round_times_s": [dt for _, dt in rounds],
            "checks": chk.summary, "problems": chk.problems,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        with open(OUT_DIR / f"run-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in chk.problems:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({"checks": chk.summary, "rounds": len(rounds)}))
    print(json.dumps({
        "correct": bool(ok),
        "attempted": int(attempted),
        "failed": int(chk.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
