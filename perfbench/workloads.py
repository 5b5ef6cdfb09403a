"""The four benchmark workloads: inputs, timed rounds and result checks.

Each workload builds its inputs from the run seed in ``setup``, then the
runner calls ``run_round(k)`` until the run's time is up.  A round makes
only the public calls a user makes (``train_encoders``, or
``run_experiment`` given a prebuilt graph, views and encoders), and
``check_round`` then checks what the round returned, outside the timed
region.  ``check`` runs once at the end: aggregate properties of the
method plus a comparison of sampled routes against the independent oracle.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

import routeloc.bench as rbench
import routeloc.embedding as remb
import routeloc.localizer as rloc
import routeloc.synth as rsynth
import routeloc.world as rworld

import oracle
from spans import patched

MAX_LENGTH = 20
# Tags no simulated or candidate route may pass through (the package default).
EXCLUSIONS = rbench.DEFAULT_EXCLUSIONS
DIST_TOL = 1e-9
SCALE = remb.DEFAULT_SCALE


def round_seed(seed: int, k: int) -> int:
    """Experiment seed of round k: distinct routes and noise in every round."""
    return seed * 10_000 + k


def report_digest(rep) -> str:
    """Digest of an accuracy report's figures and localized-route sets."""
    payload = {
        "method": rep.method,
        "top1": {str(m): rep.top1[m] for m in rep.lengths},
        "top5": {str(m): rep.top5[m] for m in rep.lengths},
        "localized_top1": {str(m): sorted(rep.localized_top1[m]) for m in rep.lengths},
        "localized_top5": {str(m): sorted(rep.localized_top5[m]) for m in rep.lengths},
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def descriptors(latents, enc) -> np.ndarray:
    """Encoder output projected onto the radius-32 sphere, computed here."""
    raw = np.asarray(latents, dtype=np.float64) @ enc.weights.T + enc.bias
    return SCALE * raw / np.sqrt((raw * raw).sum(axis=-1, keepdims=True))


@dataclass
class Check:
    """Outcome of the checks: failed operations and the failed properties.

    A failure names the operations it covers by a key, so an operation that
    fails two checks still counts once.  ``phase`` tells apart the traced
    replay of a round from the untraced round itself.
    """

    phase: str = "untraced"
    failed_ops: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failed_ops.values())

    def fail(self, key, ops: int, why: str, phase: str | None = None) -> None:
        self.failed_ops[phase or self.phase, key] = ops
        if len(self.problems) < 20:
            self.problems.append(why)


class Workload:
    """Shared set-up: generate the world, write it, read it back."""

    name = ""
    setup_repeats = 15
    trace_rounds = 4
    needs_views = True

    def __init__(self, seed: int, work_dir):
        self.seed = seed
        self.graph_path = work_dir / "graph.txt"
        self.digests = []
        self.round_seeds = []
        self.hits = {}

    def world_config(self):
        raise NotImplementedError

    def setup(self) -> None:
        # Drop the inputs of an earlier set-up first, so that repeated
        # set-ups do not hold two copies at once and raise the peak memory.
        self.graph = self.views = None
        g = rsynth.generate_synthetic_world(self.world_config())
        rworld.save_graph(g, self.graph_path)
        self.graph = rworld.load_graph(self.graph_path)
        self.views = (remb.WorldViews.from_graph(self.graph, seed=self.seed)
                      if self.needs_views else None)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


class TrainWorkload(Workload):
    """Encoder training on the 2000-location corridor world.

    A round trains both encoders from scratch for two epochs; an operation
    is one SGD batch of 10 locations x 5 augmentations.
    """

    name = "train"
    trace_rounds = 3
    epochs = 2

    def world_config(self):
        return rsynth.SyntheticWorldConfig(node_count=2000, spacing=10.0,
                                           seed=self.seed, block_len=10)

    def ops_per_round(self) -> int:
        return self.epochs * (len(self.views.ids) // remb.DEFAULT_BATCH_LOCATIONS)

    def run_round(self, k: int):
        s = round_seed(self.seed, k)
        self.round_seeds.append(s)
        return remb.train_encoders(
            self.graph, remb.LossConfig(), remb.AugmentationConfig(),
            epochs=self.epochs, lr=0.2, seed=s, views=self.views, return_history=True,
        )

    def check_round(self, k: int, out, chk: Check) -> int:
        g_enc, f_enc, history = out
        self.encoders = (g_enc, f_enc)
        self.digests.append(hashlib.sha256(
            np.concatenate([g_enc.weights.ravel(), f_enc.weights.ravel()]).tobytes()
        ).hexdigest()[:16])
        ops = self.ops_per_round()
        finite = all(math.isfinite(h) for h in history)
        if not finite or any(b >= a for a, b in zip(history, history[1:])):
            chk.fail(k, ops, f"round {k}: loss not finite and decreasing: {history}")
        return ops

    def check(self, chk: Check) -> bool:
        g_enc, f_enc = self.encoders
        ok = True
        worst = self._gradient_error(g_enc, f_enc)
        chk.summary["grad_rel_err_max"] = worst
        if not worst < 1e-4:
            chk.problems.append(f"analytic vs central-difference gradient error {worst:.3e}")
            ok = False
        recall = self._recall_top1pct(g_enc, f_enc)
        chk.summary["recall_top1pct"] = recall
        if not recall >= 0.95:
            chk.problems.append(f"image-to-map top-1% recall {recall:.4f} < 0.95")
            ok = False
        return ok

    def _gradient_error(self, g_enc, f_enc) -> float:
        """Worst relative error of analytic gradients against central differences."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 5]))
        cfg = remb.LossConfig()
        g = remb.Encoder(g_enc.weights.copy(), g_enc.bias.copy())
        f = remb.Encoder(f_enc.weights.copy(), f_enc.bias.copy())
        rows = rng.choice(len(self.views.ids), remb.DEFAULT_BATCH_LOCATIONS, replace=False)
        batch = remb.build_batch(self.views, rows, remb.AugmentationConfig(), rng=rng)
        _, grads = remb.batch_loss(batch, g, f, cfg)
        h = 1e-6
        worst = 0.0
        for arr, g_arr in ((g.weights, grads.g_weights), (g.bias, grads.g_bias),
                           (f.weights, grads.f_weights), (f.bias, grads.f_bias)):
            flat = arr.reshape(-1)
            for j in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                keep = flat[j]
                flat[j] = keep + h
                up = remb.batch_loss(batch, g, f, cfg)[0]
                flat[j] = keep - h
                dn = remb.batch_loss(batch, g, f, cfg)[0]
                flat[j] = keep
                fd = (up - dn) / (2 * h)
                an = g_arr.reshape(-1)[j]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        return worst

    def _recall_top1pct(self, g_enc, f_enc) -> float:
        """Share of locations whose own map descriptor ranks in the top 1%."""
        refs = descriptors(self.views.map_s1, g_enc)
        queries = descriptors(self.views.image, f_enc)
        d2 = (queries * queries).sum(1)[:, None] + (refs * refs).sum(1)[None, :] \
            - 2.0 * queries @ refs.T
        own = np.diag(d2)
        rank = (d2 < own[:, None]).sum(axis=1) + 1
        return float(np.mean(rank <= math.ceil(0.01 * len(refs))))


# ----------------------------------------------------------------------
# route sweeps
# ----------------------------------------------------------------------


def same_route_result(replay, rep, idx: int) -> bool:
    """The replay localized route idx at the same lengths as the round."""
    return all((idx in getattr(replay, t)[m]) == (idx in getattr(rep, t)[m])
               for m in rep.lengths for t in ("localized_top1", "localized_top5"))


class SweepWorkload(Workload):
    """Accuracy sweeps: a round is one run_experiment call per method.

    An operation is one simulated route, localized step by step to length
    20 and scored.  ``check`` replays the first route of each of the first
    ``replay_rounds`` rounds with probes on the search and compares every
    top-5 it reported with the oracle.
    """

    methods = ()
    routes_per_method = 1
    noise = rbench.NoiseParams()
    localizer = rloc.LocalizerConfig()
    train_epochs = 0
    replay_rounds = 1
    oracle_lengths = ()

    def __init__(self, seed: int, work_dir):
        super().__init__(seed, work_dir)
        self.replayed = {}

    def setup(self) -> None:
        self.encoders = None
        super().setup()
        if self.train_epochs:
            self.encoders = remb.train_encoders(
                self.graph, remb.LossConfig(), remb.AugmentationConfig(),
                epochs=self.train_epochs, lr=0.2, seed=self.seed, views=self.views,
            )

    def ops_per_round(self) -> int:
        return len(self.methods) * self.routes_per_method

    def experiment(self, method: str, routes: int, seed: int):
        cfg = rbench.ExperimentConfig(
            world=str(self.graph_path), method=method, route_count=routes,
            max_length=MAX_LENGTH, noise=self.noise, localizer=self.localizer,
            seed=seed,
        )
        return rbench.run_experiment(cfg, graph=self.graph, views=self.views,
                                     encoders=self.encoders)

    def run_round(self, k: int):
        s = round_seed(self.seed, k)
        self.round_seeds.append(s)
        return [self.experiment(m, self.routes_per_method, s) for m in self.methods]

    def check_round(self, k: int, reports, chk: Check) -> int:
        if k < self.replay_rounds:
            self.replayed[k] = reports
        for rep in reports:
            self.digests.append(report_digest(rep))
            self.accumulate(rep)
            for idx in range(self.routes_per_method):
                why = self.route_property(rep, idx)
                if why:
                    chk.fail((k, rep.method, idx), 1, f"round {k} {rep.method} route {idx}: {why}")
        return self.ops_per_round()

    def accumulate(self, rep) -> None:
        """Pool top-1 hits per method and length over the whole run."""
        for m in rep.lengths:
            hits, n = self.hits.get((rep.method, m), (0, 0))
            self.hits[rep.method, m] = (hits + len(rep.localized_top1[m]),
                                        n + rep.meta["route_count"])

    def top1(self, method: str, m: int) -> float:
        hits, n = self.hits[(method, m)]
        return hits / n

    def route_property(self, rep, idx: int) -> str:
        """A property every single route must have; '' when it holds."""
        return ""

    # -- oracle replay ------------------------------------------------

    def check(self, chk: Check) -> bool:
        ok = self.aggregate_check(chk)
        self.og = oracle.read_graph(self.graph_path)
        for k in range(self.replay_rounds):
            for method, rep in zip(self.methods, self.replayed[k]):
                why = self.replay_route(method, k, rep, 0)
                if why:
                    chk.fail((k, method, 0), 1, f"round {k} {method} route 0 vs oracle: {why}")
        return ok

    def replay_route(self, method: str, k: int, rep, idx: int, extra_lengths=()) -> str:
        """Replay route idx of round k and compare it with the oracle; '' when it agrees.

        ``extra_lengths`` adds lengths at which the whole top-5 must equal
        the oracle's, beyond the workload's own ``oracle_lengths``.
        """
        cap = self.capture(method, round_seed(self.seed, k), rep.meta["route_count"])
        if not same_route_result(cap["report"], rep, idx):
            return "replay differs from the timed round"
        return self.oracle_route(method, self.route_view(cap, idx), extra_lengths)

    def aggregate_check(self, chk: Check) -> bool:
        return True

    def capture(self, method: str, seed: int, routes: int) -> dict:
        """Replay a round of ``routes`` routes with probes on the search."""
        cap = {"routes": [], "latents": [], "codes": [], "tops": []}

        def probe(fn, sink, pick):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                cap[sink].append(pick(args, out))
                return out
            return wrapper

        targets = [
            (rbench, "simulate_routes", probe(rbench.simulate_routes, "routes", lambda a, o: o)),
            (rbench, "encode_batch", probe(rbench.encode_batch, "latents",
                                           lambda a, o: np.array(a[0], dtype=np.float64))),
            (rbench, "simulate_query_codes", probe(rbench.simulate_query_codes, "codes",
                                                   lambda a, o: list(o))),
            (rloc.CandidateSet, "top", probe(rloc.CandidateSet.top, "tops",
                                             lambda a, o: (a[0].length_m, list(o)))),
        ]
        with patched(targets):
            cap["report"] = self.experiment(method, routes, seed)
        return cap

    @staticmethod
    def route_view(cap: dict, idx: int) -> dict:
        """The captured inputs and top-5 lists of route idx alone."""
        steps = MAX_LENGTH - rbench.ExperimentConfig.success_window + 1
        return {
            "truth": tuple(cap["routes"][0][idx]),
            # encode_batch is called once for the map store, then once per route.
            "latents": cap["latents"][1 + idx] if cap["latents"] else None,
            "codes": cap["codes"][idx] if cap["codes"] else None,
            "tops": cap["tops"][idx * steps:(idx + 1) * steps],
        }

    def oracle_costs(self, method: str, rv: dict) -> list:
        """Per-step cost maps id -> cost for the replayed route."""
        ids = [int(i) for i in self.graph.id_array]
        if method in ("ES", "ES+T"):
            refs = descriptors(self.views.map_s1, self.encoders[0])
            query = descriptors(rv["latents"], self.encoders[1])
            dist = np.sqrt(((refs[None, :, :] - query[:, None, :]) ** 2).sum(-1))
            return [dict(zip(ids, row.tolist())) for row in dist]
        if method in ("BSD", "BSD+T"):
            return oracle.hamming_costs(self.og, rv["codes"])
        return [dict.fromkeys(ids, 0.0)] * MAX_LENGTH

    def oracle_route(self, method: str, rv: dict, extra_lengths=()) -> str:
        """Compare every captured top-5 of the replayed route with the oracle."""
        og = self.og
        truth = rv["truth"]
        costs = self.oracle_costs(method, rv)
        use_turns = method in ("ES+T", "BSD+T", "T-only")
        turns = oracle.turn_bits(truth, og.pos) if use_turns else None
        tops = rv["tops"]
        first = rbench.ExperimentConfig.success_window
        if [m for m, _ in tops] != list(range(first, MAX_LENGTH + 1)):
            return f"unexpected top() call sequence {[m for m, _ in tops]}"
        for m, top in tops:
            if not top:
                return f"empty top-5 at length {m}"
            for route, dist in top:
                if len(route) != m or not oracle.is_legal(route, og, EXCLUSIONS):
                    return f"illegal route {route} at length {m}"
                want = oracle.route_cost(route, costs)
                if abs(dist - want) > DIST_TOL:
                    return f"distance {dist!r} != oracle sum {want!r} at length {m}"
                if turns is not None and oracle.turn_bits(route, og.pos) != turns[:m - 1]:
                    return f"route {route} breaks the query turn pattern at length {m}"
            if m in self.oracle_lengths or m in extra_lengths:
                why = self.compare_with_oracle(og, costs, m, top, turns)
                if why:
                    return why
        return ""

    def compare_with_oracle(self, og, costs, m, top, turns) -> str:
        want = oracle.top_routes(og, costs, m, 5, EXCLUSIONS, turns)
        if [r for r, _ in top] != [r for r, _ in want]:
            return f"top-5 at length {m} is {[r for r, _ in top]}, oracle {[r for r, _ in want]}"
        if any(abs(d - w) > DIST_TOL for (_, d), (_, w) in zip(top, want)):
            return f"top-5 distances at length {m} differ from the oracle"
        return ""


class FullSweep(SweepWorkload):
    """ES and ES+T, clean queries, no culling, on the 2000-location world."""

    name = "sweep-full"
    setup_repeats = 5
    trace_rounds = 8
    methods = ("ES", "ES+T")
    routes_per_method = 4
    train_epochs = 2
    replay_rounds = 2
    oracle_lengths = (5, 12, 20)

    world_config = TrainWorkload.world_config

    def __init__(self, seed: int, work_dir):
        super().__init__(seed, work_dir)
        self.misses = {}

    def check_round(self, k: int, reports, chk: Check) -> int:
        """Note each clean route that is not top-1 at some length, to verify later.

        Clean queries are top-1 almost always, but the two encoders are not
        exact inverses after two epochs, so now and then another route is
        closer at a short length.  Such a route is checked in ``check``.
        """
        for rep in reports:
            for idx in range(self.routes_per_method):
                missed = [m for m in rep.lengths if idx not in rep.localized_top1[m]]
                if missed:
                    entry = self.misses.setdefault((k, rep.method, idx), (rep, missed, []))
                    entry[2].append(chk.phase)
        return super().check_round(k, reports, chk)

    def check(self, chk: Check) -> bool:
        """Oracle replays, plus every miss: it holds only if the oracle misses too.

        A missed route is replayed and its top-5 at each missed length must
        equal the oracle's exactly, so the oracle also ranks another route
        first.  A miss the oracle does not share fails in every phase that
        saw it.
        """
        ok = super().check(chk)
        chk.summary["clean_misses"] = sorted(
            f"round {k} {method} route {idx} lengths {missed}"
            for (k, method, idx), (_, missed, _) in self.misses.items())
        for (k, method, idx), (rep, missed, phases) in self.misses.items():
            why = self.replay_route(method, k, rep, idx, missed)
            for phase in phases if why else ():
                chk.fail((k, method, idx), 1,
                         f"round {k} {method} route {idx} not top-1 at {missed}: {why}", phase)
        return ok


class CulledSweep(SweepWorkload):
    """ES under heavy-tailed query noise with per-step culling (cull 0.5, floor 100)."""

    name = "sweep-culled"
    setup_repeats = 5
    trace_rounds = 16
    methods = ("ES",)
    routes_per_method = 25
    noise = rbench.NoiseParams(sigma=0.75, outlier_prob=0.1, outlier_scale=40.0)
    localizer = rloc.LocalizerConfig(cull_fraction=0.5, cull_floor=100)
    train_epochs = 2
    replay_rounds = 3
    oracle_lengths = (5,)
    band = (0.80, 0.95)

    world_config = TrainWorkload.world_config

    def route_property(self, rep, idx: int) -> str:
        bad = [m for m in rep.lengths
               if idx in rep.localized_top1[m] and idx not in rep.localized_top5[m]]
        return f"top-1 hit without a top-5 hit at lengths {bad}" if bad else ""

    def aggregate_check(self, chk: Check) -> bool:
        final = self.top1("ES", MAX_LENGTH)
        chk.summary["ES_top1_final"] = final
        if not self.band[0] <= final <= self.band[1]:
            chk.problems.append(f"final top-1 {final:.4f} outside {self.band}")
            return False
        return True

    def compare_with_oracle(self, og, costs, m, top, turns) -> str:
        # Culling may lose the optimum but never beats it.
        best = oracle.top_routes(og, costs, m, 1, EXCLUSIONS, turns)[0][1]
        if top[0][1] < best - DIST_TOL:
            return f"culled top-1 {top[0][1]!r} beats the full-search optimum {best!r}"
        return ""


class TieSweep(SweepWorkload):
    """BSD and T-only on a feature-sparse world where equal costs are the rule."""

    name = "sweep-ties"
    trace_rounds = 16
    needs_views = False
    methods = ("BSD", "T-only")
    routes_per_method = 1
    noise = rbench.NoiseParams(bsd=rbench.BsdNoise(0.05, 0.05))
    replay_rounds = 2
    oracle_lengths = (5, 8)

    def world_config(self):
        sparse = {t: 0.1 for t in oracle.BSD_TAGS}
        return rsynth.SyntheticWorldConfig(node_count=2000, spacing=10.0, seed=self.seed,
                                           block_len=5, tag_densities=sparse)

    def aggregate_check(self, chk: Check) -> bool:
        worse = []
        for m in range(10, MAX_LENGTH + 1):
            bsd, turn = self.top1("BSD", m), self.top1("T-only", m)
            if not bsd > turn:
                worse.append((m, bsd, turn))
        chk.summary["BSD_top1_final"] = self.top1("BSD", MAX_LENGTH)
        chk.summary["T-only_top1_final"] = self.top1("T-only", MAX_LENGTH)
        if worse:
            chk.problems.append(f"BSD top-1 does not beat T-only at {worse}")
            return False
        return True


WORKLOADS = {w.name: w for w in (TrainWorkload, FullSweep, CulledSweep, TieSweep)}
