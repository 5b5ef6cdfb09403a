"""perfbench's traced runs wrap the package's entry points by name.

``perfbench/run.py``'s ``trace_targets`` replaces names such as
``bench.start_candidates`` and ``CandidateSet.top`` for a traced run.  A
refactor that routes the search around those names would leave its
per-layer metrics at zero without failing anything, so this pins that a
small ES and BSD sweep still passes through every probe.
"""
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

from routeloc import ExperimentConfig, SyntheticWorldConfig, TrainParams, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Spans each sweep below must record at least once.
PROBED = ("localizer.start", "localizer.advance", "localizer.top", "bench.simulate_routes",
          "embedding.encode_batch", "baselines.hamming", "baselines.query_codes")


def load_perfbench(name):
    """A perfbench module, loaded from its file under a private name.

    ``run.py`` pins the BLAS thread count in the environment and turns off
    bytecode writing when it loads; both are put back afterwards.
    """
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "dont_write_bytecode", sys.dont_write_bytecode):
        spec.loader.exec_module(module)
    return module


def test_sweeps_pass_through_every_probe():
    run, spans = load_perfbench("run"), load_perfbench("spans")
    tracer = spans.Tracer()
    tracer.active = True
    world = SyntheticWorldConfig(node_count=80, seed=5)
    with spans.patched(run.trace_targets(tracer)):
        for method in ("ES", "BSD"):
            run_experiment(ExperimentConfig(world=world, method=method, route_count=3,
                                            max_length=6, train=TrainParams(epochs=1)))
    names = {span[0] for span in tracer.spans}
    missing = [name for name in PROBED if name not in names]
    assert not missing, f"no spans for {missing}"
