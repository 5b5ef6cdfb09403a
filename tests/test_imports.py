"""Which scipy modules the package loads, checked in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import routeloc

SRC = str(Path(routeloc.__file__).resolve().parents[1])

# Prints the scipy modules loaded after the import, then after a grid world
# goes through graph I/O and one BSD, one BSD+T and one T-only sweep.
SCRIPT = """
import json, os, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import routeloc, routeloc.cli
after_import = scipy_modules()

from routeloc import (ExperimentConfig, SyntheticWorldConfig, generate_synthetic_world,
                      load_graph, run_experiment, save_graph)

world = SyntheticWorldConfig(node_count=60, block_len=2, seed=1,
                             tag_densities={"junction_ahead": 0.3, "tunnel": 0.1})
path = os.path.join(sys.argv[1], "graph.txt")
save_graph(generate_synthetic_world(world), path)
g = load_graph(path)
for method in ("BSD", "BSD+T", "T-only"):
    run_experiment(ExperimentConfig(world=world, method=method, route_count=3,
                                    max_length=6), graph=g)
print(json.dumps([after_import, scipy_modules()]))
"""


def test_import_grid_worlds_and_tag_searches_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    after_import, after_searches = json.loads(out.stdout.splitlines()[-1])
    assert after_import == []
    assert after_searches == []
