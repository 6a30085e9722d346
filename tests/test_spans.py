"""The benchmark's span contract: every entry point ``perfbench/spans.py``
wraps by module and name still exists, and the Poincare spans fire.

The tracer rebinds names in every loaded beclab module, so it runs in a
subprocess that no other test shares; perfbench is only read (no bytecode
is written next to it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import beclab as bl

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import collections, importlib, json, pkgutil, sys
import beclab
for info in pkgutil.walk_packages(beclab.__path__, "beclab."):
    importlib.import_module(info.name)
import spans
from beclab import poincare

tracer = spans.Tracer()
left = spans.check_bindings(spans.install(tracer))
region = poincare.Region.ball(1.0, 16, 3)
est = poincare.estimate_constant(region, trials=5, seed=1)
weight = 1.0 + sum(x**2 for x in region.grid.meshgrid())
poincare.weighted_estimate(region, weight, est.c_star, trials=5, seed=2)
print(json.dumps({"left": left, "calls": collections.Counter(s[0] for s in tracer.spans)}))
"""


def test_span_bindings_hold_and_poincare_spans_fire():
    src = str(Path(bl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT / "perfbench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True,
                         env=env, check=True)
    got = json.loads(out.stdout)
    assert got["left"] == []
    # one estimate; one weighted check per weighted trial; one gradient per trial
    assert {name: got["calls"].get(name) for name in
            ("poincare.estimate", "poincare.weighted", "poincare.gradient")} == {
        "poincare.estimate": 1, "poincare.weighted": 5, "poincare.gradient": 10}
