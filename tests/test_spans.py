"""The benchmark's span contract: every entry point ``perfbench/spans.py``
wraps by module and name still exists, the Poincare spans fire, and a
small sweep and a small many-body run with localization, each through
``cli.execute`` and ``cli.verify``, fire every span their benchmark
workload expects and build every occupation space inside
``ground.solve``.

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
import collections, contextlib, importlib, io, json, pkgutil, sys
from pathlib import Path
import beclab
for info in pkgutil.walk_packages(beclab.__path__, "beclab."):
    importlib.import_module(info.name)
import spans
from beclab import cli, poincare

tracer = spans.Tracer()
left = spans.check_bindings(spans.install(tracer))
region = poincare.Region.ball(1.0, 16, 3)
est = poincare.estimate_constant(region, trials=5, seed=1)
weight = 1.0 + sum(x**2 for x in region.grid.meshgrid())
poincare.weighted_estimate(region, weight, est.c_star, trials=5, seed=2)
calls = collections.Counter(s[0] for s in tracer.spans)

def ancestors(i):
    names = []
    while (i := tracer.spans[i][1]) is not None:
        names.append(tracer.spans[i][0])
    return names

work, runs = Path(sys.argv[1]), {}
for workload, doc in json.loads(sys.argv[2]).items():
    path = work / (workload + ".json")
    path.write_text(json.dumps(doc))
    tracer.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.verify([cli.execute(cli.load_config(path, doc["experiment"], {}),
                                       work / "out", force=True)])
    builds = [ancestors(i) for i, s in enumerate(tracer.spans) if s[0] == "basis.fock_build"]
    runs[workload] = {"missing": spans.missing_spans(tracer.spans, workload), "verify": code,
                      "fock_builds": len(builds),
                      "outside_solve": sum("ground.solve" not in a for a in builds)}
print(json.dumps({"left": left, "calls": calls, "runs": runs}))
"""

_PROBLEM = {"trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
            "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]}}
# one small config per many-body benchmark workload
WORKLOAD_CONFIGS = {
    "fixed_g_sweep": {
        "experiment": "sweep",
        "problem": _PROBLEM | {"pair_potential": {"shape": "soft_sphere", "height": 0.01,
                                                  "radius": 8.853088605086427}},
        "solver": {"g": 0.4, "N_list": [2, 3], "max_quanta": 1}},
    "pair_localization": {
        "experiment": "manybody",
        "problem": _PROBLEM | {"pair_potential": {"shape": "soft_sphere", "height": 5.0,
                                                  "radius": 1.1}},
        "solver": {"N": 2, "g": 0.4, "max_quanta": 1,
                   "localization": {"radii": [0.5, 2.0], "samples": 4}}},
}


def test_span_bindings_hold_and_poincare_spans_fire(tmp_path):
    src = str(Path(bl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT / "perfbench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", CODE, str(tmp_path),
                          json.dumps(WORKLOAD_CONFIGS)],
                         capture_output=True, text=True, env=env, check=True)
    got = json.loads(out.stdout)
    assert got["left"] == []
    # one estimate; one weighted check per weighted trial; one gradient per trial
    assert {name: got["calls"].get(name) for name in
            ("poincare.estimate", "poincare.weighted", "poincare.gradient")} == {
        "poincare.estimate": 1, "poincare.weighted": 5, "poincare.gradient": 10}
    # every occupation space is built inside a ground-state solve: one per
    # solve (the N-particle space; the pair map enumerates its (N-2)-particle
    # states without a FockBasis)
    assert got["runs"] == {
        "fixed_g_sweep": {"missing": [], "verify": 0, "fock_builds": 2, "outside_solve": 0},
        "pair_localization": {"missing": [], "verify": 0, "fock_builds": 1,
                              "outside_solve": 0}}
