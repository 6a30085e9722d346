"""One benchmark process: set up, run a workload's passes, check every op.

Started by ``run.py`` in a fresh interpreter with PYTHONPATH and the BLAS
thread variables already set.  Modes:

    worker.py probe  WORKLOAD SEED T0
        set up only and print the set-up time as JSON
    worker.py run    WORKLOAD SEED T0 SECONDS BUDGET TRACE RESULT
        set up, then run passes until SECONDS have gone by (at least one,
        and none that would overrun BUDGET) and write a JSON result

T0 is ``time.monotonic()`` in the parent just before the spawn; the
monotonic clock is system-wide, so the set-up time includes interpreter
start.  Set-up imports every beclab module (the CLI imports the many-body
and localization modules lazily, inside ``execute``) and parses the
workload's configs, so ``wall_s`` counts solver work and no imports.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload -> ops (experiment, committed config, check tag)
WORKLOADS = {
    "gp_dump_weighted": (("gp", "configs/gp_harmonic_g10.json", "gp_g10"),
                         ("poincare", "configs/poincare_ball3d.json", "poincare_weighted")),
    "fixed_g_sweep": (("sweep", "configs/sweep_default.json", "sweep"),),
    "pair_localization": (("manybody", "configs/manybody_localization_r05.json", "loc_r05"),
                          ("manybody", "configs/manybody_localization_r10.json", "loc_r10")),
}


def setup(workload: str, seed: int):
    import beclab
    from beclab import cli

    for info in pkgutil.walk_packages(beclab.__path__, "beclab."):
        importlib.import_module(info.name)
    configs = [cli.load_config(ROOT / path, kind, {"seed": seed})
               for kind, path, _ in WORKLOADS[workload]]
    return cli, configs


def _weighted_config(cli, path: str, seed: int, gp_report, work: Path) -> dict:
    """The committed Poincare config with its weight pointed at the GP dump."""
    doc = json.loads((ROOT / path).read_text())
    run_dir = Path(gp_report).parent
    doc["solver"]["weight"] = {"kind": "gp_dump", "phi": str(run_dir / "phi.f64"),
                               "grid": str(run_dir / "phi_grid.json")}
    derived = work / "poincare_gp_dump.json"
    derived.write_text(json.dumps(doc, indent=2))
    return cli.load_config(derived, "poincare", {"seed": seed})


def run_pass(cli, workload, configs, seed, gate, work: Path):
    """Execute every op once; returns (per-op seconds, per-op problems)."""
    times, problems = [], []
    previous = None
    for (_, path, tag), config in zip(WORKLOADS[workload], configs):
        found = []
        try:
            if tag == "poincare_weighted":
                if previous is None:
                    raise RuntimeError("no GP dump from the previous op")
                config = _weighted_config(cli, path, seed, previous, work)
            t0 = time.perf_counter()
            try:
                report = cli.execute(config, work / "out", force=True)
            finally:
                times.append(time.perf_counter() - t0)
            found = gate.check(tag, report)
            previous = report
        except Exception as exc:  # an op that raises is a failed op, not a crash
            found = [f"{tag}: {type(exc).__name__}: {exc}"]
            previous = None
        problems.append(found)
    return times, problems


def blas_threads() -> dict:
    """Thread counts reported by every OpenBLAS the process has loaded."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                found[Path(lib).name] = int(fn())
                break
    return found


def main(argv) -> int:
    mode, workload, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    cli, configs = setup(workload, seed)
    setup_s = time.monotonic() - t0
    if mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seconds, budget, traced, result_path = float(argv[4]), float(argv[5]), argv[6] == "1", argv[7]
    started = time.monotonic()

    import numpy
    import scipy

    from check import Gate, load_references

    tracer = None
    errors = []
    if traced:
        import spans

        tracer = spans.Tracer()
        unbound = spans.check_bindings(spans.install(tracer))
        errors += [f"wrapper not bound: {name}" for name in unbound]
    gate = Gate(load_references(ROOT), seed)
    work = Path(result_path).parent
    passes = []
    while True:
        t_pass = time.monotonic()
        if tracer is not None:
            tracer.reset()
        times, problems = run_pass(cli, workload, configs, seed, gate, work)
        record = {"times": times, "problems": problems}
        if tracer is not None:
            record["layer"] = spans.layer_metrics(tracer.spans)
            errors += [f"span never fired: {name}"
                       for name in spans.missing_spans(tracer.spans, workload)]
        passes.append(record)
        now = time.monotonic()
        if now - started >= seconds or (budget - (now - t0)) < 2.5 * (now - t_pass):
            break
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
