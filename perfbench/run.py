"""beclab benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the checkout that holds this
file.  Every process runs the workload alone, one after another, with the
BLAS thread count set to the number of usable CPUs.

--trace 0  set up SETUP_SAMPLES times in fresh interpreters (the last one
           is the worker), then run passes of the workload in the worker;
           prints the end-to-end metrics.
--trace 1  one untraced worker and then one traced worker, each in a fresh
           interpreter; prints the per-layer metrics and the tracing
           overhead (traced minus untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench-out"
DEFAULT_SEED = 20260810
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from spans import REPEAT_COUNTS, layer_units  # noqa: E402
from worker import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Shown in the text table only: zero on most workloads or runs, so they
# cannot be bounded as a share of the parent's median.
INFO_UNITS = {"solve_s.gp": "s", "solve_s.poincare": "s", "solve_s.sweep": "s",
              "solve_s.manybody": "s", "failure_rate": "ratio"}


def _required_files() -> list:
    needed = [ROOT / "src" / "beclab" / "cli.py", ROOT / "tests" / "data"]
    needed += [ROOT / path for ops in WORKLOADS.values() for _, path, _ in ops]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def _environment() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env, nproc


def _spawn(args, env, deadline) -> subprocess.CompletedProcess:
    """Run a worker to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def _probe(workload, seed, env, deadline) -> float:
    proc = _spawn(["probe", workload, seed, time.monotonic()], env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _worker(workload, seed, seconds, traced, env, deadline, work: Path) -> dict:
    result = work / ("traced.json" if traced else "untraced.json")
    budget = deadline - time.monotonic()
    proc = _spawn(["run", workload, seed, time.monotonic(), seconds, budget,
                   int(traced), result], env, deadline)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def _ops(result) -> tuple[int, int, list]:
    problems = [p for rec in result["passes"] for p in rec["problems"]]
    return len(problems), sum(1 for p in problems if p), [x for p in problems for x in p]


def _pass_walls(result) -> list:
    return [sum(rec["times"]) for rec in result["passes"]]


def end_to_end(workload, untraced, setup_samples) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, and the extras shown in the text table only."""
    passes = untraced["passes"]
    metrics = {
        "wall_s": statistics.median(_pass_walls(untraced)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    info = {}
    for i, (kind, _, _) in enumerate(WORKLOADS[workload]):
        key = f"solve_s.{kind}"
        info[key] = info.get(key, 0.0) + statistics.median(rec["times"][i] for rec in passes)
    attempted, failed, _ = _ops(untraced)
    info["failure_rate"] = failed / attempted
    return metrics, info


def _code_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _repeat_mismatches(workload, layer_passes) -> list:
    """Repeat counts that differ between passes or from earlier runs of this code.

    The first run of a code version in a checkout records its counts under
    .perfbench-out/; later runs compare against that record.
    """
    counts = [{k: rec[k] for k in REPEAT_COUNTS} for rec in layer_passes]
    record_path = STATE / "repeat_counts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{_code_sha()}:{workload}"
    reference = record.setdefault(key, counts[0])
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    return sorted({k for c in counts for k in REPEAT_COUNTS if c[k] != reference[k]})


def per_layer(workload, untraced, traced) -> tuple[dict, list]:
    layer_passes = [rec["layer"] for rec in traced["passes"]]
    metrics = {k: statistics.median(rec[k] for rec in layer_passes) for k in layer_passes[0]}
    metrics["trace.wall_s"] = statistics.median(_pass_walls(traced))
    metrics["trace.untraced_wall_s"] = statistics.median(_pass_walls(untraced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    mismatched = _repeat_mismatches(workload, layer_passes)
    metrics["counts.mismatches"] = len(mismatched)
    return metrics, mismatched


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _required_files()
    if missing:
        print(f"benchmark needs the beclab checkout; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env, nproc = _environment()
    STATE.mkdir(exist_ok=True)
    work = STATE / f"run-{os.getpid()}"
    work.mkdir()
    try:
        setup_samples = []
        if not args.trace:
            setup_samples = [_probe(args.workload, args.seed, env, deadline)
                             for _ in range(SETUP_SAMPLES - 1)]
        untraced = _worker(args.workload, args.seed, args.seconds, False, env, deadline, work)
        setup_samples.append(untraced["setup_s"])
        results = [untraced]
        flags = []
        if args.trace:
            traced = _worker(args.workload, args.seed, args.seconds, True, env, deadline, work)
            results.append(traced)
            metrics, mismatched = per_layer(args.workload, untraced, traced)
            flags = [f"count {k} differs from another run of the same code" for k in mismatched]
            extras, units = {}, layer_units(metrics)
        else:
            metrics, extras = end_to_end(args.workload, untraced, setup_samples)
            units = {**END_TO_END_UNITS, **INFO_UNITS}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    problems = []
    for res in results:
        a, f, p = _ops(res)
        attempted, failed, problems = attempted + a, failed + f, problems + p + res["errors"]
    for line in problems + flags:
        print(f"FLAG {line}", file=sys.stderr)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(untraced["passes"]),
        "nproc": nproc, "blas_threads_set": nproc,
        "blas_threads_reported": untraced["blas_threads"],
        **untraced["versions"],
        "git_commit": _git_commit(), "src_sha256": _code_sha(),
        "setup_samples": setup_samples,
        "note": ("setup_s is measured with a warm file cache and without CPU pinning: "
                 "dropping the cache or pinning CPUs needs privileges the benchmark "
                 "does not take"),
    }
    print("meta " + json.dumps(meta))
    for name, value in {**metrics, **extras}.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    correct = failed == 0 and not any(res["errors"] for res in results)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
