"""Command line driver: run experiments from strict JSON configs.

Surface:

    bec-lab <scattering|gp|manybody|sweep|poincare> --config FILE
            [--out DIR] [--force] [--seed N]
    bec-lab verify REPORT [REPORT ...]

Runs are content-addressed: the canonical serialization of the full
configuration is hashed, results live under ``<out>/runs/<hash>/`` (``--out``,
default ``bec-lab-out``, is not part of the config) and a rerun with an
unchanged hash is served from cache unless forced or the cached run was made
by another version, by other code (``code_digest``), by another numpy, or
from other content of the input files the config names (their sha256 digests
in the manifest).  A regenerated report is byte-identical to the first.  A
solver failure writes no report; its diagnostics go to stderr and to
``failure.json`` in the run directory.  Exit codes: 0 success, 2
configuration error, 3 solver failure, 4 verification failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BecLabError, CapacityError, ConfigError, IntegrityError,
                     SolverFailureError)
from .gp import coupling_2d, coupling_3d, minimize_gp
from .model import (FOCK_DIMENSION_CAP, MAX_FOCK_DIMENSION, MAX_GRID_NODES, MAX_QUANTA,
                    MAX_SAMPLES, REQUIRED, check_coupling_scale, check_pair_scale, fields,
                    file_path, flag, grid_from_config, kinds, located, multilinear_interpolate,
                    number, numbers, pair_fft_lattice, problem_from_config, typed)
from .poincare import Region, estimate_constant, weighted_estimate
from .scattering import solve_zero_energy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# configuration: one field spec per block, parsed whole at load
# ---------------------------------------------------------------------------

_FOCK = {"max_quanta": (number(integer=True, minimum=0, cap=MAX_QUANTA), 3),
         "dimension_cap": (number(integer=True, minimum=1, cap=MAX_FOCK_DIMENSION),
                           FOCK_DIMENSION_CAP)}
_DRAWS = number(integer=True, minimum=1, cap=MAX_SAMPLES)

LOCALIZATION = {"radii": (numbers(positive=True), REQUIRED), "samples": (_DRAWS, 64)}
WEIGHTS = {"constant": {}, "gp_dump": {"phi": (file_path, REQUIRED), "grid": (file_path, REQUIRED)}}
_REGION_SIZE = {"box": "side", "ball": "radius"}
REGIONS = {kind: {size: (number(positive=True), REQUIRED),
                  "points": (number(integer=True, minimum=4), REQUIRED),
                  "dimension": (number(integer=True), 3)}
           for kind, size in _REGION_SIZE.items()}


def _region(doc, where: str) -> tuple[str, dict]:
    kind, f = kinds("kind", REGIONS)(doc, where)
    if f["dimension"] not in (2, 3):
        raise ConfigError(f"must be 2 or 3, got {f['dimension']}", field=f"{where}.dimension")
    nodes = f["points"] ** f["dimension"]
    if nodes > MAX_GRID_NODES:
        raise CapacityError(f"{nodes} nodes, above the cap {MAX_GRID_NODES}",
                            field=f"{where}.points")
    size = _REGION_SIZE[kind]
    Region.bounding_grid(kind, f[size], f["points"], f["dimension"]).check_sizes(
        f"{where}.{size}")
    return kind, f


SOLVERS = {
    "scattering": {"r_max": (number(positive=True), 50.0), "tol": (number(positive=True), 1e-9)},
    "gp": {"g": (number(minimum=0), None), "N": (number(integer=True, minimum=1), None),
           "a": (number(minimum=0), None), "tol": (number(positive=True), 1e-8),
           "max_iter": (number(integer=True, minimum=1), 5000), "dump_phi": (flag, False)},
    "manybody": {"N": (number(integer=True, minimum=1, cap=MAX_FOCK_DIMENSION), REQUIRED),
                 "g": (number(), None), "a": (number(), None), **_FOCK,
                 "localization": (fields(LOCALIZATION), None)},
    "sweep": {"g": (number(), REQUIRED),
              "N_list": (numbers(integer=True, minimum=1, cap=MAX_FOCK_DIMENSION), REQUIRED),
              **_FOCK, "gp_grid": (typed(dict, "an object"), None)},
    "poincare": {"region": (_region, REQUIRED), "trials": (_DRAWS, 200),
                 "weight": (kinds("kind", WEIGHTS), {"kind": "constant"})},
}

CONFIGS = {experiment: {
    "problem": (problem_from_config, {}),
    "solver": (fields(solver), {}),
    "seed": (number(integer=True, minimum=0), 0),
} for experiment, solver in SOLVERS.items()}

# the problem blocks each experiment solves on
_NEEDS = {"scattering": ("pair_potential",), "gp": ("trap", "grid"),
          "manybody": ("trap", "grid", "pair_potential"),
          "sweep": ("trap", "grid", "pair_potential"), "poincare": ()}


def load_config(path, experiment: str, overrides: dict) -> dict:
    """The run config of a strict JSON file, checked by ``validate``: the raw
    document with its top-level defaults and the overrides filled in."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config as JSON: {exc}", field="config")
    if not isinstance(doc, dict) or doc.get("experiment", experiment) != experiment:
        raise ConfigError(f"must be a JSON object of a {experiment} run", field="config")
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    validate(doc)
    return {"experiment": experiment} | {key: doc.get(key, default)
                                         for key, (_, default) in CONFIGS[experiment].items()}


def validate(config: dict) -> dict:
    """The run config with every field parsed and checked (the problem as a
    ``Problem``, solver defaults and couplings filled in); nothing is solved.
    The first bad field raises a ConfigError (a CapacityError above a cap)
    naming its dotted path."""
    experiment, c = kinds("experiment", CONFIGS)(config, "")
    problem, s = c["problem"], c["solver"]
    if any(getattr(problem, part) is None for part in _NEEDS[experiment]):
        raise ConfigError(f"{experiment} needs {' and '.join(_NEEDS[experiment])}", field="problem")
    if experiment == "scattering" and problem.pair_potential.range >= s["r_max"] / 2:
        raise ConfigError("must exceed twice the pair potential's range", field="solver.r_max")
    # gp, manybody and sweep hand g to minimize_gp: check_coupling_scale
    # refuses it under the key it came from
    if experiment == "gp":
        given = [key for key in ("N", "a") if s[key] is not None]
        if s["g"] is not None and given:
            raise ConfigError("give g or both N and a, not both", field=f"solver.{given[0]}")
        if s["g"] is None:
            if s["N"] is None or s["a"] is None:
                raise ConfigError("gp needs either g or both N and a", field="solver")
            coupling = coupling_2d if problem.trap.dimension == 2 else coupling_3d
            s["g"] = located("solver.a", coupling, s["N"], s["a"])
            check_coupling_scale(s["g"], problem.grid, field="solver.a")
        else:
            check_coupling_scale(s["g"], problem.grid, field="solver.g")
    if experiment == "manybody":
        if s["a"] is not None and s["g"] is not None:
            raise ConfigError("give g or a, not both", field="solver.a")
        if s["a"] is not None:
            check_pair_scale(s["a"], field="solver.a")
            s["g"] = coupling_3d(s["N"], s["a"])
            check_coupling_scale(s["g"], problem.grid, field="solver.a")
        elif s["g"] is not None:
            s["a"] = s["g"] / (4.0 * math.pi * s["N"])
            check_pair_scale(s["a"], field="solver.g")
            check_coupling_scale(s["g"], problem.grid, field="solver.g")
        else:
            raise ConfigError("manybody needs g or a", field="solver")
        if s["localization"] is not None and s["N"] != 2:
            raise ConfigError("localization profile is defined for N = 2 runs",
                              field="solver.localization")
    if experiment in ("manybody", "sweep"):
        if problem.trap.dimension != 3:
            raise ConfigError("mode bases are built in 3D only", field="problem.trap")
        problem.grid.check_equal_spacing("problem.grid")
        problem.trap.check_eigensolve(problem.grid, "problem.grid.points")
        # the smallest lattice of the pair transforms; a wider potential's
        # pad needs its scattering length, so the pipeline checks that after
        # the scattering solve
        pair_fft_lattice(problem.grid, 0.0, "problem.grid.points")
        N = s["N"] if experiment == "manybody" else max(s["N_list"])
        states = math.comb(N + math.comb(s["max_quanta"] + 3, 3) - 1, N)
        if states > s["dimension_cap"]:
            raise CapacityError(f"N = {N} has {states} occupation states, above the "
                                f"cap {s['dimension_cap']}", field="solver.dimension_cap")
    if experiment == "sweep":
        for N in s["N_list"]:
            check_pair_scale(s["g"] / (4.0 * math.pi * N), field="solver.g")
        if s["gp_grid"] is not None:
            s["gp_grid"] = grid_from_config(s["gp_grid"], problem.trap, where="solver.gp_grid")
            if problem.trap.kind == "tabulated" and s["gp_grid"] != problem.grid:
                raise ConfigError("tabulated modes read the mean-field reference on "
                                  "problem.grid only", field="solver.gp_grid")
        check_coupling_scale(s["g"], s["gp_grid"] or problem.grid, field="solver.g")
    return c | {"experiment": experiment}


def canonical_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _jsonable(obj):
    """numpy scalars and arrays as the Python values they hold."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """Strict JSON: a NaN or infinite number raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable, allow_nan=False) + "\n"


def _non_finite(obj, path: str) -> list[str]:
    """Paths of the NaN and infinite numbers in a report."""
    if isinstance(obj, dict):
        return [p for key, value in obj.items() for p in _non_finite(value, f"{path}.{key}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, value in enumerate(obj) for p in _non_finite(value, f"{path}[{i}]")]
    if isinstance(obj, (float, np.floating, np.ndarray)) and not np.isfinite(obj).all():
        return [path]
    return []


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# ---------------------------------------------------------------------------
# experiment runners: parsed config (``validate``, ``_read_inputs``) -> (report, aux files)
# ---------------------------------------------------------------------------

def run_scattering(c: dict):
    solver = c["solver"]
    sol = solve_zero_energy(c["problem"].pair_potential, r_max=solver["r_max"],
                            tol=solver["tol"])
    stride = max(1, len(sol.r_grid) // 512)
    report = {
        "kind": "scattering",
        "a": sol.a,
        "s": sol.s,
        "r_max": sol.r_max,
        "tol": sol.tol,
        "phi1_samples": {"r": sol.r_grid[::stride], "phi1": sol.phi1[::stride]},
        "ode_steps": sol.ode_steps,
    }
    return report, {}


def run_gp(c: dict):
    problem, solver = c["problem"], c["solver"]
    state = minimize_gp(problem.trap, solver["g"], problem.grid, tol=solver["tol"],
                        max_iter=solver["max_iter"])
    trace = np.asarray(state.energy_trace)
    max_increase = float(np.max(np.diff(trace))) if len(trace) > 1 else 0.0
    report = {
        "kind": "gp",
        "E_GP": state.energy_total,
        "components": {
            "kinetic": state.energy_kinetic,
            "potential": state.energy_potential,
            "interaction": state.energy_interaction,
        },
        "mu": state.mu,
        "residual": state.residual,
        "iterations": state.iterations,
        "g": state.g,
        "dimension": state.dimension,
        "trap_kind": state.trap.kind,
        "interaction_density_integral": state.interaction_density_integral(),
        "norm_error": state.norm_error(),
        "boundary_ratio": state.boundary_ratio,
        "energy_trace_max_increase": max_increase,
        "solver_tol": solver["tol"],
    }
    aux = {}
    if solver["dump_phi"]:
        # a byte view, no copy of the grid: len is the byte count
        aux["phi.f64"] = memoryview(np.asarray(state.phi, dtype="<f8")).cast("B")
        aux["phi_grid.json"] = dump_json({
            "lo": state.grid.lo, "extent": state.grid.extent,
            "points": state.grid.points, "order": "row-major", "dtype": "<f8",
        })
    return report, aux


def run_manybody(c: dict):
    from .manybody import localization_profile, prepare_pipeline, solve_instance

    problem, solver = c["problem"], c["solver"]
    N, a, g, loc = solver["N"], solver["a"], solver["g"], solver["localization"]
    setup = prepare_pipeline(problem.trap, problem.pair_potential, g, problem.grid,
                             solver["max_quanta"], a_max=a)
    ground, report_metrics, rayleigh = solve_instance(setup, N, a)
    report = {
        "kind": "manybody",
        "N": N, "a": a, "g": g,
        "E_qm": ground.energy,
        "E_qm_per_N": ground.energy / N,
        "E_gp": setup.gp.energy_total,
        "eigen_residual": ground.residual,
        "mode_count": setup.basis.size,
        "fock_dimension": ground.ham.fock.full_size,
        "natural_occupation_sum": float(ground.natural_occupations.sum()),
        "rayleigh_per_N": rayleigh,
        "metrics": asdict(report_metrics) | {
            "momentum_coverage_warning": report_metrics.momentum_coverage < 0.999},
        "substituted_potential": setup.substituted,
        "kinetic_fraction_s": setup.s,
    }
    if loc is not None:
        prof = localization_profile(ground, setup.gp, radii=loc["radii"],
                                    samples=loc["samples"], seed=c["seed"])
        report["localization"] = asdict(prof)
    return report, {}


def run_sweep(c: dict):
    from .manybody import gp_limit_sweep

    problem, solver = c["problem"], c["solver"]
    result = gp_limit_sweep(problem.trap, problem.pair_potential, g=solver["g"],
                            N_list=solver["N_list"], max_quanta=solver["max_quanta"],
                            grid=problem.grid, gp_grid=solver["gp_grid"])
    report = {
        "kind": "sweep",
        "rows": list(result.rows),
        "s": result.s,
        "base_scattering_length": result.base_scattering_length,
        "E_gp": result.gp_energy,
        "substituted_potential": result.substituted_potential,
    }
    return report, {"sweep.csv": result.to_csv()}


def load_phi_dump(raw: bytes, sidecar: bytes):
    """The checked grid and phi array of a mean-field dump, from its bytes."""
    try:
        meta = json.loads(sidecar.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read mean-field dump: {exc}", field="solver.weight")
    if not isinstance(meta, dict) or not {"lo", "extent", "points"} <= set(meta):
        raise ConfigError("grid sidecar needs lo, extent and points", field="solver.weight")
    # the layout run_gp writes, the only one read; a sidecar may leave it out
    for key, layout in (("dtype", "<f8"), ("order", "row-major")):
        if meta.get(key, layout) != layout:
            raise ConfigError(f"grid sidecar {key} {meta[key]!r} is not {layout!r}",
                              field="solver.weight")
    grid = grid_from_config({k: meta[k] for k in ("lo", "extent", "points")},
                            where="solver.weight.grid")
    if len(raw) != 8 * math.prod(grid.points):
        raise ConfigError(f"dump holds {len(raw)} bytes, its grid needs "
                          f"{8 * math.prod(grid.points)}", field="solver.weight")
    phi = np.frombuffer(raw, dtype="<f8").reshape(grid.points)
    bad = phi.size - np.count_nonzero(np.isfinite(phi))
    if bad:
        raise ConfigError(f"dump holds {bad} NaN or infinite values", field="solver.weight")
    return grid, phi


def run_poincare(c: dict):
    solver = c["solver"]
    trials = solver["trials"]
    region_kind, region_fields = solver["region"]
    region = getattr(Region, region_kind)(**region_fields)
    est = estimate_constant(region, trials=trials, seed=c["seed"])
    report = {
        "kind": "poincare",
        "C_star": est.c_star,
        "worst_trial": est.worst_trial,
        "holds_all": est.holds_all,
        "trials": est.trials,
        "dimension": region.m,
        "region_kind": region.kind,
    }
    weight_kind, dump = solver["weight"]
    if weight_kind == "gp_dump":
        dump_grid, phi = dump["loaded"]
        w = multilinear_interpolate(dump_grid, phi, region.grid.axes, field="solver.weight") ** 2
        report["weighted"] = weighted_estimate(region, w, est.c_star,
                                               trials=min(trials, 200), seed=c["seed"] + 1)
    return report, {}


_RUNNERS = {
    "scattering": run_scattering,
    "gp": run_gp,
    "manybody": run_manybody,
    "sweep": run_sweep,
    "poincare": run_poincare,
}


# ---------------------------------------------------------------------------
# run orchestration: locking, caching, manifests
# ---------------------------------------------------------------------------

class _DirLock:
    """Exclusive ``.lock`` file holding the owner's pid, hard-linked from a
    private file that holds the pid already, so it never exists without it.
    A lock whose pid is no longer alive is left over from a killed run and is
    reclaimed; a live holder or an unreadable lock refuses the run."""

    def __init__(self, directory: Path):
        self.path = directory / ".lock"

    def __enter__(self):
        fd, own = tempfile.mkstemp(prefix=".lock-", dir=self.path.parent)
        try:
            os.write(fd, str(os.getpid()).encode())
            while True:
                try:
                    os.link(own, self.path)
                    return self
                except FileExistsError:
                    if not self._holder_dead():
                        raise ConfigError(
                            f"output directory is locked by another run ({self.path})")
                    self.path.unlink(missing_ok=True)
        finally:
            os.close(fd)
            os.unlink(own)

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except OSError:
            pass

    def _holder_dead(self) -> bool:
        try:
            pid = int(self.path.read_text())
            if pid > 0:
                os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError):   # unreadable, or alive under another user
            pass
        return False


@lru_cache(maxsize=1)
def code_digest() -> str:
    """sha256 of the package's source, every .py file in path order.  It is
    computed on the first call (not at import) and kept for the process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read_inputs(c: dict) -> dict:
    """sha256 of each file a run reads besides its config, by path: the phi
    array and grid sidecar of a poincare run's ``gp_dump`` weight.  ``c`` is
    the parsed config.  Each is read once; the dump is checked and its (grid,
    phi) put in the weight block as ``loaded`` for the run, once the dump
    covers the region's grid (its corner nodes, as ``TrapSpec.check_grid``)."""
    if c["experiment"] != "poincare" or c["solver"]["weight"][0] != "gp_dump":
        return {}
    dump = c["solver"]["weight"][1]
    try:
        raw = {path: Path(path).read_bytes() for path in (dump["phi"], dump["grid"])}
    except OSError as exc:
        raise ConfigError(f"cannot read input file: {exc}", field="solver.weight") from None
    dump["loaded"] = dump_grid, phi = load_phi_dump(raw[dump["phi"]], raw[dump["grid"]])
    kind, f = c["solver"]["region"]
    grid = Region.bounding_grid(kind, f[_REGION_SIZE[kind]], f["points"], f["dimension"])
    multilinear_interpolate(dump_grid, phi, [x[[0, -1]] for x in grid.axes], field="solver.weight")
    return {path: hashlib.sha256(data).hexdigest() for path, data in raw.items()}


def execute(config: dict, out_dir, force: bool = False) -> Path:
    """Run (or reuse) the experiment; returns the report path.

    A cached run is served only when its manifest records this code, this
    numpy and the same content of every input file the config names.  An
    OSError while taking the lock or writing the run's files is a
    ConfigError on ``out`` (exit 2), and leaves no lock or ``.tmp`` file."""
    out = Path(out_dir)
    cfg_hash = canonical_hash(config)
    parsed = validate(config)
    identity = {"code_digest": code_digest(), "numpy_version": np.__version__,
                "inputs": _read_inputs(parsed)}
    run_dir = out / "runs" / cfg_hash[:16]
    try:
        run_dir.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}", field="out") from None
    report_path = run_dir / "report.json"
    stored = _stored(run_dir / "manifest.json")
    if (not force and _stored(report_path).get("artifact_version") == __version__
            and all(stored.get(key) == value for key, value in identity.items())):
        return report_path
    with _output_errors(), _DirLock(out):
        started = time.monotonic()
        try:
            report, aux = _RUNNERS[config["experiment"]](parsed)
            bad = _non_finite(report, "report")
            if bad:
                raise SolverFailureError("report holds NaN or infinite numbers", fields=bad)
        except SolverFailureError as exc:
            run_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(run_dir / "failure.json", dump_json({
                "error": str(exc),
                "diagnostics": {key: repr(value) if isinstance(value, float)
                                and not math.isfinite(value) else value
                                for key, value in exc.diagnostics.items()},
                "config_hash": cfg_hash,
                "artifact_version": __version__,
                "experiment": config["experiment"],
            }).encode())
            raise
        wall = time.monotonic() - started
        report["artifact_version"] = __version__
        report["config_hash"] = cfg_hash
        report["seed"] = parsed["seed"]
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "failure.json").unlink(missing_ok=True)
        _atomic_write(report_path, dump_json(report).encode())
        for name, content in aux.items():
            data = content.encode() if isinstance(content, str) else content
            _atomic_write(run_dir / name, data)
        manifest = {
            "config_hash": cfg_hash,
            "seed": parsed["seed"],
            "wall_time_s": wall,
            "artifact_version": __version__,
            **identity,
            "experiment": config["experiment"],
            "config": config,
        }
        _atomic_write(run_dir / "manifest.json", dump_json(manifest).encode())
    return report_path


@contextmanager
def _output_errors():
    """An OSError inside (no space, no permission) is a fault of the output
    directory, not of the solve: a ConfigError on ``out``, which exits 2."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write the run's files: {exc}", field="out") from None


def _stored(path: Path) -> dict:
    """A stored JSON object; empty when missing, unreadable or not an object."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):
        return {}
    return doc if isinstance(doc, dict) else {}


def _atomic_write(path: Path, data):
    """Write ``data`` (bytes or a byte view) to ``path`` through a ``.tmp``
    file, so ``path`` holds either the old content or all of the new."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# verification of stored reports
# ---------------------------------------------------------------------------

def _check(ok: bool, name: str, detail: str, failures: list):
    line = f"{'ok  ' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    if not ok:
        failures.append(name)


def _verify_gp(rep: dict, failures: list):
    comp = rep["components"]
    total = comp["kinetic"] + comp["potential"] + comp["interaction"]
    _check(abs(total - rep["E_GP"]) <= 1e-10 * max(1.0, abs(rep["E_GP"])),
           "gp.component_sum", f"K+P+I={total!r} vs E={rep['E_GP']!r}", failures)
    _check(abs(rep["mu"] - rep["E_GP"] - comp["interaction"]) <= 1e-10 * max(1.0, abs(rep["mu"])),
           "gp.chemical_potential", "mu = E + interaction", failures)
    _check(rep["residual"] <= rep["solver_tol"] * 1.0000001,
           "gp.residual", f"{rep['residual']!r} <= {rep['solver_tol']!r}", failures)
    _check(rep["norm_error"] <= 1e-10, "gp.normalization",
           f"|int phi^2 - 1| = {rep['norm_error']!r}", failures)
    _check(rep["energy_trace_max_increase"] <= 1e-12, "gp.energy_monotone",
           f"max step increase {rep['energy_trace_max_increase']!r}", failures)
    if rep["trap_kind"] == "harmonic":
        d = rep["dimension"]
        vir = (2 * comp["kinetic"] - 2 * comp["potential"]
               + (3 if d == 3 else 2) * comp["interaction"])
        _check(abs(vir) <= 5e-3 * rep["E_GP"], "gp.virial",
               f"|2K-2P+{3 if d == 3 else 2}I| = {abs(vir)!r}", failures)
        _check(rep["boundary_ratio"] <= 1e-8, "gp.decay",
               f"boundary/peak = {rep['boundary_ratio']!r}", failures)


def _verify_scattering(rep: dict, failures: list):
    a, s = rep["a"], rep["s"]
    if s is not None and a > 0:
        _check(0.0 < s <= a * (1 + 1e-8), "scattering.kinetic_fraction_bound",
               f"0 < s={s!r} <= a={a!r}", failures)
    phi = np.asarray(rep["phi1_samples"]["phi1"])
    r = np.asarray(rep["phi1_samples"]["r"])
    _check(bool((phi >= -1e-12).all()), "scattering.phi_nonnegative",
           f"min phi1 = {float(phi.min())!r}", failures)
    tail = 1.0 - a / float(r[-1])
    _check(abs(float(phi[-1]) - tail) <= 1e-6 * max(1.0, abs(tail)),
           "scattering.asymptotics",
           f"phi1(r_max)={float(phi[-1])!r} vs 1-a/r={tail!r}", failures)


def _verify_metric_block(m: dict, N: int, tag: str, failures: list):
    _check(-1e-10 <= m["condensate_fraction"] <= 1 + 1e-10,
           f"{tag}.condensate_fraction_range", repr(m["condensate_fraction"]), failures)
    _check(m["gp_overlap"] <= m["condensate_fraction"] + 1e-10,
           f"{tag}.overlap_below_fraction", repr(m["gp_overlap"]), failures)
    _check(-1e-12 <= m["trace_distance"] <= 2 + 1e-10,
           f"{tag}.trace_distance_range", repr(m["trace_distance"]), failures)
    _check(m["momentum_l1"] <= m["trace_distance"] + 1e-6,
           f"{tag}.momentum_dominated",
           f"L1={m['momentum_l1']!r} <= T={m['trace_distance']!r}+1e-6", failures)
    if N >= 2:
        _check(m["pair_moment"] <= 1 + 1e-10, f"{tag}.pair_moment_upper",
               repr(m["pair_moment"]), failures)
        _check(m["pair_moment"] >= m["gp_overlap"] ** 2 - 2.0 / N - 1e-10,
               f"{tag}.pair_moment_chain",
               f"{m['pair_moment']!r} >= {m['gp_overlap']!r}^2 - 2/{N}", failures)


def _verify_manybody(rep: dict, failures: list):
    _verify_metric_block(rep["metrics"], rep["N"], "manybody", failures)
    _check(abs(rep["natural_occupation_sum"] - 1.0) <= 1e-8,
           "manybody.occupation_sum", repr(rep["natural_occupation_sum"]), failures)
    _check(rep["E_qm_per_N"] <= rep["rayleigh_per_N"] + 1e-10,
           "manybody.variational_bound",
           f"{rep['E_qm_per_N']!r} <= {rep['rayleigh_per_N']!r}", failures)
    if rep.get("localization") and rep["localization"]["fractions"] is not None:
        loc = rep["localization"]    # the trend runs in the radius, not in config order
        fr = [f for _, f in sorted(zip(loc["radii"], loc["fractions"]))]
        _check(all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1)),
               "manybody.localization_monotone", repr(fr), failures)


def _verify_sweep(rep: dict, failures: list):
    rows = sorted(rep["rows"], key=lambda row: row["N"])    # the trends run in N
    for row in rows:
        _verify_metric_block(row, row["N"], f"sweep.N{row['N']}", failures)
        _check(row["E_qm_per_N"] <= row["rayleigh_per_N"] + 1e-10,
               f"sweep.N{row['N']}.variational_bound",
               f"{row['E_qm_per_N']!r} <= {row['rayleigh_per_N']!r}", failures)
        pred = row["kin_pred"] + row["pot_pred"] + row["int_pred"]
        _check(abs(pred - row["E_gp"]) <= 1e-12 * max(1.0, abs(row["E_gp"])),
               f"sweep.N{row['N']}.prediction_sum", f"{pred!r} vs {row['E_gp']!r}", failures)
    td = [row["trace_distance"] for row in rows]
    _check(all(td[i + 1] <= td[i] + 1e-12 for i in range(len(td) - 1)),
           "sweep.trace_distance_trend", repr(td), failures)
    gap = [abs(row["E_qm_per_N"] - row["E_gp"]) for row in rows]
    _check(all(gap[i + 1] <= gap[i] + 1e-12 for i in range(len(gap) - 1)),
           "sweep.energy_gap_trend", repr(gap), failures)


def _verify_poincare(rep: dict, failures: list):
    _check(bool(rep["holds_all"]), "poincare.holds_all", repr(rep["holds_all"]), failures)
    _check(rep["C_star"] > 0 and math.isfinite(rep["C_star"]),
           "poincare.constant_finite", repr(rep["C_star"]), failures)
    if rep.get("weighted"):
        _check(bool(rep["weighted"]["holds_all"]), "poincare.weighted_holds",
               repr(rep["weighted"]["holds_all"]), failures)


_VERIFIERS = {
    "gp": _verify_gp,
    "scattering": _verify_scattering,
    "manybody": _verify_manybody,
    "sweep": _verify_sweep,
    "poincare": _verify_poincare,
}


def verify(paths) -> int:
    failures = []
    for path in paths:
        try:
            rep = json.loads(Path(path).read_text(encoding="utf-8"),
                             parse_constant=_reject_constant)
        except (OSError, ValueError, RecursionError) as exc:
            raise IntegrityError(f"{path}: unreadable report ({exc})")
        kind = rep.get("kind") if isinstance(rep, dict) else None
        if not isinstance(kind, str) or kind not in _VERIFIERS:
            raise IntegrityError(f"{path}: not a report of a known kind ({reprlib.repr(rep)})")
        if rep.get("artifact_version") != __version__:
            raise IntegrityError(
                f"{path}: report version {reprlib.repr(rep.get('artifact_version'))} "
                f"does not match artifact {__version__!r}")
        print(f"verifying {path} [{kind}]")
        try:
            _VERIFIERS[kind](rep, failures)
        except KeyError as exc:
            raise IntegrityError(f"{path}: missing field {exc}")
        except (TypeError, ValueError, IndexError, ArithmeticError) as exc:
            raise IntegrityError(f"{path}: malformed report ({type(exc).__name__}: {exc})")
    if failures:
        print(f"{len(failures)} invariant(s) failed")
        return EXIT_VERIFY
    print("all invariants hold")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    import argparse     # here, not at module level: only the command line needs it
    parser = argparse.ArgumentParser(prog="bec-lab",
                                     description="dilute trapped Bose gas laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SOLVERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="strict JSON configuration")
        p.add_argument("--out", default="bec-lab-out", help="output directory")
        p.add_argument("--force", action="store_true", help="ignore cached results")
        p.add_argument("--seed", type=int, default=None)
    v = sub.add_parser("verify", help="re-check invariants of stored reports")
    v.add_argument("reports", nargs="+", help="report.json paths")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return verify(args.reports)
        config = load_config(args.config, args.command, {"seed": args.seed})
        path = execute(config, args.out, force=args.force)
        print(path)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        for key, value in exc.diagnostics.items():
            print(f"  {key} = {value!r}", file=sys.stderr)
        return EXIT_SOLVER
    except BecLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
