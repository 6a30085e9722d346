"""Command line driver: run experiments from strict JSON configs.

Surface:

    bec-lab <scattering|gp|manybody|sweep|poincare> --config FILE
            [--out DIR] [--force] [--reproducible] [--seed N]
    bec-lab verify REPORT [REPORT ...]

Runs are content-addressed: the canonical serialization of the full
configuration is hashed, results live under ``<out>/runs/<hash>/`` and a
rerun with an unchanged hash is served from cache unless forced or the
cached report was made by another version.  With the reproducible flag
the report bytes are identical run to run.  A solver failure writes no
report; its diagnostics go to stderr and to ``failure.json`` in the run
directory.  Exit codes: 0 success, 2 configuration error, 3 solver
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BecLabError, ConfigError, IntegrityError,
                     SolverFailureError, VerificationError)
from .gp import coupling_2d, coupling_3d, minimize_gp
from .model import (Grid, _require_keys, grid_from_config,
                    multilinear_interpolate)
from .poincare import Region, estimate_constant, weighted_check
from .scattering import solve_zero_energy

EXPERIMENTS = ("scattering", "gp", "manybody", "sweep", "poincare")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_config(path, experiment: str, overrides: dict) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="config")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", field="config")
    _require_keys(doc, {"experiment", "problem", "solver", "seed",
                        "reproducible", "output"}, {"experiment"}, "config")
    if doc["experiment"] != experiment:
        raise ConfigError(
            f"config is for experiment {doc['experiment']!r}, command ran {experiment!r}",
            field="config.experiment")
    config = {
        "experiment": experiment,
        "problem": doc.get("problem", {}),
        "solver": doc.get("solver", {}),
        "seed": int(doc.get("seed", 0)),
        "reproducible": bool(doc.get("reproducible", True)),
        "output": doc.get("output"),
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    _validate_solver(experiment, config["solver"])
    return config


_SOLVER_KEYS = {
    "scattering": ({"r_max", "tol"}, set()),
    "gp": ({"g", "N", "a", "tol", "max_iter", "dump_phi"}, set()),
    "manybody": ({"N", "g", "a", "max_quanta", "dimension_cap", "localization"}, {"N"}),
    "sweep": ({"g", "N_list", "max_quanta", "dimension_cap", "gp_grid", "gp_tol"},
              {"g", "N_list"}),
    "poincare": ({"region", "trials", "weight"}, {"region"}),
}


def _validate_solver(experiment: str, solver: dict):
    if not isinstance(solver, dict):
        raise ConfigError("solver must be an object", field="solver")
    allowed, required = _SOLVER_KEYS[experiment]
    _require_keys(solver, allowed, required, "solver")
    if experiment == "gp" and "g" not in solver and not {"N", "a"} <= set(solver):
        raise ConfigError("gp needs either g or both N and a", field="solver")
    if experiment == "manybody" and "g" not in solver and "a" not in solver:
        raise ConfigError("manybody needs g or a", field="solver")
    if "localization" in solver:
        loc = solver["localization"]
        if not isinstance(loc, dict):
            raise ConfigError("localization must be an object", field="solver.localization")
        _require_keys(loc, {"radii", "samples"}, {"radii"}, "solver.localization")


def canonical_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _plain(obj):
    """Recursively convert numpy scalars/arrays so JSON output is canonical."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# experiment runners: config -> (report dict, auxiliary files)
# ---------------------------------------------------------------------------

def run_scattering(config: dict):
    from .model import problem_from_config

    problem = problem_from_config(config["problem"])
    if problem.pair_potential is None:
        raise ConfigError("scattering needs problem.pair_potential", field="problem")
    solver = config["solver"]
    sol = solve_zero_energy(problem.pair_potential,
                            r_max=float(solver.get("r_max", 50.0)),
                            tol=float(solver.get("tol", 1e-9)))
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


def _solver_number(solver: dict, key: str, default=None, integer: bool = False):
    """A finite JSON number from the solver block: an int when ``integer``
    is set, else a float.  Booleans, strings, NaN and infinities are refused.
    """
    value = solver.get(key, default)
    kinds = int if integer else (int, float)
    if isinstance(value, kinds) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value if integer else float(value)
        except OverflowError:       # an integer beyond the float range
            pass
    kind = "integer" if integer else "number"
    raise ConfigError(f"must be a finite {kind}, got {value!r}", field=f"solver.{key}")


def _gp_coupling(solver: dict, dimension: int) -> float:
    if "g" in solver:
        return _solver_number(solver, "g")
    N = _solver_number(solver, "N", integer=True)
    a = _solver_number(solver, "a")
    return coupling_2d(N, a) if dimension == 2 else coupling_3d(N, a)


def run_gp(config: dict):
    from .model import problem_from_config

    problem = problem_from_config(config["problem"])
    if problem.trap is None or problem.grid is None:
        raise ConfigError("gp needs problem.trap and problem.grid", field="problem")
    solver = config["solver"]
    g = _gp_coupling(solver, problem.trap.dimension)
    tol = _solver_number(solver, "tol", 1e-8)
    state = minimize_gp(problem.trap, g, problem.grid, tol=tol,
                        max_iter=_solver_number(solver, "max_iter", 5000, integer=True))
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
        "solver_tol": tol,
    }
    aux = {}
    if solver.get("dump_phi"):
        aux["phi.f64"] = state.phi.astype("<f8").tobytes()
        aux["phi_grid.json"] = dump_json({
            "lo": state.grid.lo, "extent": state.grid.extent,
            "points": state.grid.points, "order": "row-major", "dtype": "<f8",
        })
    return report, aux


def run_manybody(config: dict):
    from .model import problem_from_config, scale_pair_potential
    from .manybody import (build_mode_basis, condensate_metrics, ground_state,
                           hartree_energy, localization_profile)
    from .manybody.basis import FockBasis
    from .manybody.ground import PairOpHamiltonian
    from .manybody.metrics import expand_reference
    from .manybody.tensor import interaction_tensor
    from .scattering import hard_sphere_substitute

    problem = problem_from_config(config["problem"])
    if problem.trap is None or problem.grid is None or problem.pair_potential is None:
        raise ConfigError("manybody needs trap, grid, and pair_potential", field="problem")
    solver = config["solver"]
    N = int(solver["N"])
    base = problem.pair_potential
    substituted = None
    if base.has_hard_core:
        sub = hard_sphere_substitute(base.core)
        substituted = {"height": sub.height, "radius": sub.radius}
        base = sub

    scat = solve_zero_energy(base, r_max=max(80.0, 6 * base.range))
    if "a" in solver:
        a = float(solver["a"])
        g = coupling_3d(N, a)
    else:
        g = float(solver["g"])
        a = g / (4.0 * math.pi * N)
    v = scale_pair_potential(base, a / scat.a) if scat.a > 0 else base

    basis = build_mode_basis(problem.trap, problem.grid,
                             int(solver.get("max_quanta", 3)))
    tensor = interaction_tensor(basis, v)
    cap = int(solver.get("dimension_cap", 200_000))
    fock = FockBasis.build(N, basis.size, dimension_cap=cap)
    ham = PairOpHamiltonian(basis, tensor, fock)
    ground = ground_state(basis, tensor, N, a=a, g=g, ham=ham)
    gp_state = minimize_gp(problem.trap, g, problem.grid)
    reference = expand_reference(gp_state, basis)
    c_ref = reference[0]
    report_metrics = condensate_metrics(ground, gp_state, basis, ham=ham,
                                        reference=reference)

    report = {
        "kind": "manybody",
        "N": N, "a": a, "g": g,
        "E_qm": ground.energy,
        "E_qm_per_N": ground.energy / N,
        "E_gp": gp_state.energy_total,
        "eigen_residual": ground.residual,
        "mode_count": basis.size,
        "fock_dimension": fock.size,
        "natural_occupation_sum": float(ground.natural_occupations.sum()),
        "rayleigh_per_N": hartree_energy(basis, tensor, N, c_ref) / N,
        "metrics": {
            "condensate_fraction": report_metrics.condensate_fraction,
            "gp_overlap": report_metrics.gp_overlap,
            "trace_distance": report_metrics.trace_distance,
            "momentum_l1": report_metrics.momentum_l1,
            "pair_moment": report_metrics.pair_moment,
            "truncation_weight": report_metrics.truncation_weight,
            "momentum_coverage": report_metrics.momentum_coverage,
            "momentum_coverage_warning": report_metrics.momentum_coverage < 0.999,
        },
        "substituted_potential": substituted,
        "kinetic_fraction_s": None if scat.s is None else scat.s / scat.a,
    }
    if "localization" in solver:
        loc_cfg = solver["localization"]
        prof = localization_profile(ground, gp_state, basis,
                                    radii=loc_cfg["radii"],
                                    samples=int(loc_cfg.get("samples", 64)),
                                    seed=config["seed"])
        report["localization"] = {
            "radii": prof.radii,
            "fractions": prof.fractions,
            "total_energy": prof.total_energy,
            "samples": prof.samples,
            "seed": prof.seed,
            "excluded_points": prof.excluded_points,
        }
    return report, {}


def run_sweep(config: dict):
    from .model import problem_from_config
    from .manybody import gp_limit_sweep

    problem = problem_from_config(config["problem"])
    if problem.trap is None or problem.grid is None or problem.pair_potential is None:
        raise ConfigError("sweep needs trap, grid, and pair_potential", field="problem")
    solver = config["solver"]
    gp_grid = grid_from_config(solver["gp_grid"], problem.trap) if "gp_grid" in solver else None
    result = gp_limit_sweep(problem.trap, problem.pair_potential,
                            g=float(solver["g"]),
                            N_list=solver["N_list"],
                            max_quanta=int(solver.get("max_quanta", 3)),
                            grid=problem.grid, gp_grid=gp_grid,
                            dimension_cap=int(solver.get("dimension_cap", 200_000)),
                            gp_tol=float(solver.get("gp_tol", 1e-8)))
    report = {
        "kind": "sweep",
        "rows": list(result.rows),
        "s": result.s,
        "base_scattering_length": result.base_scattering_length,
        "E_gp": result.gp_energy,
        "substituted_potential": result.substituted_potential,
    }
    return report, {"sweep.csv": result.to_csv()}


def _region_from_config(doc: dict) -> Region:
    if not isinstance(doc, dict):
        raise ConfigError("region must be an object", field="solver.region")
    kind = doc.get("kind")
    if kind == "box":
        _require_keys(doc, {"kind", "side", "points", "dimension"},
                      {"kind", "side", "points"}, "solver.region")
        return Region.box(doc["side"], int(doc["points"]), int(doc.get("dimension", 3)))
    if kind == "ball":
        _require_keys(doc, {"kind", "radius", "points", "dimension"},
                      {"kind", "radius", "points"}, "solver.region")
        return Region.ball(float(doc["radius"]), int(doc["points"]), int(doc.get("dimension", 3)))
    raise ConfigError(f"unknown region kind {kind!r}", field="solver.region.kind")


def load_phi_dump(phi_path, sidecar_path):
    try:
        meta = json.loads(Path(sidecar_path).read_text())
        raw = Path(phi_path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read mean-field dump: {exc}", field="solver.weight")
    grid = Grid(tuple(meta["lo"]), tuple(meta["extent"]), tuple(meta["points"]))
    phi = np.frombuffer(raw, dtype="<f8").reshape(grid.points)
    return grid, phi


def run_poincare(config: dict):
    solver = config["solver"]
    region = _region_from_config(solver["region"])
    trials = int(solver.get("trials", 200))
    est = estimate_constant(region, trials=trials, seed=config["seed"])
    report = {
        "kind": "poincare",
        "C_star": est.c_star,
        "worst_trial": est.worst_trial,
        "holds_all": est.holds_all,
        "trials": est.trials,
        "dimension": region.m,
        "region_kind": region.kind,
    }
    weight_cfg = solver.get("weight", {"kind": "constant"})
    _require_keys(weight_cfg, {"kind", "phi", "grid"}, {"kind"}, "solver.weight")
    if weight_cfg["kind"] == "gp_dump":
        dump_grid, phi = load_phi_dump(weight_cfg["phi"], weight_cfg["grid"])
        mesh = np.meshgrid(*region.grid.axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        w = multilinear_interpolate(dump_grid, phi, pts, field="solver.weight") ** 2
        w = np.maximum(w, 0.0)
        ratio = float(w[region.mask].max() / max(w[region.mask].min(), 1e-300))
        c_prime = est.c_star * ratio**2
        rng = np.random.default_rng(config["seed"] + 1)
        from .poincare import PoincareInstance, _random_field, _random_omega

        worst = None
        all_hold = True
        for _ in range(min(trials, 200)):
            f = _random_field(rng, region)
            omega, desc = _random_omega(rng, region)
            inst = PoincareInstance.build(region, omega, f, description=desc)
            res = weighted_check(inst, w, c_prime)
            all_hold &= res["holds"]
            margin = res["lhs"] - res["rhs"]
            if worst is None or margin < worst["margin"]:
                worst = {"margin": margin, **desc}
        report["weighted"] = {
            "C_prime": c_prime,
            "weight_ratio": ratio,
            "holds_all": bool(all_hold),
            "worst_trial": worst,
        }
    elif weight_cfg["kind"] != "constant":
        raise ConfigError("weight kind must be constant or gp_dump", field="solver.weight")
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
    def __init__(self, directory: Path):
        self.path = directory / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory is locked by another run ({self.path})")
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except OSError:
            pass


def execute(config: dict, out_dir, force: bool = False) -> Path:
    """Run (or reuse) the experiment; returns the report path."""
    out = Path(out_dir or config.get("output") or "bec-lab-out")
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = canonical_hash(config)
    run_dir = out / "runs" / cfg_hash[:16]
    report_path = run_dir / "report.json"
    if not force and _report_version(report_path) == __version__:
        return report_path
    with _DirLock(out):
        started = time.monotonic()
        try:
            report, aux = _RUNNERS[config["experiment"]](config)
        except SolverFailureError as exc:
            run_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(run_dir / "failure.json", dump_json({
                "error": str(exc),
                "diagnostics": exc.diagnostics,
                "config_hash": cfg_hash,
                "artifact_version": __version__,
                "experiment": config["experiment"],
            }).encode())
            raise
        wall = time.monotonic() - started
        report["artifact_version"] = __version__
        report["config_hash"] = cfg_hash
        report["seed"] = config["seed"]
        report["reproducible"] = config["reproducible"]
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "failure.json").unlink(missing_ok=True)
        _atomic_write(report_path, dump_json(report).encode())
        for name, content in aux.items():
            data = content if isinstance(content, bytes) else content.encode()
            _atomic_write(run_dir / name, data)
        manifest = {
            "config_hash": cfg_hash,
            "seed": config["seed"],
            "wall_time_s": wall,
            "artifact_version": __version__,
            "experiment": config["experiment"],
            "config": config,
        }
        _atomic_write(run_dir / "manifest.json", dump_json(manifest).encode())
    return report_path


def _report_version(path: Path):
    """artifact_version of a stored report; None when missing or unreadable."""
    try:
        rep = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return rep.get("artifact_version") if isinstance(rep, dict) else None


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


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
        fr = rep["localization"]["fractions"]
        _check(all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1)),
               "manybody.localization_monotone", repr(fr), failures)


def _verify_sweep(rep: dict, failures: list):
    rows = rep["rows"]
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
            rep = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"{path}: unreadable report ({exc})")
        kind = rep.get("kind")
        if kind not in _VERIFIERS:
            raise IntegrityError(f"{path}: unknown report kind {kind!r}")
        if rep.get("artifact_version") != __version__:
            raise IntegrityError(
                f"{path}: report version {rep.get('artifact_version')!r} "
                f"does not match artifact {__version__!r}")
        print(f"verifying {path} [{kind}]")
        try:
            _VERIFIERS[kind](rep, failures)
        except KeyError as exc:
            raise IntegrityError(f"{path}: missing field {exc}")
    if failures:
        print(f"{len(failures)} invariant(s) failed")
        return EXIT_VERIFY
    print("all invariants hold")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bec-lab",
                                     description="dilute trapped Bose gas laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="strict JSON configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--force", action="store_true", help="ignore cached results")
        p.add_argument("--reproducible", action="store_true", default=None,
                       help="force deterministic seeding and byte-stable reports")
        p.add_argument("--seed", type=int, default=None)
    v = sub.add_parser("verify", help="re-check invariants of stored reports")
    v.add_argument("reports", nargs="+", help="report.json paths")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return verify(args.reports)
        config = load_config(args.config, args.command, {
            "seed": args.seed,
            "reproducible": args.reproducible,
        })
        path = execute(config, args.out, force=args.force)
        print(path)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrityError, VerificationError) as exc:
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
