import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beclab as bl
from beclab import __version__, cli, hard_sphere_substitute
from beclab.cli import (CONFIGS, canonical_hash, dump_json, execute, load_config, load_phi_dump,
                        main, run_gp, validate, verify)
from beclab.errors import ConfigError, InvalidParameterError
from beclab.manybody import sweep
from beclab.model import (MAX_GRID_NODES, MAX_SAMPLES, grid_from_config,
                          pair_potential_from_config, problem_from_config, trap_from_config)

REPO = Path(__file__).resolve().parents[1]


def small_gp_config(**overrides):
    cfg = {
        "experiment": "gp",
        "problem": {
            "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
            "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
        },
        "solver": {"g": 1.0, "tol": 1e-08, "max_iter": 5000},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_gp_run_and_cache(tmp_path):
    cfg = small_gp_config()
    out = tmp_path / "out"
    path1 = execute(cfg, out)
    rep = json.loads(path1.read_text())
    assert rep["kind"] == "gp"
    assert rep["E_GP"] == pytest.approx(3.0617825, abs=1e-4)
    first_bytes = path1.read_bytes()
    # second run is served from cache: same path, same bytes
    path2 = execute(cfg, out)
    assert path2 == path1 and path2.read_bytes() == first_bytes
    # forced regeneration reproduces the bytes exactly
    path3 = execute(cfg, out, force=True)
    assert path3.read_bytes() == first_bytes


def test_cache_recomputes_report_of_other_version(tmp_path):
    cfg = small_gp_config()
    out = tmp_path / "out"
    path = execute(cfg, out)
    fresh = path.read_bytes()
    stale = json.loads(fresh)
    stale["artifact_version"] = "0.0.0"
    path.write_text(json.dumps(stale))
    assert execute(cfg, out) == path
    assert json.loads(path.read_text())["artifact_version"] == __version__
    assert path.read_bytes() == fresh


def test_cached_report_too_deep_to_parse_is_rerun(tmp_path, capsys):
    args = ["scattering", "--config", str(REPO / "configs/scattering_soft_sphere.json"),
            "--out", str(tmp_path / "o")]
    assert main(args) == 0
    [path] = (tmp_path / "o").glob("runs/*/report.json")
    fresh = path.read_bytes()
    path.write_bytes(b"[" * 100_000)
    assert main(args) == 0
    assert path.read_bytes() == fresh


@pytest.mark.parametrize("solver", [
    {"g": "x"}, {"g": float("nan")}, {"g": float("inf")}, {"g": float("-inf")},
    {"g": -1.0}, {"g": True},
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")}, {"tol": float("inf")},
    {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5}, {"max_iter": "10"},
], ids=repr)
def test_bad_gp_solver_input_exits_2(tmp_path, capsys, solver):
    cfg = small_gp_config()
    cfg["solver"] = dict(cfg["solver"], **solver)
    p = write_config(tmp_path, cfg)     # json writes NaN / Infinity literals
    assert main(["gp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and next(iter(solver)) in err


def small_manybody_config(**solver):
    return {
        "experiment": "manybody",
        "problem": {
            "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
            "pair_potential": {"shape": "soft_sphere", "height": 5.0, "radius": 1.1},
            "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
        },
        "solver": {"N": 2, "g": 0.4, "max_quanta": 1, **solver},
        "seed": 1,
    }


def small_sweep_config(**solver):
    return {
        "experiment": "sweep",
        "problem": {
            "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
            "pair_potential": {"shape": "soft_sphere", "height": 0.01,
                               "radius": 8.853088605086427},
            "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
        },
        "solver": {"g": 0.4, "N_list": [2, 3], "max_quanta": 1, **solver},
        "seed": 1,
    }


@pytest.mark.parametrize("experiment,solver", [
    ("manybody", {"N": "2"}), ("manybody", {"N": 0}), ("manybody", {"N": 2.0}),
    ("manybody", {"a": "x"}), ("manybody", {"g": float("nan")}),
    ("manybody", {"max_quanta": "3"}), ("manybody", {"max_quanta": -1}),
    ("manybody", {"dimension_cap": True}), ("manybody", {"dimension_cap": 0}),
    ("manybody", {"localization": {"radii": [1.0], "samples": "64"}}),
    ("manybody", {"localization": {"radii": [1.0], "samples": 0}}),
    ("sweep", {"g": "x"}), ("sweep", {"g": float("inf")}),
    ("sweep", {"N_list": [2, "3"]}), ("sweep", {"N_list": [2.5]}), ("sweep", {"N_list": [0]}),
    ("sweep", {"N_list": "2"}), ("sweep", {"max_quanta": "3"}),
    ("sweep", {"dimension_cap": 1.5}), ("sweep", {"gp_tol": "1e-8"}),
], ids=repr)
def test_bad_manybody_and_sweep_input_exits_2(tmp_path, capsys, experiment, solver):
    make = small_manybody_config if experiment == "manybody" else small_sweep_config
    p = write_config(tmp_path, make(**solver))
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and next(iter(solver)) in err


def small_scattering_config():
    return {
        "experiment": "scattering",
        "problem": {"pair_potential": {"shape": "soft_sphere", "height": 10.0,
                                       "radius": 1.0}},
        "solver": {"r_max": 50.0, "tol": 1e-9},
        "seed": 1,
    }


def small_poincare_config(weight=None):
    return {
        "experiment": "poincare",
        "problem": {},
        "solver": {"region": {"kind": "ball", "radius": 2.0, "points": 16, "dimension": 3},
                   "trials": 5, "weight": weight or {"kind": "constant"}},
        "seed": 3,
    }


SMALL_CONFIGS = {"gp": small_gp_config, "manybody": small_manybody_config,
                 "sweep": small_sweep_config, "scattering": small_scattering_config,
                 "poincare": small_poincare_config}
NAN = float("nan")
# a 4x4x4 tabulated trap covering the small configs' grid
TABLE = {"kind": "tabulated", "lo": [-7, -7, -7], "extent": [14, 14, 14], "points": [4, 4, 4]}


@pytest.mark.parametrize("experiment,path,value", [
    ("manybody", "solver.localization", {"radii": "x"}),
    ("manybody", "solver.localization", {"radii": [0.5, NAN]}),
    ("manybody", "solver.localization", {"radii": [0.5, 0.0]}),
    ("manybody", "solver.localization", {"radii": [1.0, "2"]}),
    ("sweep", "solver.gp_grid", {"extent": ["x", 14, 14], "points": [32, 32, 32]}),
    ("sweep", "solver.gp_grid", {"extent": [14, 14, 14], "points": [32, 32, 32.5]}),
    ("gp", "problem.grid.points", ["abc", 48, 48]),
    ("gp", "problem.grid.extent", [14, 14, "14"]),
    ("gp", "problem.grid.lo", [-7, -7, NAN]),
    ("gp", "problem.trap.stiffness", ["x", 1, 1]),
    ("gp", "problem.trap", {"kind": "box", "side": "x"}),
    ("gp", "problem.trap", {"kind": "box", "side": 1.0, "dimension": "x"}),
    ("gp", "problem.trap", {"kind": "tabulated", "lo": [0, 0, 0], "extent": [1, 1, 1],
                            "points": [4, 4, "x"], "values": [0.0] * 64}),
    ("manybody", "problem.pair_potential.height", "x"),
    ("scattering", "problem.pair_potential.height", NAN),
    ("scattering", "problem.pair_potential.radius", "1"),
    ("scattering", "problem.pair_potential", {"shape": "hard_sphere", "core": NAN}),
    ("scattering", "problem.pair_potential",
     {"shape": "tabulated_radial", "r": ["x", 1.0], "v": [1.0, 0.0]}),
    ("scattering", "solver.r_max", "x"),
    ("scattering", "solver.tol", True),
    ("poincare", "solver.region.points", "abc"),
    ("poincare", "solver.region.radius", "x"),
    ("poincare", "solver.region.dimension", 3.0),
    ("poincare", "solver.region", {"kind": "box", "side": [1.0], "points": 16}),
    ("poincare", "solver.trials", "x"),
    ("poincare", "solver.trials", 0),
    ("poincare", "solver.weight", 5),
    ("poincare", "solver.weight", {"kind": "gp_dump"}),
    ("poincare", "solver.weight", {"kind": "gp_dump", "phi": 5, "grid": "phi_grid.json"}),
    ("gp", "problem.trap", dict(TABLE, values=["x"] + [0.0] * 63)),
    ("gp", "problem.trap", dict(TABLE, values=[NAN] + [0.0] * 63)),
    ("gp", "problem.trap", dict(TABLE, values=[[float("inf")] + [0.0] * 15] * 4)),
    ("gp", "problem.trap", dict(TABLE, values=[0.0] * 63)),
    ("gp", "problem.grid.points", [100000, 100000, 100000]),
    # solver bounds, checked at load rather than inside the solve
    ("gp", "solver.tol", -1),
    ("gp", "solver.max_iter", 0),
    ("gp", "solver.g", -1),
    ("scattering", "solver.tol", 0),
    ("scattering", "solver.r_max", 2.0),    # twice the range 1.0
    ("scattering", "solver.r_max", 1.5),
    # trap, grid and pair-potential bounds
    ("gp", "problem.trap.stiffness", [1.0, -1.0, 1.0]),
    ("gp", "problem.grid.extent", [14, -14, 14]),
    ("gp", "problem.grid.points", [32, 3, 32]),
    ("sweep", "solver.gp_grid", {"extent": [14, -14, 14], "points": [32, 32, 32]}),
    # the interaction tensor takes one spacing on every axis
    ("manybody", "problem.grid", {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 28]}),
    ("sweep", "problem.grid", {"extent": [14.0, 14.0, 12.0], "points": [32, 32, 32]}),
    ("scattering", "problem.pair_potential.radius", -1.0),
    ("scattering", "problem.pair_potential.height", -1.0),
    # a missing key, named by its own path
    ("manybody", "solver.localization", {"samples": 8}),
    # empty lists
    ("sweep", "solver.N_list", []),
    ("manybody", "solver.localization", {"radii": []}),
    # removed keys are refused
    ("gp", "reproducible", True),
    ("gp", "output", None),
    ("sweep", "solver.gp_tol", 1e-8),
], ids=repr)
def test_bad_structured_input_exits_2(tmp_path, capsys, experiment, path, value):
    cfg = SMALL_CONFIGS[experiment]()
    *parents, key = path.split(".")
    doc = cfg
    for name in parents:
        doc = doc[name]
    doc[key] = value
    p = write_config(tmp_path, cfg)     # json writes NaN literals
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}")
    assert not (tmp_path / "o").exists()


def test_config_errors_carry_the_full_path():
    def sidecar(**grid):
        return json.dumps({"lo": [0, 0, 0], "extent": [1, 1, 1], "points": [4, 4, 4],
                           **grid}).encode()

    def gp_from(N, a, dimension):
        return validate(dict(small_gp_config(), solver={"N": N, "a": a}, problem={
            "trap": {"kind": "harmonic", "stiffness": [1.0] * dimension},
            "grid": {"extent": [14.0] * dimension, "points": [32] * dimension}}))
    cases = [
        # bounds of the spec tables
        ("solver.gp_grid.extent[1]", lambda: grid_from_config(
            {"extent": [14, -14, 14], "points": [32, 32, 32]}, where="solver.gp_grid")),
        ("solver.weight.grid.extent[1]", lambda: load_phi_dump(b"", sidecar(extent=[1, -1, 1]))),
        # couplings out of range: a^2 N not dilute, 4 pi N a not finite
        ("solver.a", lambda: gp_from(1, 2.0, 2)),
        ("solver.a", lambda: gp_from(10, 1e308, 3)),
        # errors of the constructors, re-raised under the block's path
        ("solver.gp_grid", lambda: grid_from_config(
            {"extent": [14, 14], "points": [32, 32, 32]}, where="solver.gp_grid")),
        ("solver.weight.grid", lambda: load_phi_dump(b"", sidecar(lo=[0, 0]))),
        ("problem.trap.values", lambda: trap_from_config(
            dict(TABLE, values=[0.0] * 63), "problem.trap")),
        ("problem.trap.dimension", lambda: trap_from_config(
            {"kind": "box", "side": 1.0, "dimension": 4}, "problem.trap")),
        # a trap dimension names the key it comes from
        ("problem.trap.stiffness", lambda: trap_from_config(
            {"kind": "harmonic", "stiffness": [1.0]}, "problem.trap")),
        ("problem.trap.points", lambda: trap_from_config(
            dict(TABLE, lo=[0], extent=[1], points=[4], values=[0.0] * 4), "problem.trap")),
        ("problem.pair_potential", lambda: pair_potential_from_config(
            {"shape": "tabulated_radial", "r": [1.0, 0.5], "v": [1.0, 0.0]},
            "problem.pair_potential")),
    ]
    for field, parse in cases:
        with pytest.raises(ConfigError) as info:
            parse()
        assert info.value.field == field and str(info.value).startswith(f"{field}: ")
    assert info.type is InvalidParameterError       # the constructor's error type is kept


def test_removed_run_settings_are_refused(capsys):
    assert all(set(spec) == {"problem", "solver", "seed"} for spec in CONFIGS.values())
    config = str(REPO / "configs/scattering_soft_sphere.json")
    with pytest.raises(SystemExit) as info:
        main(["scattering", "--config", config, "--reproducible"])
    assert info.value.code == 2 and "--reproducible" in capsys.readouterr().err


@pytest.mark.parametrize("region", [
    {"kind": "ball", "radius": 2.0, "points": 100000},
    {"kind": "box", "side": 1.0, "points": 100000, "dimension": 3},
    {"kind": "box", "side": 1.0, "points": 4000, "dimension": 2},
], ids=repr)
def test_poincare_region_above_grid_cap_exits_2(tmp_path, capsys, region):
    cfg = small_poincare_config()
    cfg["solver"]["region"] = region
    p = write_config(tmp_path, cfg)
    assert main(["poincare", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "solver.region.points" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment,field,count", [
    ("poincare", "solver.trials", 10**12),
    ("poincare", "solver.trials", MAX_SAMPLES + 1),
    ("manybody", "solver.localization.samples", 10**12),
    ("manybody", "solver.localization.samples", MAX_SAMPLES + 1),
], ids=repr)
def test_draw_count_above_cap_exits_2_at_once(tmp_path, capsys, experiment, field, count):
    # 10^12 Poincare trials on the 16^3 ball ran until killed before the cap
    if experiment == "poincare":
        cfg = small_poincare_config()
        cfg["solver"]["trials"] = count
    else:
        cfg = small_manybody_config(localization={"radii": [1.0], "samples": count})
    p = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err and str(MAX_SAMPLES) in err
    assert "Traceback" not in err


def test_tabulated_values_may_be_nested():
    flat = [float(i) for i in range(64)]
    nested = [[flat[16 * i + 4 * j:16 * i + 4 * j + 4] for j in range(4)] for i in range(4)]
    assert (trap_from_config(dict(TABLE, values=nested))
            == trap_from_config(dict(TABLE, values=flat)))


def test_manybody_without_scattering_length_exits_2(tmp_path, capsys):
    cfg = small_manybody_config(a=0.01)
    cfg["problem"]["pair_potential"]["height"] = 0.0
    del cfg["solver"]["g"]
    p = write_config(tmp_path, cfg)
    assert main(["manybody", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "positive scattering length" in capsys.readouterr().err


def test_sweep_rows_report_scattering_length(tmp_path):
    cfg = small_sweep_config()
    cfg["problem"]["pair_potential"] = {"shape": "soft_sphere", "height": 5.0, "radius": 1.1}
    path = execute(cfg, tmp_path / "o")
    rep = json.loads(path.read_text())
    assert abs(rep["base_scattering_length"] - 1.0) > 0.1
    csv_rows = (path.parent / "sweep.csv").read_text().splitlines()[1:]
    for row, line in zip(rep["rows"], csv_rows, strict=True):
        a = 0.4 / (4.0 * math.pi * row["N"])
        assert row["a"] == a and float(line.split(",")[1]) == a


@pytest.mark.parametrize("config_path", sorted((REPO / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_config_parses(config_path):
    config = load_config(config_path, json.loads(config_path.read_text())["experiment"], {})
    problem_from_config(config["problem"])


@pytest.mark.parametrize("seed", ["abc", -1, 1.5, None, True])
def test_bad_seed_exits_2(tmp_path, capsys, seed):
    p = write_config(tmp_path, small_sweep_config() | {"seed": seed})
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "seed" in err


def test_stale_lock_of_dead_run_is_reclaimed(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()                            # reaped: its pid is no longer alive
    out = tmp_path / "o"
    out.mkdir()
    (out / ".lock").write_text(str(child.pid))
    path = execute(small_gp_config(), out)
    assert json.loads(path.read_text())["kind"] == "gp"
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("holder", [lambda: str(os.getpid()), lambda: "not a pid"],
                         ids=["live", "unreadable"])
def test_live_or_unreadable_lock_exits_2(tmp_path, capsys, holder):
    p = write_config(tmp_path, small_gp_config())
    out = tmp_path / "o"
    out.mkdir()
    (out / ".lock").write_text(holder())
    assert main(["gp", "--config", str(p), "--out", str(out)]) == 2
    assert "locked" in capsys.readouterr().err
    assert (out / ".lock").exists()


def test_run_whose_pid_write_fails_leaves_no_lock(tmp_path, monkeypatch, capsys):
    p = write_config(tmp_path, small_scattering_config())
    out = tmp_path / "o"

    def disk_full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", disk_full)
    assert main(["scattering", "--config", str(p), "--out", str(out)]) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err.startswith("config error")
    assert [path.name for path in out.iterdir()] == ["runs"]     # no .lock, no pid file
    assert main(["scattering", "--config", str(p), "--out", str(out)]) == 0
    assert [path.name for path in out.iterdir()] == ["runs"]


def test_run_whose_report_write_fails_exits_2_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    p = write_config(tmp_path, small_scattering_config())
    out = tmp_path / "o"
    write_bytes = Path.write_bytes

    def disk_full_on_report(path, data):
        if path.name == "report.json.tmp":
            write_bytes(path, data[:len(data) // 2])        # a partial file, then no space
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", disk_full_on_report)
    assert main(["scattering", "--config", str(p), "--out", str(out)]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("config error") and "out" in err and "No space" in err
    assert not (out / ".lock").exists()
    assert not list(out.rglob("*.tmp")) and not list(out.rglob("report.json"))
    assert main(["scattering", "--config", str(p), "--out", str(out)]) == 0


def test_solver_failure_writes_diagnostics(tmp_path, capsys):
    cfg = small_gp_config()
    cfg["solver"] = dict(cfg["solver"], max_iter=2)
    p = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["gp", "--config", str(p), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "residual" in err and "iterations" in err
    run_dir = out / "runs" / canonical_hash(load_config(p, "gp", {}))[:16]
    failure = json.loads((run_dir / "failure.json").read_text())
    assert set(failure["diagnostics"]) == {"residual", "iterations"}
    assert failure["diagnostics"]["iterations"] == 2
    assert failure["diagnostics"]["residual"] > 1e-8
    assert not (run_dir / "report.json").exists()


def test_lanczos_failure_writes_its_diagnostics(tmp_path, capsys, monkeypatch):
    from beclab.manybody import ground

    monkeypatch.setattr(ground, "_LANCZOS_STEPS", 2)
    p = write_config(tmp_path, small_manybody_config(N=3, max_quanta=2))
    out = tmp_path / "o"
    assert main(["manybody", "--config", str(p), "--out", str(out)]) == 3
    assert "eigensolver residual" in capsys.readouterr().err
    run_dir = out / "runs" / canonical_hash(load_config(p, "manybody", {}))[:16]
    diagnostics = json.loads((run_dir / "failure.json").read_text())["diagnostics"]
    assert diagnostics["matvecs"] == 2 * (2 + 1)     # two runs of two steps, each checked once
    assert diagnostics["residual"] > 1e-9 and diagnostics["retried"] is True
    assert not (run_dir / "report.json").exists()


def test_hash_sensitivity():
    base = small_gp_config()
    h0 = canonical_hash(base)
    assert canonical_hash(small_gp_config(seed=8)) != h0
    tweaked = small_gp_config()
    tweaked["solver"] = dict(tweaked["solver"], g=1.0000001)
    assert canonical_hash(tweaked) != h0
    assert canonical_hash(small_gp_config()) == h0


def test_strict_config_rejects_unknown_keys(tmp_path):
    cfg = small_gp_config()
    cfg["surprise"] = 1
    p = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError):
        load_config(p, "gp", {})
    assert main(["gp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_experiment_mismatch_rejected(tmp_path):
    p = write_config(tmp_path, small_gp_config())
    assert main(["scattering", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_scattering_cli_roundtrip(tmp_path, capsys):
    p = write_config(tmp_path, small_scattering_config())
    assert main(["scattering", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    report_path = capsys.readouterr().out.strip().splitlines()[-1]
    rep = json.loads(Path(report_path).read_text())
    assert set(rep) >= {"a", "s", "r_max", "tol", "phi1_samples"}
    assert rep["a"] == pytest.approx(0.5628879598, rel=1e-6)
    assert verify([report_path]) == 0


def test_verify_flags_tampered_report(tmp_path, capsys):
    cfg = {
        "experiment": "manybody",
        "problem": {
            "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
            "pair_potential": {"shape": "soft_sphere", "height": 5.0, "radius": 1.1},
            "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
        },
        "solver": {"N": 2, "a": 0.42, "max_quanta": 2},
        "seed": 1,
    }
    path = execute(cfg, tmp_path / "o")
    assert verify([str(path)]) == 0
    rep = json.loads(path.read_text())
    rep["metrics"]["condensate_fraction"] = 1.2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(rep))
    capsys.readouterr()
    assert verify([str(bad)]) == 4
    out = capsys.readouterr().out
    assert "condensate_fraction_range" in out and "FAIL" in out


def test_hard_core_manybody_run_solves_its_soft_stand_in(tmp_path):
    cfg = small_manybody_config(a=0.3, max_quanta=2)
    cfg["problem"]["pair_potential"] = {"shape": "hard_sphere", "core": 1.0}
    del cfg["solver"]["g"]
    path = execute(cfg, tmp_path / "o")
    rep = json.loads(path.read_text())
    stand_in = hard_sphere_substitute(1.0)
    assert rep["substituted_potential"] == {"height": stand_in.height, "radius": stand_in.radius}
    assert rep["substituted_potential"] == {"height": 8192.0, "radius": 1.015625}
    assert rep["kinetic_fraction_s"] >= 0.99
    assert verify([str(path)]) == 0


@pytest.fixture(scope="module")
def small_reports(tmp_path_factory):
    """One passing report per kind: the manybody run has a localization
    block and the poincare run is weighted by the gp run's dump."""
    root = tmp_path_factory.mktemp("reports")
    gp = small_gp_config()
    gp["solver"] = dict(gp["solver"], dump_phi=True)
    gp_path = execute(gp, root / "gp")
    dump = {"kind": "gp_dump", "phi": str(gp_path.parent / "phi.f64"),
            "grid": str(gp_path.parent / "phi_grid.json")}
    paths = {"gp": gp_path,
             "scattering": execute(small_scattering_config(), root / "scattering"),
             "manybody": execute(small_manybody_config(
                 localization={"radii": [1.0, 2.0], "samples": 8}), root / "manybody"),
             "sweep": execute(small_sweep_config(), root / "sweep"),
             "poincare": execute(small_poincare_config(dump), root / "poincare")}
    return {kind: json.loads(path.read_text()) for kind, path in paths.items()}


# one edit of a metrics block (with its N) per invariant of the block
METRIC_EDITS = {
    "condensate_fraction_range": lambda m, N: m.update(condensate_fraction=1.2),
    "overlap_below_fraction": lambda m, N: m.update(gp_overlap=m["condensate_fraction"] + 0.1),
    "trace_distance_range": lambda m, N: m.update(trace_distance=2.5),
    "momentum_dominated": lambda m, N: m.update(momentum_l1=m["trace_distance"] + 0.1),
    "pair_moment_upper": lambda m, N: m.update(pair_moment=1.5),
    "pair_moment_chain": lambda m, N: m.update(pair_moment=m["gp_overlap"] ** 2 - 2 / N - 0.1),
}


def _components(c):
    # K and P move in opposite directions: the sum holds, the virial does not
    c.update(kinetic=c["kinetic"] + 10.0, potential=c["potential"] - 10.0)


def _widen_energy_gap(rows):
    # below E_gp, so the variational bound still holds
    first, last = rows[0], rows[-1]
    last["E_qm_per_N"] = last["E_gp"] - abs(first["E_qm_per_N"] - first["E_gp"]) - 1.0


TAMPERS = [
    ("gp", lambda r: r.update(E_GP=r["E_GP"] + 1.0), "gp.component_sum"),
    ("gp", lambda r: r.update(mu=r["mu"] + 1.0), "gp.chemical_potential"),
    ("gp", lambda r: r.update(residual=10 * r["solver_tol"]), "gp.residual"),
    ("gp", lambda r: r.update(norm_error=1e-6), "gp.normalization"),
    ("gp", lambda r: r.update(energy_trace_max_increase=1e-6), "gp.energy_monotone"),
    ("gp", lambda r: _components(r["components"]), "gp.virial"),
    ("gp", lambda r: r.update(boundary_ratio=1e-3), "gp.decay"),
    ("scattering", lambda r: r.update(s=2 * r["a"]), "scattering.kinetic_fraction_bound"),
    ("scattering", lambda r: r["phi1_samples"]["phi1"].__setitem__(0, -0.1),
     "scattering.phi_nonnegative"),
    ("scattering", lambda r: r["phi1_samples"]["phi1"].__setitem__(-1, 2.0),
     "scattering.asymptotics"),
    *[("manybody", lambda r, e=edit: e(r["metrics"], r["N"]), f"manybody.{name}")
      for name, edit in METRIC_EDITS.items()],
    ("manybody", lambda r: r.update(natural_occupation_sum=1.1), "manybody.occupation_sum"),
    ("manybody", lambda r: r.update(E_qm_per_N=r["rayleigh_per_N"] + 1.0),
     "manybody.variational_bound"),
    ("manybody", lambda r: r["localization"]["fractions"].__setitem__(
        0, r["localization"]["fractions"][-1] + 0.1), "manybody.localization_monotone"),
    *[("sweep", lambda r, e=edit: e(r["rows"][0], 2), f"sweep.N2.{name}")
      for name, edit in METRIC_EDITS.items()],
    ("sweep", lambda r: r["rows"][0].update(E_qm_per_N=r["rows"][0]["rayleigh_per_N"] + 1.0),
     "sweep.N2.variational_bound"),
    ("sweep", lambda r: r["rows"][0].update(kin_pred=r["rows"][0]["kin_pred"] + 1.0),
     "sweep.N2.prediction_sum"),
    ("sweep", lambda r: r["rows"][-1].update(trace_distance=r["rows"][0]["trace_distance"] + 0.1),
     "sweep.trace_distance_trend"),
    ("sweep", lambda r: _widen_energy_gap(r["rows"]), "sweep.energy_gap_trend"),
    ("poincare", lambda r: r.update(holds_all=False), "poincare.holds_all"),
    ("poincare", lambda r: r.update(C_star=-1.0), "poincare.constant_finite"),
    ("poincare", lambda r: r["weighted"].update(holds_all=False), "poincare.weighted_holds"),
]


@pytest.mark.parametrize("kind,edit,name", TAMPERS, ids=[name for _, _, name in TAMPERS])
def test_verify_flags_each_broken_invariant(small_reports, tmp_path, capsys, kind, edit, name):
    rep = json.loads(json.dumps(small_reports[kind]))
    edit(rep)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(rep))
    capsys.readouterr()
    assert verify([str(bad)]) == 4
    assert f"FAIL {name}:" in capsys.readouterr().out


def test_verify_reads_localization_fractions_in_radius_order(small_reports, tmp_path, capsys):
    # radii given largest first: the report keeps config order, and verify
    # sorts the fractions by radius before the trend check
    report = execute(small_manybody_config(localization={"radii": [2.0, 1.0], "samples": 8}),
                     tmp_path / "o")
    loc, ascending = json.loads(report.read_text())["localization"], small_reports["manybody"]
    assert loc["radii"] == ascending["localization"]["radii"][::-1] == [2.0, 1.0]
    assert loc["fractions"] == ascending["localization"]["fractions"][::-1]
    assert loc["fractions"][0] > loc["fractions"][1]
    capsys.readouterr()
    assert verify([str(report)]) == 0
    # a fraction that falls as the radius grows still fails in this order
    rep = json.loads(report.read_text())
    rep["localization"]["fractions"] = loc["fractions"][::-1]
    bad = tmp_path / "falling.json"
    bad.write_text(json.dumps(rep))
    assert verify([str(bad)]) == 4
    assert "FAIL manybody.localization_monotone:" in capsys.readouterr().out


def test_every_invariant_has_a_tamper_case(small_reports, tmp_path, capsys):
    # the small reports pass and reach every check verify makes; the sweep's
    # rows share their invariants, so its N = 3 row needs no cases of its own
    paths = []
    for kind, rep in small_reports.items():
        paths.append(tmp_path / f"{kind}.json")
        paths[-1].write_text(json.dumps(rep))
    capsys.readouterr()
    assert verify([str(p) for p in paths]) == 0
    checked = {line.split()[1].rstrip(":").replace("sweep.N3.", "sweep.N2.")
               for line in capsys.readouterr().out.splitlines() if line.startswith("ok ")}
    assert checked == {name for _, _, name in TAMPERS}


def test_phi_dump_is_the_state_written_from_a_byte_view(tmp_path, monkeypatch):
    cfg = small_gp_config()
    cfg["solver"] = dict(cfg["solver"], dump_phi=True)
    written = {}
    atomic_write = cli._atomic_write

    def spy(path, data):
        written[path.name] = len(data)
        atomic_write(path, data)

    monkeypatch.setattr(cli, "_atomic_write", spy)
    run_dir = execute(cfg, tmp_path / "o").parent
    points = cfg["problem"]["grid"]["points"]
    state = bl.minimize_gp(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), 1.0,
                           bl.Grid.centered((14.0,) * 3, points))
    assert (run_dir / "phi.f64").read_bytes() == state.phi.astype("<f8").tobytes()
    assert written["phi.f64"] == 8 * math.prod(points)


def test_gp_run_holds_two_grids_at_most():
    # phi and one temporary: the report integrals build no Grid.weights, the
    # dump copies nothing, and the flow's arrays die before phi is unfolded
    cfg = small_gp_config()
    cfg["problem"]["grid"]["points"] = [64, 64, 64]
    cfg["solver"] = dict(cfg["solver"], g=10.0, dump_phi=True)
    parsed = validate(cfg)
    tracemalloc.start()
    try:
        run_gp(parsed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * 64**3, peak / (8 * 64**3)


@pytest.mark.parametrize("experiment, solver, field", [
    # the given g used to win in gp and lose to a in manybody (g = 7.54 here)
    ("manybody", {"g": 123.0, "a": 0.3}, "solver.a"),
    ("gp", {"g": 10.0, "N": 5, "a": 0.9}, "solver.N"),
    ("gp", {"g": 10.0, "a": 0.9}, "solver.a"),
], ids=str)
def test_coupling_with_its_inputs_exits_2_before_out_dir(tmp_path, capsys, experiment, solver,
                                                         field):
    cfg = SMALL_CONFIGS[experiment]()
    cfg["solver"].update(solver)
    p = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main([experiment, "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("experiment, solver, field", [
    ("gp", {"g": 1e200}, "solver.g"),
    ("gp", {"g": 1e302}, "solver.g"),
    ("gp", {"N": 10, "a": 1e200}, "solver.a"),
    # a 1/a^2 that check_pair_scale passes
    ("manybody", {"g": 1e154}, "solver.g"),
    ("manybody", {"a": 1e153}, "solver.a"),
    ("sweep", {"g": 1e154}, "solver.g"),
], ids=str)
def test_huge_coupling_exits_2_at_load(tmp_path, capsys, experiment, solver, field):
    # refused before <out> is made, not by a non-finite residual in the solve
    cfg = SMALL_CONFIGS[experiment]()
    cfg["problem"]["grid"] = {"extent": [14.0] * 3, "points": [16] * 3}
    cfg["solver"] = {key: value for key, value in cfg["solver"].items()
                     if key not in ("g", "a")} | solver
    p = write_config(tmp_path, cfg)
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "o").exists()


def test_tabulated_trap_not_covering_the_grid_exits_2_at_load(tmp_path, capsys):
    cfg = small_gp_config()
    cfg["problem"]["trap"] = dict(TABLE, values=[0.0] * 64)
    cfg["problem"]["grid"]["extent"] = [14.2, 14.0, 14.0]
    p = write_config(tmp_path, cfg)
    assert main(["gp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "problem.grid: point outside the tabulated extent" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, path", [("manybody", "problem.grid.points"),
                                              ("sweep", "solver.gp_grid")])
def test_tabulated_eigensolve_grid_above_cap_exits_2_at_load(tmp_path, capsys, experiment,
                                                             path):
    # an 80^3 mode grid has 78^3 interior nodes, above the eigensolve cap; a
    # 75^3 grid (73^3 inside) passes the check.  Tabulated modes are solved
    # on the mode grid alone, so a sweep's mean-field grid passes as that
    # grid only: an 80^3 one is refused before any eigensolve
    cfg = SMALL_CONFIGS[experiment]()
    cfg["problem"]["trap"] = dict(TABLE, values=[0.0] * 64)
    if experiment == "manybody":
        grid, passing = cfg["problem"]["grid"], [75] * 3
    else:
        grid = cfg["solver"]["gp_grid"] = dict(cfg["problem"]["grid"])
        passing = grid["points"]
    grid["points"] = passing
    validate(copy.deepcopy(cfg))
    grid["points"] = [80] * 3
    p = write_config(tmp_path, cfg)
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert ("cap 400000" if experiment == "manybody" else "problem.grid only") in err
    assert not (tmp_path / "o").exists()


def test_phi_dump_feeds_weighted_poincare(tmp_path):
    gp_cfg = small_gp_config()
    gp_cfg["solver"] = dict(gp_cfg["solver"], dump_phi=True)
    gp_path = execute(gp_cfg, tmp_path / "o")
    run_dir = gp_path.parent
    assert (run_dir / "phi.f64").exists() and (run_dir / "phi_grid.json").exists()
    meta = json.loads((run_dir / "phi_grid.json").read_text())
    phi = np.frombuffer((run_dir / "phi.f64").read_bytes(), dtype="<f8")
    assert phi.size == np.prod(meta["points"])
    po_cfg = {
        "experiment": "poincare",
        "problem": {},
        "solver": {
            "region": {"kind": "ball", "radius": 2.0, "points": 24, "dimension": 3},
            "trials": 40,
            "weight": {"kind": "gp_dump", "phi": str(run_dir / "phi.f64"),
                       "grid": str(run_dir / "phi_grid.json")},
        },
        "seed": 3,
    }
    po_path = execute(po_cfg, tmp_path / "o2")
    rep = json.loads(po_path.read_text())
    assert rep["holds_all"] is True
    assert rep["weighted"]["holds_all"] is True
    assert rep["weighted"]["C_prime"] >= rep["C_star"]
    assert verify([str(po_path)]) == 0


def test_cache_rereads_the_input_files_a_config_names(tmp_path):
    # a weighted Poincare run on a g = 10 dump, then the g = 0 dump copied
    # over the same two files: a rerun without --force must not serve the
    # cached weight ratio
    dumps = {}
    for g in (10.0, 0.0):
        cfg = small_gp_config()
        cfg["solver"] = dict(cfg["solver"], g=g, dump_phi=True)
        dumps[g] = execute(cfg, tmp_path / f"gp{g:g}").parent
    phi, grid = tmp_path / "phi.f64", tmp_path / "phi_grid.json"
    p = write_config(tmp_path, small_poincare_config(
        {"kind": "gp_dump", "phi": str(phi), "grid": str(grid)}))
    run_dir = tmp_path / "o" / "runs" / canonical_hash(load_config(p, "poincare", {}))[:16]

    def weight_ratio(g, out):
        for name in ("phi.f64", "phi_grid.json"):
            shutil.copyfile(dumps[g] / name, tmp_path / name)
        assert main(["poincare", "--config", str(p), "--out", str(out)]) == 0
        return json.loads((out / run_dir.relative_to(tmp_path / "o") / "report.json")
                          .read_text())["weighted"]["weight_ratio"]

    before = weight_ratio(10.0, tmp_path / "o")
    after = weight_ratio(0.0, tmp_path / "o")
    assert after != before
    assert after == weight_ratio(0.0, tmp_path / "fresh")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {str(phi), str(grid)}
    assert manifest["numpy_version"] == np.__version__


def test_execute_parses_the_config_once(tmp_path, monkeypatch):
    # the parsed config serves both the input digests and the runner
    from beclab import cli

    cfg = small_gp_config()
    cfg["solver"] = dict(cfg["solver"], dump_phi=True)
    dump = execute(cfg, tmp_path / "gp").parent
    p = write_config(tmp_path, small_poincare_config(
        {"kind": "gp_dump", "phi": str(dump / "phi.f64"), "grid": str(dump / "phi_grid.json")}))
    config = load_config(p, "poincare", {})
    parsed, validate = [], cli.validate
    monkeypatch.setattr(cli, "validate", lambda c: parsed.append(validate(c)) or parsed[-1])
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "poincare",
                        lambda c: ran.append(c) or cli.run_poincare(c))
    execute(config, tmp_path / "o")
    assert len(parsed) == 1 and ran == parsed
    assert set(json.loads((tmp_path / "o" / "runs" / canonical_hash(config)[:16]
                           / "manifest.json").read_text())["inputs"]) == {
        str(dump / "phi.f64"), str(dump / "phi_grid.json")}


@pytest.mark.parametrize("sidecar,n_bytes", [
    ({"lo": [-7.0] * 3, "extent": [14.0] * 3, "points": [8] * 3}, 8 * 8**3 - 4),
    ({"extent": [14.0] * 3, "points": [8] * 3}, 8 * 8**3),
    ({"lo": [-7.0] * 3, "extent": [14.0] * 3, "points": [4] * 3}, 80),
    ({"lo": [-7.0] * 3, "extent": [14.0] * 3}, 8 * 8**3),
], ids=["truncated", "sidecar_without_lo", "80_bytes_for_4_cubed", "sidecar_without_points"])
def test_bad_phi_dump_exits_2(tmp_path, capsys, sidecar, n_bytes):
    # the dump is read and checked before the output directory exists
    (tmp_path / "phi.f64").write_bytes(b"\0" * n_bytes)
    (tmp_path / "phi_grid.json").write_text(json.dumps(sidecar))
    p = write_config(tmp_path, small_poincare_config(
        {"kind": "gp_dump", "phi": str(tmp_path / "phi.f64"),
         "grid": str(tmp_path / "phi_grid.json")}))
    out = tmp_path / "o"
    assert main(["poincare", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "solver.weight" in err
    assert not out.exists()


def _gaussian_dump(tmp_path, dimension=3):
    """A positive phi on an 8-point grid over [-7, 7] per axis, and its sidecar."""
    grid = {"lo": [-7.0] * dimension, "extent": [14.0] * dimension, "points": [8] * dimension}
    x = np.linspace(-7.0, 7.0, 8)
    phi = np.exp(-sum(np.meshgrid(*[x**2 / 2] * dimension, indexing="ij")))
    (tmp_path / "phi_grid.json").write_text(json.dumps(grid))
    return phi, {"kind": "gp_dump", "phi": str(tmp_path / "phi.f64"),
                 "grid": str(tmp_path / "phi_grid.json")}


@pytest.mark.parametrize("value", [NAN, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_phi_dump_exits_2(tmp_path, capsys, value):
    # both values sit on corners of the dump, far from the ball's cells, so
    # only a check of the whole dump sees them
    phi, weight = _gaussian_dump(tmp_path)
    phi[0, 0, 0] = phi[-1, -1, -1] = value
    (tmp_path / "phi.f64").write_bytes(phi.astype("<f8").tobytes())
    p = write_config(tmp_path, small_poincare_config(weight))
    out = tmp_path / "o"
    assert main(["poincare", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "solver.weight" in err and "2 NaN or infinite values" in err
    assert not out.exists()


def test_phi_dump_of_another_dimension_exits_2(tmp_path, capsys):
    phi, weight = _gaussian_dump(tmp_path, dimension=2)
    (tmp_path / "phi.f64").write_bytes(phi.astype("<f8").tobytes())
    p = write_config(tmp_path, small_poincare_config(weight))
    assert main(["poincare", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "solver.weight" in err and "3-dimensional points on a 2-dimensional table" in err


@pytest.mark.parametrize("region, message", [
    ({"kind": "ball", "radius": 2.0, "points": 16, "dimension": 2},
     "2-dimensional points on a 3-dimensional table"),
    ({"kind": "ball", "radius": 9.0, "points": 16, "dimension": 3},
     "point outside the tabulated extent"),
], ids=["planar_region", "ball_past_the_dump"])
def test_phi_dump_not_covering_the_region_exits_2_at_load(tmp_path, capsys, monkeypatch,
                                                          region, message):
    # a 3D dump over [-7, 7] per axis, as the committed one: the region grid's
    # dimension and corner nodes are checked with the dump, before <out>
    # exists and before any trial runs
    phi, weight = _gaussian_dump(tmp_path)
    (tmp_path / "phi.f64").write_bytes(phi.astype("<f8").tobytes())
    cfg = small_poincare_config(weight)
    cfg["solver"]["region"] = region
    p = write_config(tmp_path, cfg)
    monkeypatch.setattr(cli, "estimate_constant", None)
    out = tmp_path / "o"
    assert main(["poincare", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver.weight: ") and message in err
    assert not out.exists()


def test_phi_dump_is_read_once_per_execute(tmp_path, monkeypatch):
    # one read serves the manifest's input digest and the weighted run
    cfg = small_gp_config()
    cfg["solver"] = dict(cfg["solver"], dump_phi=True)
    dump = execute(cfg, tmp_path / "gp").parent
    phi = dump / "phi.f64"
    config = load_config(write_config(tmp_path, small_poincare_config(
        {"kind": "gp_dump", "phi": str(phi), "grid": str(dump / "phi_grid.json")})),
        "poincare", {})
    reads, read_bytes = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
    for force in (False, True, False):
        reads.clear()
        report = execute(config, tmp_path / "o", force=force)
        assert reads.count(phi) == 1
    digest = json.loads((report.parent / "manifest.json").read_text())["inputs"][str(phi)]
    assert digest == hashlib.sha256(read_bytes(phi)).hexdigest()
    assert json.loads(report.read_text())["weighted"]["holds_all"] is True


def test_sweep_csv_contract(tmp_path):
    cfg = small_sweep_config()
    path = execute(cfg, tmp_path / "o")
    csv_path = path.parent / "sweep.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("N,a,g,E_qm_per_N,E_gp,gp_overlap,trace_distance,momentum_l1,"
                        "kin,pot,int,kin_pred,pot_pred,int_pred,s")
    assert len(lines) == 3
    manifest = json.loads((path.parent / "manifest.json").read_text())
    assert manifest["config_hash"] == canonical_hash(load_config(
        write_config(tmp_path, cfg), "sweep", {}))
    assert "wall_time_s" in manifest


def test_sweep_on_a_shifted_gp_grid_reports_the_aligned_rows(tmp_path):
    # the mean-field grid of the mode grid's points and extent, lo moved by
    # 0.3: only the mean-field discretization moves the rows
    aligned = json.loads(execute(small_sweep_config(), tmp_path / "a").read_text())["rows"]
    cfg = small_sweep_config(gp_grid={"extent": [14.0] * 3, "points": [32] * 3,
                                      "lo": [-6.7] * 3})
    rows = json.loads(execute(cfg, tmp_path / "b").read_text())["rows"]
    for want, got in zip(aligned, rows, strict=True):
        assert got == pytest.approx(want, rel=1e-8, abs=0)


def test_sweep_trends_are_checked_in_n_order(tmp_path, capsys):
    descending = execute(small_sweep_config(N_list=[3, 2]), tmp_path / "o")
    assert [row["N"] for row in json.loads(descending.read_text())["rows"]] == [3, 2]
    assert verify([str(descending)]) == 0
    # an ascending report whose N = 3 trace distance exceeds N = 2's
    rep = json.loads(execute(small_sweep_config(), tmp_path / "o").read_text())
    assert [row["N"] for row in rep["rows"]] == [2, 3]
    rep["rows"][1]["trace_distance"] = rep["rows"][0]["trace_distance"] * 1.01
    bad = tmp_path / "raised.json"
    bad.write_text(json.dumps(rep))
    capsys.readouterr()
    assert verify([str(bad)]) == 4
    assert "FAIL sweep.trace_distance_trend" in capsys.readouterr().out


def test_execute_takes_run_fields_from_the_validated_config(tmp_path):
    # a library caller's config may leave out what load_config fills in
    cfg = small_gp_config()
    del cfg["seed"]
    path = execute(cfg, tmp_path / "o")
    rep = json.loads(path.read_text())
    assert rep["seed"] == 0
    assert json.loads((path.parent / "manifest.json").read_text())["seed"] == 0


def test_cli_subprocess_entry(tmp_path):
    p = write_config(tmp_path, small_gp_config())
    res = subprocess.run(
        [sys.executable, "-m", "beclab.cli", "gp", "--config", str(p),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = Path(res.stdout.strip().splitlines()[-1])
    assert report.exists()


# ---------------------------------------------------------------------------
# the whole config is parsed at load: bad input exits 2 before any work
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment,solver", [
    ("scattering", {"r_max": "x"}), ("gp", {"g": "x"}), ("gp", {"dump_phi": "no"}),
    ("manybody", {"localization": {"radii": [1.0], "samples": "64"}}),
    # the profile is defined for two bosons only
    ("manybody", {"N": 3, "localization": {"radii": [1.0]}}),
    ("sweep", {"gp_grid": {"extent": ["x", 14, 14], "points": [32, 32, 32]}}),
    ("sweep", {"gp_grid": {"extent": [14.0, 14.0], "points": [32, 32]}}),
    ("poincare", {"trials": "x"}),
    # a bad region entry comes last, and the error names it
    ("poincare", {"region": {"kind": "ball", "points": 16, "radius": -1.0}}),
    ("poincare", {"region": {"kind": "box", "points": 16, "side": 0.0}}),
    ("poincare", {"region": {"kind": "ball", "radius": 1.0, "points": 3}}),
], ids=repr)
def test_bad_solver_value_exits_2_before_out_dir(tmp_path, capsys, experiment, solver):
    cfg = SMALL_CONFIGS[experiment]()
    cfg["solver"].update(solver)
    p = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main([experiment, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    if "region" in solver:
        assert f"solver.region.{list(solver['region'])[-1]}" in err
    if "localization" in solver:
        assert "solver.localization" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment,solver,field", [
    # 201^3 loop steps and a 13.7 TiB request at the parent
    ("manybody", {"max_quanta": 200}, "solver.max_quanta"),
    # C(44, 10) = 2.1e9 states passed a 10^15 cap and asked for 185 GiB
    ("manybody", {"N": 10, "max_quanta": 4, "dimension_cap": 10**15}, "solver.dimension_cap"),
    ("manybody", {"N": 10, "max_quanta": 4}, "solver.dimension_cap"),
    ("manybody", {"N": 10**12, "max_quanta": 0}, "solver.N"),
    ("sweep", {"N_list": [2, 12], "max_quanta": 3}, "solver.dimension_cap"),
    ("sweep", {"max_quanta": 2**70}, "solver.max_quanta"),
], ids=repr)
def test_many_body_size_above_cap_exits_2_at_once(tmp_path, capsys, experiment, solver, field):
    cfg = SMALL_CONFIGS[experiment]()
    cfg["solver"].update(solver)
    p = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err and "cap" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["manybody", "sweep"])
def test_grid_the_pair_transforms_pad_above_the_cap_exits_2_at_load(tmp_path, capsys,
                                                                    experiment):
    # 202^3 nodes are under MAX_GRID_NODES, but the tensor pads each axis by
    # at least 2 nodes, and 204^3 is above it; 201^3 pads to 203^3, under it
    cfg = SMALL_CONFIGS[experiment]()
    cfg["problem"]["grid"]["points"] = [201] * 3
    validate(copy.deepcopy(cfg))
    cfg["problem"]["grid"]["points"] = [202] * 3
    assert 202**3 <= MAX_GRID_NODES < 204**3
    p = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.grid.points: ") and "cap" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["manybody", "sweep"])
def test_pair_potential_padding_above_the_cap_exits_2_before_the_gp_solve(tmp_path, capsys,
                                                                          monkeypatch,
                                                                          experiment):
    # rescaled to the run's largest a (the sweep's at its smallest N), the
    # potential's range pads the pair transforms far above the cap: refused
    # after the scattering solve, before the mean-field one
    monkeypatch.setattr(sweep, "minimize_gp", lambda *a, **k: pytest.fail("GP solve ran"))
    cfg = SMALL_CONFIGS[experiment]()
    cfg["problem"]["pair_potential"] = {"shape": "soft_sphere", "height": 1e-4, "radius": 1.1}
    p = write_config(tmp_path, cfg)
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.pair_potential: ") and "cap" in err


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "beclab.cli", *args],
                          capture_output=True, text=True, cwd=REPO, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")))


@pytest.mark.parametrize("content", [
    b'{"experiment": "gp", "seed": 1, "output": "\xff\xfe"}',
    b"[" * 200_000 + b"]" * 200_000,
    b'{"a":' * 200_000 + b"1" + b"}" * 200_000,
], ids=["not_utf8", "deep_list", "deep_object"])
def test_unreadable_config_exits_2(tmp_path, content):
    p = tmp_path / "cfg.json"
    p.write_bytes(content)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(p, "gp", {})
    res = _run_cli("gp", "--config", str(p), "--out", str(tmp_path / "o"))
    assert res.returncode == 2 and res.stderr.startswith("config error")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("content", [
    b"[1, 2]", b'"report"', b'{"kind": ["gp"]}', b'{"kind": "gp"\xff}',
    b"[" * 200_000 + b"]" * 200_000,
    json.dumps({"kind": "gp", "artifact_version": __version__, "components": 5}).encode(),
    json.dumps({"kind": "scattering", "artifact_version": __version__, "a": 1.0, "s": 0.5,
                "phi1_samples": {"r": [0.0], "phi1": [1.0]}}).encode(),
    json.dumps({"kind": "sweep", "artifact_version": __version__, "rows": 3}).encode(),
    json.dumps({"kind": "scattering", "artifact_version": __version__, "a": 1.0,
                "s": float("nan"), "phi1_samples": {"r": [50.0], "phi1": [0.98]}}).encode(),
], ids=["list", "string", "list_kind", "not_utf8", "deep", "components_int", "r_max_zero",
        "rows_int", "nan_number"])
def test_malformed_report_exits_4(tmp_path, content):
    p = tmp_path / "report.json"
    p.write_bytes(content)
    res = _run_cli("verify", str(p))
    assert res.returncode == 4 and "verification error" in res.stderr
    assert "Traceback" not in res.stderr


def _reject_constant(name):
    raise ValueError(f"{name} in strict JSON")


@pytest.mark.parametrize("experiment,path,value", [
    ("poincare", "solver.region.radius", 1e-300),      # node weights underflow
    ("poincare", "solver.region.radius", 1e300),       # radius**2 overflows
    ("gp", "problem.grid.extent", [1e-300] * 3),       # singular spectral matrices
    ("manybody", "problem.grid.extent", [14e-160, 14.0, 14.0]),    # (pi/h)^2 overflows
    ("manybody", "problem.pair_potential.height", 5e-100),  # scaled range pads to 10^98
    ("manybody", "solver.a", 1e-300),                  # 1/a^2 overflows
    ("scattering", "problem.pair_potential.radius", 1e-300),   # s is NaN
], ids=repr)
def test_float_extremes_exit_2_or_3_and_write_strict_json(tmp_path, capsys, experiment, path,
                                                          value):
    cfg = SMALL_CONFIGS[experiment]()
    *parents, key = path.split(".")
    doc = cfg
    for name in parents:
        doc = doc[name]
    doc[key] = value
    p = write_config(tmp_path, cfg)
    code = main([experiment, "--config", str(p), "--out", str(tmp_path / "o")])
    assert code in (2, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert (code == 3) == any((tmp_path / "o").rglob("failure.json"))
    for written in (tmp_path / "o").rglob("*.json"):
        json.loads(written.read_text(), parse_constant=_reject_constant)


def _float_fields(doc, path=()):
    """Paths of the float-valued leaves of a config, list entries included."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in _float_fields(value, path + (key,))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in _float_fields(value, path + (i,))]
    return [path] if isinstance(doc, float) else []


_MAGNITUDE_FIELDS = [(experiment, path) for experiment, make in SMALL_CONFIGS.items()
                     for path in _float_fields(make())]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(field=st.sampled_from(_MAGNITUDE_FIELDS), k=st.integers(-330, 310))
def test_any_magnitude_of_a_float_field_exits_0_2_or_3(tmp_path_factory, field, k):
    # one float field scaled by 10^k, from underflow to 0 to overflow to inf
    experiment, path = field
    cfg = SMALL_CONFIGS[experiment]()
    if experiment == "gp":
        cfg["solver"]["max_iter"] = 200     # a tiny scaled tol stops here, not at 5000
    *parents, key = path
    doc = cfg
    for name in parents:
        doc = doc[name]
    doc[key] = float(Decimal(repr(doc[key])) * Decimal(10) ** k)
    tmp = tmp_path_factory.mktemp("magnitude")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([experiment, "--config", str(write_config(tmp, cfg)),
                     "--out", str(tmp / "o")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    for written in (tmp / "o").rglob("*.json"):
        json.loads(written.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("path,k", [
    (("problem", "grid", "extent", 0), 162),      # the trap potential overflows
    (("problem", "grid", "extent", 0), -148),     # the kinetic term per node weight
    (("problem", "trap", "stiffness", 0), 307),
], ids=repr)
def test_gp_energy_scale_overflow_exits_2_without_warnings(tmp_path, capsys, path, k):
    # these ran into exit 3 with numpy overflow warnings on the way
    cfg = small_gp_config()
    *parents, key = path
    doc = cfg
    for name in parents:
        doc = doc[name]
    doc[key] = float(Decimal(repr(doc[key])) * Decimal(10) ** k)
    p = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("config error") and "problem.grid" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("a", [1e-200, 0.9], ids=["a2N_underflows", "not_dilute"])
def test_planar_gp_coupling_out_of_range_exits_2(tmp_path, capsys, a):
    cfg = small_gp_config()
    cfg["problem"] = {"trap": {"kind": "harmonic", "stiffness": [1.0, 1.0]},
                      "grid": {"extent": [14.0, 14.0], "points": [32, 32]}}
    cfg["solver"] = {"N": 2, "a": a}
    p = write_config(tmp_path, cfg)
    assert main(["gp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "dilute regime" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment,path", [
    ("gp", "problem.grid"), ("gp", "problem.trap"), ("sweep", "solver.gp_grid"),
    ("manybody", "solver.localization"), ("poincare", "solver.weight"),
], ids=repr)
def test_null_block_is_not_an_absent_one(tmp_path, capsys, experiment, path):
    cfg = SMALL_CONFIGS[experiment]()
    *parents, key = path.split(".")
    doc = cfg
    for name in parents:
        doc = doc[name]
    doc[key] = None
    p = write_config(tmp_path, cfg)
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"{path}: must be an object" in capsys.readouterr().err


def test_load_config_fills_top_level_defaults_only(tmp_path):
    cfg = small_gp_config()
    del cfg["seed"]
    config = load_config(write_config(tmp_path, cfg), "gp", {})
    assert config == dict(cfg, seed=0)


# mutations of the committed configs for the load_config fuzz test
_SWAPS = ["x", "", True, False, None, 0, -1, -2.5, 2**70, -(2**70), float("nan"),
          float("inf"), float("-inf"), [], {}, [[[1, 2]], [3]], {"a": {"b": [1]}},
          [1.0, "x"], {"kind": "box"}, {"kind": "ball", "radius": 1.0, "points": 4}]


def _mutate(data, doc):
    """Apply one mutation at a path drawn by walking down ``doc``."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys)) if keys else None
        if key is None:
            break
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        op = data.draw(st.sampled_from(["swap", "negate", "drop", "extra", "nest"]))
        if op == "swap":     # a copy: a later mutation must not reach into _SWAPS
            node[key] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))
        elif op == "negate" and isinstance(child, (int, float)) and not isinstance(child, bool):
            node[key] = -child if child else -1
        elif op == "drop" and isinstance(node, dict):
            del node[key]
        elif op == "extra" and isinstance(node, dict):
            node["surprise"] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))
        else:
            node[key] = [child] if data.draw(st.booleans()) else {"v": child}
        return
    if isinstance(node, dict):
        node["surprise"] = 1


_COMMITTED = {p.name: json.loads(p.read_text()) for p in sorted((REPO / "configs").glob("*.json"))}


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(_COMMITTED)), count=st.integers(1, 3), data=st.data())
def test_load_config_fuzz_returns_or_raises_config_error(tmp_path_factory, name, count, data):
    doc = json.loads(json.dumps(_COMMITTED[name]))
    experiment = doc["experiment"]
    for _ in range(count):
        _mutate(data, doc)
    p = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    p.write_text(json.dumps(doc))         # NaN and Infinity as JSON literals
    try:
        config = load_config(p, experiment, {})
    except ConfigError:
        return
    assert canonical_hash(config) == canonical_hash(load_config(p, experiment, {}))


@pytest.mark.parametrize("blocker,out", [("file", "file"), ("file", "file/run"),
                                          ("dir/runs", "dir")])
def test_out_through_a_regular_file_exits_2(tmp_path, blocker, out):
    (tmp_path / blocker).parent.mkdir(exist_ok=True)
    (tmp_path / blocker).write_text("not a directory")
    res = _run_cli("scattering", "--config", str(REPO / "configs" / "scattering_soft_sphere.json"),
                   "--out", str(tmp_path / out))
    assert res.returncode == 2 and res.stderr.startswith("config error: out:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("experiment", ["manybody", "sweep"])
def test_planar_trap_of_a_mode_basis_run_exits_2_before_any_solve(tmp_path, capsys, experiment):
    cfg = SMALL_CONFIGS[experiment]()
    cfg["problem"]["trap"] = {"kind": "harmonic", "stiffness": [1.0, 1.0]}
    cfg["problem"]["grid"] = {"extent": [14.0, 14.0], "points": [32, 32]}
    p = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.trap") and "3D only" in err
    assert not (tmp_path / "o").exists()


def test_box_trap_off_its_grid_exits_2_before_out_dir(tmp_path, capsys):
    cfg = small_gp_config()
    cfg["problem"]["trap"] = {"kind": "box", "side": 1.0}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["gp", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: problem.grid")
    assert not out.exists()


def test_cache_serves_only_runs_of_this_code(tmp_path, monkeypatch):
    from beclab import cli

    config = load_config(REPO / "configs/scattering_soft_sphere.json", "scattering", {})
    runs = []
    monkeypatch.setitem(cli._RUNNERS, "scattering",
                        lambda c: runs.append(1) or cli.run_scattering(c))
    out = tmp_path / "out"
    path = execute(config, out)
    manifest = path.parent / "manifest.json"
    assert json.loads(manifest.read_text())["code_digest"] == cli.code_digest()
    assert execute(config, out) == path and len(runs) == 1     # same code: a cache hit
    monkeypatch.setattr(cli, "code_digest", lambda: "0" * 64)
    assert execute(config, out) == path and len(runs) == 2     # other code: redone
    assert json.loads(manifest.read_text())["code_digest"] == "0" * 64
    assert execute(config, out) == path and len(runs) == 2
    monkeypatch.setattr(cli.np, "__version__", "0.0")                  # another numpy: redone
    assert execute(config, out) == path and len(runs) == 3
    assert json.loads(manifest.read_text())["numpy_version"] == "0.0"


def test_dump_json_writes_numpy_values_as_python_ones():
    record = {"b": {"i": np.int64(7), "f": np.bool_(True), "x": np.float32(0.1),
                    "m": np.arange(6.0).reshape(2, 3) / 3, "t": (1, np.float64(2.5), "z")},
              "a": [np.int32(-3), None, 1e300]}
    assert dump_json(record) == (
        '{\n  "a": [\n    -3,\n    null,\n    1e+300\n  ],\n  "b": {\n    "f": true,\n'
        '    "i": 7,\n    "m": [\n      [\n        0.0,\n        0.3333333333333333,\n'
        '        0.6666666666666666\n      ],\n      [\n        1.0,\n'
        '        1.3333333333333333,\n        1.6666666666666667\n      ]\n    ],\n'
        '    "t": [\n      1,\n      2.5,\n      "z"\n    ],\n'
        '    "x": 0.10000000149011612\n  }\n}\n')
    assert dump_json({"z": np.array(1.5)}) == '{\n  "z": 1.5\n}\n'     # a 0-d array: its scalar
    for other in (object(), {1, 2}, 1j):
        with pytest.raises(TypeError):
            dump_json({"z": other})
    for non_finite in (float("inf"), np.float64("nan"), np.array([1.0, -np.inf])):
        with pytest.raises(ValueError):        # strict JSON has no NaN or Infinity
            dump_json({"z": non_finite})


@pytest.mark.parametrize("experiment", ["manybody", "sweep"])
def test_product_basis_run_never_materializes_the_modes(tmp_path, monkeypatch, experiment):
    from beclab.manybody import basis as basis_module
    from beclab.manybody import sweep

    made = []

    def spy(*args, **kwargs):
        made.append(basis_module.build_mode_basis(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sweep, "build_mode_basis", spy)
    cfg = (small_manybody_config(localization={"radii": [1.0, 2.0], "samples": 8})
           if experiment == "manybody" else small_sweep_config())
    execute(cfg, tmp_path / "o")
    assert len(made) == 1 and made[0].axis_tables is not None
    assert made[0].modes is None


def test_manybody_run_with_localization_builds_one_occupation_space(tmp_path, monkeypatch):
    # the solve's N = 2 space only (its pair map enumerates the vacuum with
    # no FockBasis); localization reads the solve's pair map and builds none
    from beclab.manybody.basis import FockBasis

    built, build = [], FockBasis.build.__func__

    def build_spy(cls, N, *args, **kwargs):
        built.append(N)
        return build(cls, N, *args, **kwargs)

    monkeypatch.setattr(FockBasis, "build", classmethod(build_spy))
    report = execute(small_manybody_config(localization={"radii": [1.0, 2.0], "samples": 8}),
                     tmp_path / "o")
    assert built == [2]
    assert json.loads(report.read_text())["localization"]["fractions"] is not None
