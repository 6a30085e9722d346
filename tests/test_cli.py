import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beclab import __version__
from beclab.cli import (canonical_hash, execute, load_config, main, verify)
from beclab.errors import ConfigError

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
        "reproducible": True,
        "output": None,
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
    cfg = {
        "experiment": "scattering",
        "problem": {"pair_potential": {"shape": "soft_sphere", "height": 10.0,
                                       "radius": 1.0}},
        "solver": {"r_max": 50.0, "tol": 1e-9},
        "seed": 1,
        "reproducible": True,
        "output": None,
    }
    p = write_config(tmp_path, cfg)
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
        "reproducible": True,
        "output": None,
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
        "reproducible": True,
        "output": None,
    }
    po_path = execute(po_cfg, tmp_path / "o2")
    rep = json.loads(po_path.read_text())
    assert rep["holds_all"] is True
    assert rep["weighted"]["holds_all"] is True
    assert rep["weighted"]["C_prime"] >= rep["C_star"]
    assert verify([str(po_path)]) == 0


def test_sweep_csv_contract(tmp_path):
    cfg = {
        "experiment": "sweep",
        "problem": {
            "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
            "pair_potential": {"shape": "soft_sphere", "height": 0.01,
                               "radius": 8.853088605086427},
            "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
        },
        "solver": {"g": 0.4, "N_list": [2, 3], "max_quanta": 1},
        "seed": 1,
        "reproducible": True,
        "output": None,
    }
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


def test_cli_subprocess_entry(tmp_path):
    p = write_config(tmp_path, small_gp_config())
    res = subprocess.run(
        [sys.executable, "-m", "beclab.cli", "gp", "--config", str(p),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = Path(res.stdout.strip().splitlines()[-1])
    assert report.exists()
