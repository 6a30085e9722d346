"""Every committed config's outputs against the table in ``data/report_digests.json``.

The table holds the sha256 of each committed config's ``report.json``, of
the sweep's ``sweep.csv``, of the g = 10 dump's ``phi.f64`` and
``phi_grid.json``, and of the weighted Poincare report on that dump, with
the numpy version and BLAS build they were made with.  With that numpy and
BLAS every output must be byte-identical.  With another, the numeric leaves
the table also keeps (the JSON and CSV numbers, and integrals of phi) are
compared at 1e-6 max(1, |v|) instead, and the test warns that it did so.

The runs take place in a temporary working directory with relative paths,
so the weighted config names its dump as ``out/runs/<hash16>/phi.f64`` and
its hash, and so its report, does not depend on where the runs take place.
Rewrite the table, only when a change is meant to move an output, with

    PYTHONPATH=src python -m tests.test_report_digests

which prints, for each output whose sha256 changed, the path of its
largest relative numeric move, that move and its absolute size, or "bytes
only" when its numbers are equal.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from beclab.cli import EXIT_OK, execute, load_config, load_phi_dump, verify

REPO = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).parent / "data" / "report_digests.json"
DUMP_CONFIG = "gp_harmonic_g10"
WEIGHTED_CONFIG = "poincare_ball3d"
RTOL = 1e-6


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy before 1.26 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _json_numbers(value, path="", out=None) -> dict:
    """The numeric leaves of a JSON document, by dotted path."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            _json_numbers(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _json_numbers(item, f"{path}[{i}]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[path] = value
    return out


def _csv_numbers(text: str) -> dict:
    return {f"[{i}].{key}": float(value)
            for i, row in enumerate(csv.DictReader(io.StringIO(text)))
            for key, value in row.items()}


def _entry(path: Path, numbers: dict) -> dict:
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "numbers": numbers}


def _run(config_path: Path) -> Path:
    experiment = json.loads(config_path.read_text())["experiment"]
    report = execute(load_config(config_path, experiment, {}), "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert verify([report]) == EXIT_OK
    return report


def collect() -> dict:
    """Run every committed config, then the weighted Poincare config on the
    g = 10 dump, in the working directory; each output's digest and numbers
    by "<config>/<file>"."""
    outputs = {}
    for config in sorted((REPO / "configs").glob("*.json")):
        report = _run(config)
        run = report.parent
        outputs[f"{config.stem}/report.json"] = _entry(
            report, _json_numbers(json.loads(report.read_text())))
        if config.stem == "sweep_default":
            outputs[f"{config.stem}/sweep.csv"] = _entry(
                run / "sweep.csv", _csv_numbers((run / "sweep.csv").read_text()))
        if config.stem == DUMP_CONFIG:
            dump = run
            sidecar = (dump / "phi_grid.json").read_bytes()
            grid, phi = load_phi_dump((dump / "phi.f64").read_bytes(), sidecar)
            outputs[f"{config.stem}/phi.f64"] = _entry(dump / "phi.f64", {
                "integral_phi": grid.integrate(phi), "integral_phi2": grid.integrate(phi**2)})
            outputs[f"{config.stem}/phi_grid.json"] = _entry(
                dump / "phi_grid.json", _json_numbers(json.loads(sidecar)))
    doc = json.loads((REPO / "configs" / f"{WEIGHTED_CONFIG}.json").read_text())
    doc["solver"]["weight"] = {"kind": "gp_dump", "phi": str(dump / "phi.f64"),
                               "grid": str(dump / "phi_grid.json")}
    weighted = Path(f"{WEIGHTED_CONFIG}_gp_dump.json")
    weighted.write_text(json.dumps(doc))
    report = _run(weighted)
    outputs[f"{weighted.stem}/report.json"] = _entry(
        report, _json_numbers(json.loads(report.read_text())))
    return outputs


def _in_temporary_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return collect()
        finally:
            os.chdir(cwd)


def _numbers_differ(want: dict, got: dict) -> list[str]:
    if want.keys() != got.keys():
        return [f"fields {sorted(want.keys() ^ got.keys())[:5]}"]
    return [f"{key}: {got[key]!r} != {value!r}" for key, value in want.items()
            if not abs(got[key] - value) <= RTOL * max(1.0, abs(value))]


def describe_moves(old: dict, new: dict) -> list[str]:
    """One line per output of two digest tables' "outputs" (``old``, then
    ``new``) that was added, removed or has another sha256: for the last,
    its largest relative numeric move, with its path and absolute size."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: {'added' if name in new else 'removed'}")
            continue
        if old[name]["sha256"] == new[name]["sha256"]:
            continue
        was, now = old[name]["numbers"], new[name]["numbers"]
        if was.keys() != now.keys():
            lines.append(f"{name}: fields {sorted(was.keys() ^ now.keys())[:5]} differ")
            continue
        moves = [(abs(now[key] - value) / abs(value) if value else math.inf,
                  abs(now[key] - value), key) for key, value in was.items() if now[key] != value]
        if moves:
            relative, absolute, key = max(moves)
            lines.append(f"{name}: {key} moved {relative:.2g} relative ({absolute:.2g} absolute)")
        else:
            lines.append(f"{name}: bytes only")
    return lines


def test_the_rewrite_names_each_moved_output_and_its_largest_move():
    # the largest move is the relative one (x), not the absolute one (y);
    # an output with the same sha256 is not named, whatever its numbers
    old = {"a/report.json": {"sha256": "1", "numbers": {"x": 1.0, "y": 8.0, "z": 0.0}},
           "b/report.json": {"sha256": "2", "numbers": {"x": 1.0}},
           "c/sweep.csv": {"sha256": "3", "numbers": {"[0].N": 2.0}},
           "d/report.json": {"sha256": "4", "numbers": {}}}
    new = {"a/report.json": {"sha256": "5", "numbers": {"x": 1.5, "y": 10.0, "z": 0.0}},
           "b/report.json": {"sha256": "2", "numbers": {"x": 3.0}},
           "c/sweep.csv": {"sha256": "6", "numbers": {"[0].N": 2.0}},
           "e/report.json": {"sha256": "7", "numbers": {}}}
    assert describe_moves(old, new) == [
        "a/report.json: x moved 0.5 relative (0.5 absolute)",
        "c/sweep.csv: bytes only",
        "d/report.json: removed",
        "e/report.json: added"]
    new["a/report.json"]["numbers"]["z"] = 1e-3
    assert describe_moves(old, new)[0] == "a/report.json: z moved inf relative (0.001 absolute)"
    del new["c/sweep.csv"]["numbers"]["[0].N"]
    assert describe_moves(old, new)[1] == "c/sweep.csv: fields ['[0].N'] differ"


def test_committed_outputs_match_their_digests():
    table = json.loads(TABLE.read_text())
    outputs = _in_temporary_directory()
    assert outputs.keys() == table["outputs"].keys()
    same_build = (table["numpy"], table["blas"]) == (np.__version__, blas_build())
    if not same_build:
        warnings.warn(f"digests made with numpy {table['numpy']} and {table['blas']}, run "
                      f"with numpy {np.__version__} and {blas_build()}: numbers compared at "
                      f"{RTOL} max(1, |v|), not bytes")
    moved = {}
    for name, entry in table["outputs"].items():
        diff = _numbers_differ(entry["numbers"], outputs[name]["numbers"])[:3]
        if diff or (same_build and outputs[name]["sha256"] != entry["sha256"]):
            moved[name] = diff or "the same numbers in other bytes"
    assert not moved, f"outputs moved: {moved}"


if __name__ == "__main__":
    replaced = json.loads(TABLE.read_text())["outputs"]
    outputs = _in_temporary_directory()
    TABLE.write_text(json.dumps({"numpy": np.__version__, "blas": blas_build(),
                                 "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
    print("\n".join(describe_moves(replaced, outputs)) or "no output moved")
