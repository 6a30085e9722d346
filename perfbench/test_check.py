"""The benchmark's correctness gate counts bad reports as failed ops.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from beclab import __version__  # noqa: E402
from check import DEFAULT_SEED, Gate, load_references  # noqa: E402
from run import _ops  # noqa: E402
from worker import ROOT, run_pass  # noqa: E402

REFS = load_references(ROOT)


def sweep_report() -> dict:
    """A sweep report built from the pinned rows that passes verify."""
    rows = []
    for ref in REFS["sweep"]["rows"]:
        row = dict(ref, N=int(ref["N"]), condensate_fraction=ref["gp_overlap"],
                   kin_pred=ref["kin"], pot_pred=ref["pot"])
        row["int_pred"] = row["E_gp"] - row["kin_pred"] - row["pot_pred"]
        rows.append(row)
    return {"kind": "sweep", "rows": rows, "artifact_version": __version__}


def failed_ops(report: dict, tmp_path, seed=DEFAULT_SEED) -> int:
    """Run the sweep workload's op against a stub CLI that returns ``report``.

    The gate still checks the report with the real ``cli.verify``.
    """
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    stub = SimpleNamespace(execute=lambda config, out, force: path)
    _, problems = run_pass(stub, "fixed_g_sweep", [None], seed, Gate(REFS, seed), tmp_path)
    attempted, failed, _ = _ops({"passes": [{"problems": problems}]})
    assert attempted == 1
    return failed


def test_pinned_report_passes(tmp_path):
    assert failed_ops(sweep_report(), tmp_path) == 0


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_sweep_row_perturbed_by_1e5_fails(tmp_path, seed):
    report = sweep_report()
    report["rows"][2]["E_qm_per_N"] *= 1 + 1e-5
    assert failed_ops(report, tmp_path, seed) == 1


def test_verify_failure_fails(tmp_path):
    report = sweep_report()
    report["rows"][0]["condensate_fraction"] = 1.5   # not a pinned field
    assert failed_ops(report, tmp_path) == 1


def test_execute_error_fails(tmp_path):
    def boom(config, out, force):
        raise RuntimeError("solver crashed")

    stub = SimpleNamespace(execute=boom)
    _, problems = run_pass(stub, "fixed_g_sweep", [None], DEFAULT_SEED,
                           Gate(REFS, DEFAULT_SEED), tmp_path)
    assert _ops({"passes": [{"problems": problems}]})[:2] == (1, 1)


def _localization_report(fractions) -> dict:
    return {"kind": "manybody", "localization": {"radii": [0.5, 1.0, 2.0, 3.0, 5.0],
                                                 "fractions": list(fractions)}}


def test_localization_pins_only_at_default_seed_but_contrast_always():
    pinned = REFS["localization"]
    for seed in (DEFAULT_SEED, 7):
        gate = Gate(REFS, seed)
        assert gate._loc_r05(_localization_report(pinned["R/2"])) == []
        assert gate._loc_r10(_localization_report(pinned["R"])) == []
    shifted = [f * (1 + 1e-5) for f in pinned["R"]]
    gate = Gate(REFS, DEFAULT_SEED)
    gate._loc_r05(_localization_report(pinned["R/2"]))
    assert gate._loc_r10(_localization_report(shifted))
    gate = Gate(REFS, 7)
    gate._loc_r05(_localization_report(pinned["R"]))
    assert gate._loc_r10(_localization_report(pinned["R/2"]))   # contrast reversed


def test_repeat_counts_are_flagged_when_they_change(tmp_path, monkeypatch):
    import run
    from spans import REPEAT_COUNTS

    monkeypatch.setattr(run, "STATE", tmp_path)
    counts = dict.fromkeys(REPEAT_COUNTS, 10)
    assert run._repeat_mismatches("fixed_g_sweep", [counts]) == []
    assert run._repeat_mismatches("fixed_g_sweep", [counts, counts]) == []
    changed = dict(counts, **{"ground.matvecs": 11})
    assert run._repeat_mismatches("fixed_g_sweep", [changed]) == ["ground.matvecs"]
    assert run._repeat_mismatches("pair_localization", [changed]) == []
