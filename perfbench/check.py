"""Correctness gate for one benchmark op (one config's execute).

Every report must pass ``bec-lab verify``.  On top of the invariants the
results must match the references the tests use, at the tests' own
tolerances:

- sweep rows against ``tests/data/sweep_regression.json`` (the sweep
  never reads the seed, so this holds at every seed);
- localization fractions against ``tests/data/localization_regression.json``
  (``R/2`` is the r05 config, ``R`` the r10 one), at the default seed only,
  because the Sobol sampling follows the seed;
- the r05 fraction exceeds the r10 fraction at radius 2, at every seed;
- ``E_GP`` at g = 10 within 1e-3 (relative) of ``radial_harmonic_ground``;
- the Poincare report carries the weighted block, so the dump was read.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

DEFAULT_SEED = 20260810
PINNED_REL = 1e-6
ORACLE_REL = 1e-3
CONTRAST_RADIUS = 2.0


def load_references(root: Path) -> dict:
    data = root / "tests" / "data"
    return {"sweep": json.loads((data / "sweep_regression.json").read_text()),
            "localization": json.loads((data / "localization_regression.json").read_text())}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= PINNED_REL * max(1.0, abs(want))


class Gate:
    """Checks the ops of one pass in order; the r10 op compares with r05."""

    def __init__(self, refs: dict, seed: int):
        self.refs = refs
        self.seed = seed
        self._radial_energy = None
        self._r05 = None

    def check(self, tag: str, report_path) -> list:
        """Problems with one op's report; an empty list means the op passed."""
        from beclab import cli
        from beclab.errors import BecLabError

        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.verify([str(report_path)])
        except BecLabError as exc:
            return [f"verify: {exc}"]
        problems = [f"verify: {line}" for line in out.getvalue().splitlines()
                    if line.startswith("FAIL")]
        if code != cli.EXIT_OK and not problems:
            problems.append(f"verify exited {code}")
        report = json.loads(Path(report_path).read_text())
        return problems + getattr(self, "_" + tag)(report)

    def _gp_g10(self, rep: dict) -> list:
        if self._radial_energy is None:
            from beclab import radial_harmonic_ground

            self._radial_energy = radial_harmonic_ground(10.0).energy
        if rep["g"] != 10.0:
            return [f"gp: expected g = 10, report has {rep['g']!r}"]
        err = abs(rep["E_GP"] / self._radial_energy - 1.0)
        return [] if err <= ORACLE_REL else [
            f"gp: E_GP={rep['E_GP']!r} vs radial {self._radial_energy!r} (rel {err:.2e})"]

    def _poincare_weighted(self, rep: dict) -> list:
        return [] if rep.get("weighted") else ["poincare: no weighted block in report"]

    def _sweep(self, rep: dict) -> list:
        pinned = self.refs["sweep"]["rows"]
        rows = rep["rows"]
        if len(rows) != len(pinned):
            return [f"sweep: {len(rows)} rows, pinned {len(pinned)}"]
        return [f"sweep: N={row['N']} {key}={row[key]!r} vs pinned {val!r}"
                for row, ref in zip(rows, pinned) for key, val in ref.items()
                if not _close(row[key], val)]

    def _localization(self, rep: dict, pinned_tag: str) -> list:
        loc = rep["localization"]
        problems = []
        if self.seed == DEFAULT_SEED:
            pinned = self.refs["localization"][pinned_tag]
            problems = [f"localization {pinned_tag}: fraction[{i}]={got!r} vs pinned {want!r}"
                        for i, (got, want) in enumerate(zip(loc["fractions"], pinned))
                        if not _close(got, want)]
            if len(loc["fractions"]) != len(pinned):
                problems.append(f"localization {pinned_tag}: {len(loc['fractions'])} radii")
        return problems

    def _loc_r05(self, rep: dict) -> list:
        loc = rep["localization"]
        self._r05 = loc["fractions"][loc["radii"].index(CONTRAST_RADIUS)]
        return self._localization(rep, "R/2")

    def _loc_r10(self, rep: dict) -> list:
        loc = rep["localization"]
        r10 = loc["fractions"][loc["radii"].index(CONTRAST_RADIUS)]
        problems = self._localization(rep, "R")
        if self._r05 is None or not self._r05 > r10:
            problems.append(f"localization: r05 fraction {self._r05!r} not above "
                            f"r10 fraction {r10!r} at radius {CONTRAST_RADIUS}")
        self._r05 = None
        return problems
