"""Acceptance suite: one test per criterion, each printing a verdict line.

Regression rows pinned by the first committed run live in tests/data/.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import beclab as bl
from beclab.manybody import build_mode_basis, ground_state, localization_profile
from beclab.manybody.tensor import interaction_tensor
from beclab.poincare import (PoincareInstance, Region, estimate_constant, weighted_check,
                             weighted_estimate)
from beclab.scattering import (soft_sphere_kinetic_fraction,
                               soft_sphere_scattering_length)

DATA = Path(__file__).parent / "data"


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -------------------------------------------------------------- criterion 1
def test_criterion_1_scattering_exactness():
    t0 = time.monotonic()
    hard = bl.solve_zero_energy(bl.PairPotential.hard_sphere(1.0), r_max=50.0)
    soft = bl.solve_zero_energy(bl.PairPotential.soft_sphere(10.0, 1.0), r_max=50.0)
    a_ref = soft_sphere_scattering_length(10.0, 1.0)
    elapsed = time.monotonic() - t0
    ok = (abs(hard.a - 1.0) <= 1e-6 and abs(hard.s - 1.0) <= 1e-4
          and abs(soft.a / a_ref - 1.0) <= 1e-6 and elapsed < 1.0)
    _verdict(1, ok, f"hard a={hard.a!r} s={hard.s!r}; "
                    f"soft a={soft.a!r} vs {a_ref!r}; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 2
def test_criterion_2_scaling_consistency():
    t0 = time.monotonic()
    potentials = [
        bl.PairPotential.soft_sphere(10.0, 1.0),
        bl.PairPotential.soft_sphere(0.5, 2.0),
        bl.PairPotential.soft_sphere(250.0, 0.6),
        bl.PairPotential.hard_sphere(0.8),
        bl.PairPotential.tabulated_radial(
            np.linspace(0, 1.2, 500),
            4.0 * np.clip(1 - np.linspace(0, 1.2, 500) / 1.2, 0, None)),
    ]
    worst = 0.0
    for pot in potentials:
        base = bl.solve_zero_energy(pot, r_max=60.0)
        for a0 in (0.31, 1.7):
            scaled = bl.solve_zero_energy(bl.scale_pair_potential(pot, a0),
                                          r_max=60.0 * max(1.0, a0))
            worst = max(worst, abs(scaled.a / (a0 * base.a) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _verdict(2, ok, f"worst relative scaling defect {worst:.2e}; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 3
def test_criterion_3_gp_baseline(trap):
    t0 = time.monotonic()
    grid96 = bl.Grid.centered((14.0,) * 3, (96,) * 3)
    free = bl.minimize_gp(trap, 0.0, grid96)
    box = bl.minimize_gp(bl.TrapSpec.box(1.0, 3), 0.0, bl.Grid.box(1.0, 96))
    strong = bl.minimize_gp(trap, 10.0, grid96)
    oracle = bl.radial_harmonic_ground(10.0)
    elapsed = time.monotonic() - t0
    vir = abs(2 * strong.energy_kinetic - 2 * strong.energy_potential
              + 3 * strong.energy_interaction)
    checks = {
        "free": abs(free.energy_total - 3.0) <= 2e-3,
        "box": abs(box.energy_total - 3 * np.pi**2) <= 0.05,
        "oracle": abs(strong.energy_total / oracle.energy - 1.0) <= 1e-3,
        "residual": max(free.residual, box.residual, strong.residual) <= 1e-8,
        "virial": vir <= 5e-3 * strong.energy_total,
        "runtime": elapsed < 120.0,
    }
    _verdict(3, all(checks.values()),
             f"E0={free.energy_total!r}, Ebox={box.energy_total!r}, "
             f"E10={strong.energy_total!r} vs radial {oracle.energy!r}, "
             f"virial={vir:.2e}, {elapsed:.1f}s; failed={[k for k, v in checks.items() if not v]}")


# -------------------------------------------------------------- criterion 4
def test_criterion_4_component_bookkeeping(gp_g10_96):
    soft_s = soft_sphere_kinetic_fraction(10.0, 1.0) / soft_sphere_scattering_length(10.0, 1.0)
    pred = bl.predict_components(gp_g10_96, soft_s)
    sum_defect = abs(pred.total - gp_g10_96.energy_total)
    quartic = gp_g10_96.energy_interaction
    ratio_defect = abs(pred.interaction_qm / quartic - (1 - soft_s))
    ok = sum_defect <= 1e-12 * gp_g10_96.energy_total and ratio_defect <= 1e-12
    _verdict(4, ok, f"component sum defect {sum_defect:.2e}, "
                    f"interaction ratio defect {ratio_defect:.2e} at s={soft_s!r}")


# -------------------------------------------------------------- criterion 5
def test_criterion_5_dense_oracle_equivalence():
    from .oracles import dense_gamma, dense_ground

    t0 = time.monotonic()
    trap = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
    grid = bl.Grid.centered((12.0,) * 3, (32,) * 3)
    worst_e, worst_g = 0.0, 0.0
    cases = [(2, 1, 5.0, 1.1), (3, 1, 5.0, 1.1), (2, 2, 12.0, 0.8), (4, 1, 0.7, 1.5)]
    for (N, quanta, height, radius) in cases:
        basis = build_mode_basis(trap, grid, quanta)
        tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(height, radius))
        e_ref, x_ref, states, index = dense_ground(basis, tensor, N)
        gamma_ref = dense_gamma(x_ref, states, index, basis.size)
        assert len(states) <= 500
        gr = ground_state(basis, tensor, N)
        worst_e = max(worst_e, abs(gr.energy - e_ref))
        worst_g = max(worst_g, float(np.abs(gr.gamma - gamma_ref).max()))
    elapsed = time.monotonic() - t0
    ok = worst_e <= 1e-9 and worst_g <= 1e-8 and elapsed < 60.0
    _verdict(5, ok, f"max energy defect {worst_e:.2e}, max gamma defect {worst_g:.2e}, "
                    f"{elapsed:.1f}s over {len(cases)} instances")


# -------------------------------------------------------------- criterion 6
def test_criterion_6_condensation_trends(default_sweep):
    rows = default_sweep.rows
    overlap_last = rows[-1]["gp_overlap"]
    td = [r["trace_distance"] for r in rows]
    gap = [abs(r["E_qm_per_N"] - r["E_gp"]) for r in rows]
    mom_ok = all(r["momentum_l1"] <= r["trace_distance"] + 1e-6 for r in rows)
    chain_ok = all(r["pair_moment"] <= 1 + 1e-10
                   and r["pair_moment"] >= r["gp_overlap"] ** 2 - 2.0 / r["N"] - 1e-10
                   for r in rows)
    trends_ok = (all(td[i + 1] <= td[i] for i in range(len(td) - 1))
                 and all(gap[i + 1] <= gap[i] for i in range(len(gap) - 1)))
    pinned = json.loads((DATA / "sweep_regression.json").read_text())
    reg_ok = True
    for row, ref in zip(rows, pinned["rows"]):
        for key, val in ref.items():
            got = row[key]
            if abs(got - val) > 1e-6 * max(1.0, abs(val)):
                reg_ok = False
    ok = overlap_last > 0.9 and trends_ok and mom_ok and chain_ok and reg_ok
    _verdict(6, ok, f"overlap(N=6)={overlap_last:.6f}, td={['%.5f' % x for x in td]}, "
                    f"gap={['%.2e' % x for x in gap]}, momentum_ok={mom_ok}, "
                    f"chain_ok={chain_ok}, regression_ok={reg_ok}")


# -------------------------------------------------------------- criterion 7
def test_criterion_7_variational_upper_bound(default_sweep):
    margins = [r["rayleigh_per_N"] - r["E_qm_per_N"] for r in default_sweep.rows]
    ok = all(m >= -1e-10 for m in margins)
    _verdict(7, ok, f"Hartree margins per row {['%.2e' % m for m in margins]}")


# -------------------------------------------------------------- criterion 8
def test_criterion_8_poincare_suite(gp_g10_96):
    t0 = time.monotonic()
    regions = [Region.box(1.0, 32, 3), Region.ball(1.0, 32, 3),
               Region.box(1.0, 96, 2), Region.ball(1.0, 96, 2)]
    all_hold = True
    for region in regions:
        est = estimate_constant(region, trials=250, seed=20260810)
        all_hold &= est.holds_all

    # classical-constant oracle on the box
    region = Region.box(1.0, 48, 3)
    mesh = region.grid.meshgrid()
    f = np.cos(np.pi * mesh[0]) * np.ones(region.grid.shape)
    inst = PoincareInstance.build(region, region.mask.copy(), f)
    res = weighted_check(inst, 1.0)
    c_classical = res["rhs"] / res["lhs"]
    oracle_ok = abs(c_classical * np.pi**2 - 1.0) <= 0.02

    # weighted variant with the solved mean-field density on a ball of radius 2
    ball = Region.ball(2.0, 32, 3)
    from beclab.model import multilinear_interpolate

    w = multilinear_interpolate(gp_g10_96.grid, gp_g10_96.phi, ball.grid.axes) ** 2
    est_ball = estimate_constant(ball, trials=120, seed=11)
    weighted = weighted_estimate(ball, w, est_ball.c_star, trials=120, seed=11)
    elapsed = time.monotonic() - t0
    ok = all_hold and oracle_ok and weighted["holds_all"] and elapsed < 300.0
    _verdict(8, ok, f"1000 trials hold={all_hold}, classical C*={c_classical:.5f} "
                    f"vs {1 / np.pi**2:.5f}, weighted holds={weighted['holds_all']} "
                    f"(ratio {weighted['weight_ratio']:.1f}), {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 9
def test_criterion_9_localization_contrast(trap, grid48):
    t0 = time.monotonic()
    g = 8 * np.pi * 0.3
    gp = bl.minimize_gp(trap, g, grid48)
    basis = build_mode_basis(trap, grid48, 4)
    radii = (0.5, 1.0, 2.0, 3.0, 5.0)
    fractions = {}
    for tag, height, rng_ in (("R", 2.8025944061981067, 1.0),
                              ("R/2", 48.57272081680449, 0.5)):
        tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(height, rng_))
        gr = ground_state(basis, tensor, 2)
        prof = localization_profile(gr, gp, radii, samples=64, seed=20260810)
        fr = prof.fractions
        assert all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1))
        fractions[tag] = fr
    elapsed = time.monotonic() - t0
    idx = radii.index(2.0)       # balls of radius twice the longer range
    contrast_ok = fractions["R/2"][idx] > fractions["R"][idx]
    pinned = json.loads((DATA / "localization_regression.json").read_text())
    reg_ok = all(
        abs(fractions[tag][i] - pinned[tag][i]) <= 1e-6 * max(1.0, pinned[tag][i])
        for tag in fractions for i in range(len(radii)))
    ok = contrast_ok and reg_ok and elapsed < 600.0
    _verdict(9, ok, f"fraction(delta=2R): short={fractions['R/2'][idx]:.4f} > "
                    f"long={fractions['R'][idx]:.4f}; monotone both; "
                    f"regression_ok={reg_ok}; {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 10
def test_criterion_10_reproducibility(tmp_path):
    from beclab.cli import execute

    configs = [
        {
            "experiment": "scattering",
            "problem": {"pair_potential": {"shape": "soft_sphere", "height": 10.0,
                                           "radius": 1.0}},
            "solver": {"r_max": 50.0, "tol": 1e-9},
            "seed": 5,
        },
        {
            "experiment": "gp",
            "problem": {
                "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
                "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
            },
            "solver": {"g": 2.0, "tol": 1e-8, "max_iter": 5000},
            "seed": 5,
        },
        {
            "experiment": "poincare",
            "problem": {},
            "solver": {"region": {"kind": "ball", "radius": 1.0, "points": 24,
                                  "dimension": 3},
                       "trials": 60, "weight": {"kind": "constant"}},
            "seed": 5,
        },
        {
            "experiment": "sweep",
            "problem": {
                "trap": {"kind": "harmonic", "stiffness": [1.0, 1.0, 1.0]},
                "pair_potential": {"shape": "soft_sphere", "height": 0.01,
                                   "radius": 8.853088605086427},
                "grid": {"extent": [14.0, 14.0, 14.0], "points": [32, 32, 32]},
            },
            "solver": {"g": 0.4, "N_list": [2, 3], "max_quanta": 1},
            "seed": 5,
        },
    ]
    identical = True
    for i, cfg in enumerate(configs):
        out = tmp_path / f"out{i}"
        first = execute(cfg, out).read_bytes()
        again = execute(cfg, out, force=True).read_bytes()
        identical &= first == again
    _verdict(10, identical, f"{len(configs)} experiment kinds regenerate byte-identical reports")
