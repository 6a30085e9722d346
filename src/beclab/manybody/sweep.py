"""Particle-number sweep at fixed interaction strength.

Each row solves the N-boson ground state with the pair potential rescaled
so the product of N and the scattering length stays fixed (a = g / 4 pi N),
then compares energies and one-particle observables against the shared
mean-field reference solved once at that g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..gp import minimize_gp, predict_components
from ..model import Grid, PairPotential, TrapSpec, scale_pair_potential
from ..scattering import hard_sphere_substitute, solve_zero_energy
from .basis import FockBasis, build_mode_basis
from .ground import PairOpHamiltonian, ground_state, hartree_energy
from .metrics import condensate_metrics, expand_reference
from .tensor import interaction_tensor

CSV_HEADER = ("N,a,g,E_qm_per_N,E_gp,gp_overlap,trace_distance,momentum_l1,"
              "kin,pot,int,kin_pred,pot_pred,int_pred,s")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[dict, ...]
    s: float
    base_scattering_length: float
    gp_energy: float
    substituted_potential: dict | None = None

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        cols = CSV_HEADER.split(",")
        for row in self.rows:
            lines.append(",".join(repr(float(row[c])) if c != "N" else str(int(row[c]))
                                  for c in cols))
        return "\n".join(lines) + "\n"


def gp_limit_sweep(trap: TrapSpec, base_potential: PairPotential, g: float,
                   N_list, max_quanta: int = 3, grid: Grid | None = None,
                   gp_grid: Grid | None = None, dimension_cap: int = 200_000,
                   gp_tol: float = 1e-8, scattering_r_max: float = 80.0) -> SweepResult:
    """Run every N with a = g / (4 pi N) and collect the comparison table.

    ``grid`` carries the interaction tensors and mode basis; ``gp_grid``
    (default: the same) may be finer for the mean-field reference.  Hard
    spheres are replaced by tall soft spheres of equal scattering length,
    recorded in the result.
    """
    if g <= 0:
        raise ConfigError("sweep needs a positive coupling g", field="g")
    N_list = [int(n) for n in N_list]
    if any(n < 1 for n in N_list):
        raise ConfigError("particle numbers must be positive", field="N_list")
    if grid is None:
        grid = Grid.centered((14.0,) * 3, (48,) * 3)
    if gp_grid is None:
        gp_grid = grid

    substituted = None
    if base_potential.has_hard_core:
        sub = hard_sphere_substitute(base_potential.core)
        substituted = {"height": sub.height, "radius": sub.radius,
                       "reason": "hard core replaced for the mode expansion"}
        base_potential = sub

    scat = solve_zero_energy(base_potential, r_max=scattering_r_max)
    if scat.a <= 0 or scat.s is None:
        raise ConfigError("sweep needs a repulsive potential with positive scattering length")
    s = scat.s / scat.a          # kinetic fraction of the unit-length profile

    gp = minimize_gp(trap, g, gp_grid, tol=gp_tol)
    prediction = predict_components(gp, s)
    basis = build_mode_basis(trap, grid, max_quanta)
    u_matrix = basis.potential_matrix()
    t_matrix = basis.kinetic_matrix()
    reference = expand_reference(gp, basis)
    c_ref = reference[0]

    rows = []
    for N in N_list:
        a = g / (4.0 * math.pi * N) / scat.a
        v = scale_pair_potential(base_potential, a)
        tensor = interaction_tensor(basis, v)
        fock = FockBasis.build(N, basis.size, dimension_cap=dimension_cap)
        ham = PairOpHamiltonian(basis, tensor, fock)
        ground = ground_state(basis, tensor, N, a=a, g=g, ham=ham)
        report = condensate_metrics(ground, gp, basis, ham=ham, reference=reference)
        kin = float(np.sum(t_matrix * ground.gamma)) / N
        pot = float(np.sum(u_matrix * ground.gamma)) / N
        inter = ground.energy / N - kin - pot
        rayleigh = hartree_energy(basis, tensor, N, c_ref) / N
        rows.append({
            "N": N, "a": a, "g": g,
            "E_qm_per_N": ground.energy / N,
            "E_gp": gp.energy_total,
            "gp_overlap": report.gp_overlap,
            "trace_distance": report.trace_distance,
            "momentum_l1": report.momentum_l1,
            "kin": kin, "pot": pot, "int": inter,
            "kin_pred": prediction.kinetic_qm,
            "pot_pred": prediction.potential_qm,
            "int_pred": prediction.interaction_qm,
            "s": s,
            "rayleigh_per_N": rayleigh,
            "pair_moment": report.pair_moment,
            "condensate_fraction": report.condensate_fraction,
            "truncation_weight": report.truncation_weight,
            "momentum_coverage": report.momentum_coverage,
            "eigen_residual": ground.residual,
        })
    return SweepResult(rows=tuple(rows), s=float(s),
                       base_scattering_length=float(scat.a),
                       gp_energy=gp.energy_total,
                       substituted_potential=substituted)
