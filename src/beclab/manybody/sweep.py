"""The many-body pipeline, and the particle-number sweep at fixed coupling.

``prepare_pipeline`` does the work every particle number shares: hard-core
substitution, the zero-energy scattering solve, the mode basis and the
mean-field reference at coupling g.  ``solve_instance`` then solves one N
with the pair potential rescaled to scattering length a and compares it
with that reference.  A ``manybody`` run is one instance; the sweep keeps g
fixed and runs every N with a = g / 4 pi N.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError
from ..gp import GPState, minimize_gp, predict_components
from ..model import Grid, PairPotential, TrapSpec, pair_fft_lattice, scale_pair_potential
from ..scattering import hard_sphere_substitute, solve_zero_energy
from .basis import ModeBasis, build_mode_basis
from .ground import ManyBodyGround, ground_state, hartree_energy
from .metrics import CondensateReport, condensate_metrics, expand_reference
from .tensor import interaction_tensor

CSV_HEADER = ("N,a,g,E_qm_per_N,E_gp,gp_overlap,trace_distance,momentum_l1,"
              "kin,pot,int,kin_pred,pot_pred,int_pred,s")


@dataclass(frozen=True)
class PipelineSetup:
    potential: PairPotential        # after hard-core substitution
    substituted: dict | None        # the stand-in's height and radius, if any
    scattering_length: float
    s: float                        # kinetic fraction of the unit-length profile
    basis: ModeBasis
    gp: GPState
    reference: tuple[np.ndarray, float]


def prepare_pipeline(trap: TrapSpec, potential: PairPotential, g: float, grid: Grid,
                     max_quanta: int = 3, gp_grid: Grid | None = None, *,
                     a_max: float) -> PipelineSetup:
    """Shared set-up; ``gp_grid`` (default: ``grid``) carries the reference.
    Hard spheres become tall soft spheres of equal scattering length.  A
    tabulated trap's modes exist on ``grid`` alone, so another ``gp_grid``
    is refused before any solve (``expand_reference`` refuses it too).
    ``a_max``, the largest scattering length a solve of the set-up asks
    for, widens the potential most: the pair transforms' lattice it pads
    is checked before the mean-field solve."""
    if trap.kind == "tabulated" and gp_grid not in (None, grid):
        raise ConfigError("tabulated modes read the mean-field reference on the mode "
                          "grid only", field="gp_grid")
    substituted = None
    if potential.has_hard_core:
        potential = hard_sphere_substitute(potential.core)
        substituted = {"height": potential.height, "radius": potential.radius}
    scat = solve_zero_energy(potential, r_max=max(80.0, 6 * potential.range))
    if scat.a <= 0 or scat.s is None:
        raise ConfigError("needs a repulsive potential with positive scattering length",
                          field="pair_potential")
    widest = scale_pair_potential(potential, a_max / scat.a)
    pair_fft_lattice(grid, widest.range, "problem.pair_potential")
    gp = minimize_gp(trap, g, grid if gp_grid is None else gp_grid)
    basis = build_mode_basis(trap, grid, max_quanta)
    return PipelineSetup(potential=potential, substituted=substituted,
                         scattering_length=scat.a, s=scat.s / scat.a, basis=basis, gp=gp,
                         reference=expand_reference(gp, basis))


def solve_instance(setup: PipelineSetup, N: int, a: float
                   ) -> tuple[ManyBodyGround, CondensateReport, float]:
    """Ground state of N bosons at scattering length a, its metrics against
    the mean-field reference, and the Hartree bound per particle.  The
    solve runs in the parity sector of the fully condensed state."""
    tensor = interaction_tensor(setup.basis, scale_pair_potential(setup.potential,
                                                                  a / setup.scattering_length))
    ground = ground_state(setup.basis, tensor, N)
    metrics = condensate_metrics(ground, setup.reference)
    return ground, metrics, hartree_energy(ground.ham, setup.reference[0]) / N


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


def gp_limit_sweep(trap: TrapSpec, base_potential: PairPotential, g: float, N_list, grid: Grid,
                   max_quanta: int = 3, gp_grid: Grid | None = None) -> SweepResult:
    """Run every N with a = g / (4 pi N) and collect the comparison table.

    ``grid`` carries the interaction tensors and mode basis; ``gp_grid``
    (default: the same) may be finer for the mean-field reference of a
    harmonic or box trap (``expand_reference`` refuses it for a tabulated
    one).
    """
    if g <= 0:
        raise ConfigError("sweep needs a positive coupling g", field="g")
    N_list = [int(n) for n in N_list]
    if not N_list or any(n < 1 for n in N_list):
        raise ConfigError("particle numbers must be given and positive", field="N_list")

    setup = prepare_pipeline(trap, base_potential, g, grid, max_quanta, gp_grid,
                             a_max=g / (4.0 * math.pi * min(N_list)))
    gp = setup.gp
    prediction = predict_components(gp, setup.s)
    u_matrix = setup.basis.potential_matrix()
    t_matrix = np.diag(setup.basis.energies) - u_matrix

    rows = []
    for N in N_list:
        a = g / (4.0 * math.pi * N)
        ground, report, rayleigh = solve_instance(setup, N, a)
        kin = float(np.sum(t_matrix * ground.gamma)) / N
        pot = float(np.sum(u_matrix * ground.gamma)) / N
        inter = ground.energy / N - kin - pot
        rows.append(asdict(report) | {
            "N": N, "a": a, "g": g,
            "E_qm_per_N": ground.energy / N,
            "E_gp": gp.energy_total,
            "kin": kin, "pot": pot, "int": inter,
            "kin_pred": prediction.kinetic_qm,
            "pot_pred": prediction.potential_qm,
            "int_pred": prediction.interaction_qm,
            "s": setup.s,
            "rayleigh_per_N": rayleigh,
            "eigen_residual": ground.residual,
        })
        # ground keeps its Hamiltonian: holding it into the next solve raises the peak RSS
        del ground
    substituted = None if setup.substituted is None else dict(
        setup.substituted, reason="hard core replaced for the mode expansion")
    return SweepResult(rows=tuple(rows), s=float(setup.s),
                       base_scattering_length=float(setup.scattering_length),
                       gp_energy=gp.energy_total,
                       substituted_potential=substituted)
