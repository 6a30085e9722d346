"""Exact few-boson ground states in a truncated trap-mode basis.

Builds single-particle mode bases, second-quantized interaction tensors,
Lanczos ground states that keep the Hamiltonian they were solved with,
condensate diagnostics against a mean-field reference state, pair-
correlation localization profiles, and the coupled sweep over particle
number at fixed interaction strength.
"""

from .basis import FockBasis, ModeBasis, build_mode_basis
from .ground import ManyBodyGround, ground_state, hartree_energy
from .metrics import CondensateReport, condensate_metrics, expand_reference
from .localization import localization_profile
from .sweep import SweepResult, gp_limit_sweep, prepare_pipeline, solve_instance

__all__ = [
    "FockBasis", "ModeBasis", "build_mode_basis",
    "ManyBodyGround", "ground_state", "hartree_energy",
    "CondensateReport", "condensate_metrics", "expand_reference",
    "localization_profile",
    "SweepResult", "gp_limit_sweep", "prepare_pipeline", "solve_instance",
]
