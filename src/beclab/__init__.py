"""Numerical laboratory for trapped dilute Bose gases.

Covers the computable side of condensation in the mean-field scaling
regime: zero-energy two-body scattering (scattering length and kinetic
fraction), ground states of the quartic one-body energy functional with
energy decomposition, exact few-boson ground states in truncated trap-mode
bases with condensate diagnostics, and property testing of the
subset-gradient Poincare inequality that controls the correlation factor.
"""

__version__ = "0.2.1"

from .errors import (BasisInsufficientError, BecLabError, CapacityError,
                     ConfigError, DomainTooSmallError, IntegrityError,
                     InvalidParameterError, OutOfDomainError, ResolutionError,
                     SolverFailureError)
from .model import (Grid, PairPotential, Problem, TrapSpec, problem_from_config,
                    scale_pair_potential)
from .scattering import (ScatteringSolution, hard_sphere_substitute,
                         soft_sphere_kinetic_fraction,
                         soft_sphere_scattering_length,
                         soft_sphere_with_scattering_length, solve_zero_energy)
from .gp import (EnergyComponentPrediction, GPState, coupling_2d, coupling_3d, minimize_gp,
                 predict_components)
from .radial import RadialGround, radial_harmonic_ground

__all__ = [
    "__version__",
    "BecLabError", "ConfigError", "InvalidParameterError", "OutOfDomainError",
    "DomainTooSmallError", "CapacityError", "ResolutionError", "BasisInsufficientError",
    "SolverFailureError", "IntegrityError",
    "Grid", "PairPotential", "Problem", "TrapSpec",
    "problem_from_config", "scale_pair_potential",
    "ScatteringSolution", "solve_zero_energy", "soft_sphere_scattering_length",
    "soft_sphere_kinetic_fraction", "soft_sphere_with_scattering_length",
    "hard_sphere_substitute",
    "GPState", "EnergyComponentPrediction", "minimize_gp",
    "predict_components", "coupling_2d", "coupling_3d",
    "RadialGround", "radial_harmonic_ground",
]
