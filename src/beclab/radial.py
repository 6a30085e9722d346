"""Independent 1D radial solver for the isotropic harmonic ground state.

Used to cross-check the tensor-grid minimizer: the radially symmetric
minimizer of the quartic functional in an isotropic harmonic trap solves
the two-point boundary value problem for u(r) = sqrt(4 pi) r phi(r),

    -u'' + r^2 u + (g / 2 pi) u^3 / r^2 = mu u,   u(0) = u(rmax) = 0,

with int u^2 dr = 1.  Solved by self-consistent iteration on the density:
each pass diagonalizes the tridiagonal linearized operator and mixes the
resulting density until stationary.  Entirely different discretization and
algorithm from the 3D path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SolverFailureError

# the end rmax of the radial interval and its interior node count, the
# density change (int |dens_new - dens| dr) that ends the self-consistent
# loop, its pass limit, and the share of each pass's new density mixed in
_R_MAX = 12.0
_NODES = 6000
_TOL = 1e-11
_MAX_SCF = 500
_MIXING = 0.5


@dataclass(frozen=True)
class RadialGround:
    r: np.ndarray
    energy: float
    mu: float
    kinetic: float
    potential: float
    interaction: float


def radial_harmonic_ground(g: float) -> RadialGround:
    import scipy.linalg as sla      # here, so that importing beclab loads no scipy

    if g < 0:
        raise InvalidParameterError("coupling g must be nonnegative")
    h = _R_MAX / (_NODES + 1)
    r = h * np.arange(1, _NODES + 1)
    diag0 = 2.0 / h**2 + r**2
    off = -np.ones(_NODES - 1) / h**2

    u = r * np.exp(-r**2 / 2.0)
    u /= np.sqrt(h * np.sum(u**2))
    dens = u**2
    mu = 0.0
    for _ in range(_MAX_SCF):
        diag = diag0 + (g / (2.0 * np.pi)) * dens / r**2
        w, v = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        unew = v[:, 0] / np.sqrt(h)
        if unew[np.argmax(np.abs(unew))] < 0:
            unew = -unew
        mu = float(w[0])
        dnew = (1.0 - _MIXING) * dens + _MIXING * unew**2
        change = h * float(np.sum(np.abs(dnew - dens)))
        dens, u = dnew, unew
        if change < _TOL:
            break
    else:
        raise SolverFailureError("radial self-consistent loop did not converge",
                                 change=change, iterations=_MAX_SCF)

    du = np.diff(np.concatenate(([0.0], u, [0.0]))) / h
    kinetic = float(np.sum(du**2) * h)
    potential = float(h * np.sum(r**2 * u**2))
    interaction = float((g / (4.0 * np.pi)) * h * np.sum(u**4 / r**2))
    return RadialGround(r=r, energy=kinetic + potential + interaction,
                        mu=mu, kinetic=kinetic, potential=potential,
                        interaction=interaction)
