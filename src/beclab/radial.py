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


@dataclass(frozen=True)
class RadialGround:
    r: np.ndarray
    energy: float
    mu: float
    kinetic: float
    potential: float
    interaction: float


def radial_harmonic_ground(g: float, r_max: float = 12.0, n: int = 6000,
                           tol: float = 1e-11, max_scf: int = 500,
                           mixing: float = 0.5) -> RadialGround:
    import scipy.linalg as sla      # here, so that importing beclab loads no scipy

    if g < 0:
        raise InvalidParameterError("coupling g must be nonnegative")
    h = r_max / (n + 1)
    r = h * np.arange(1, n + 1)
    diag0 = 2.0 / h**2 + r**2
    off = -np.ones(n - 1) / h**2

    u = r * np.exp(-r**2 / 2.0)
    u /= np.sqrt(h * np.sum(u**2))
    dens = u**2
    mu = 0.0
    for _ in range(max_scf):
        diag = diag0 + (g / (2.0 * np.pi)) * dens / r**2
        w, v = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        unew = v[:, 0] / np.sqrt(h)
        if unew[np.argmax(np.abs(unew))] < 0:
            unew = -unew
        mu = float(w[0])
        dnew = (1.0 - mixing) * dens + mixing * unew**2
        change = h * float(np.sum(np.abs(dnew - dens)))
        dens, u = dnew, unew
        if change < tol:
            break
    else:
        raise SolverFailureError("radial self-consistent loop did not converge",
                                 change=change, iterations=max_scf)

    du = np.diff(np.concatenate(([0.0], u, [0.0]))) / h
    kinetic = float(np.sum(du**2) * h)
    potential = float(h * np.sum(r**2 * u**2))
    interaction = float((g / (4.0 * np.pi)) * h * np.sum(u**4 / r**2))
    return RadialGround(r=r, energy=kinetic + potential + interaction,
                        mu=mu, kinetic=kinetic, potential=potential,
                        interaction=interaction)
