"""Zero-energy two-body scattering: scattering length and kinetic fraction.

The radial problem for u(r) = r * phi1(r) is u'' = v(r) u / 2 with the
regular boundary condition u(0) = 0, the factor 1/2 being the two-body
reduced-mass convention in units hbar^2/2m = 1.  Outside the potential
range u is exactly linear, u = alpha (r - a), which defines the scattering
length a; the kinetic fraction is s = int |grad phi1|^2 d^3r / 4pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverFailureError
from .model import PairPotential

_MAX_STEPS = 1 << 21
_SUBSTITUTE_SHARE = 0.99     # share of the hard-core kinetic fraction a stand-in must reach


@dataclass(frozen=True)
class ScatteringSolution:
    """Radial zero-energy solution, normalized so phi1 -> 1 - a/r outward.

    ``s`` is None for an identically zero potential (no scattering).  For
    any repulsive potential with a > 0 the kinetic fraction satisfies
    0 < s <= a, which reduces to the bound s <= 1 for potentials with unit
    scattering length.
    """

    r_grid: np.ndarray
    phi1: np.ndarray
    a: float
    s: float | None
    r_max: float
    tol: float
    ode_steps: int

    def __post_init__(self):
        if self.s is not None and self.a > 0:
            if not (0.0 < self.s <= self.a * (1 + 1e-8)):
                raise SolverFailureError(
                    f"kinetic fraction s={self.s} outside (0, a]", a=self.a, s=self.s)
        if np.any(self.phi1 < -1e-12):
            raise SolverFailureError("phi1 must be nonnegative")


def solve_zero_energy(potential: PairPotential, r_max: float = 50.0,
                      tol: float = 1e-9) -> ScatteringSolution:
    """Solve the zero-energy radial equation for a finite-range potential.

    Fixed-step fourth-order integration outward across the potential range,
    with the step halved until two successive refinements agree on ``a``
    to ``tol``; ``a`` is then read off a two-point linear fit of u at
    r_max/2 and r_max.  Hard cores are handled in closed form.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive", field="tol")
    rng = potential.range
    if rng >= r_max / 2:
        raise ConfigError(
            f"potential range {rng} must lie below r_max/2 = {r_max / 2} "
            "so the asymptotic fit sees the free region", field="r_max")

    if potential.is_zero:
        r = np.linspace(r_max / 256, r_max, 256)
        return ScatteringSolution(r_grid=r, phi1=np.ones_like(r), a=0.0, s=None,
                                  r_max=r_max, tol=tol, ode_steps=0)

    if potential.has_hard_core:
        return _hard_sphere_solution(potential.core, r_max, tol)

    n = 1024
    prev_a = None
    while True:
        r_in, u_in, du_in = _integrate_outward(potential, rng, n)
        a, alpha = _asymptotic_fit(r_in[-1], u_in[-1], du_in[-1], r_max)
        if prev_a is not None and abs(a - prev_a) <= tol * max(1.0, abs(a)):
            break
        if 2 * n > _MAX_STEPS:
            raise SolverFailureError(
                "zero-energy integration did not converge",
                steps=n, last_a=a, change=None if prev_a is None else abs(a - prev_a))
        prev_a = a
        n *= 2

    # kinetic fraction: interior quadrature plus the exact a^2/range tail
    phi = u_in[1:] / (alpha * r_in[1:])
    dphi = (du_in[1:] * r_in[1:] - u_in[1:]) / (alpha * r_in[1:] ** 2)
    integrand = np.concatenate(([0.0], dphi**2 * r_in[1:] ** 2))
    s = float(np.trapezoid(integrand, r_in) + a**2 / rng)

    n_out = 256
    r_out = np.linspace(rng, r_max, n_out + 1)[1:]
    r_grid = np.concatenate((r_in[1:], r_out))
    phi_out = 1.0 - a / r_out
    phi1 = np.concatenate((np.maximum(phi, 0.0), phi_out))
    return ScatteringSolution(r_grid=r_grid, phi1=phi1, a=float(a), s=s,
                              r_max=r_max, tol=tol, ode_steps=n)


def _integrate_outward(potential, rng, n):
    """Classic RK4 on u'' = v u / 2 from u(0)=0, u'(0)=1 up to the range."""
    h = rng / n
    r = h * np.arange(n + 1)
    # v on the half-step lattice; the end node takes the interior limit so
    # a sharp edge at the range (soft sphere) never leaks into the last step
    r_half = np.minimum(0.5 * h * np.arange(2 * n + 1), rng * (1.0 - 1e-13))
    f_half = 0.5 * potential.evaluate(r_half)
    u = np.empty(n + 1)
    du = np.empty(n + 1)
    u[0], du[0] = 0.0, 1.0

    ui, dui = 0.0, 1.0
    for i in range(n):
        f0, fm, f1 = f_half[2 * i], f_half[2 * i + 1], f_half[2 * i + 2]
        k1u, k1d = dui, f0 * ui
        k2u, k2d = dui + 0.5 * h * k1d, fm * (ui + 0.5 * h * k1u)
        k3u, k3d = dui + 0.5 * h * k2d, fm * (ui + 0.5 * h * k2u)
        k4u, k4d = dui + h * k3d, f1 * (ui + h * k3u)
        ui += h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        dui += h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
        u[i + 1], du[i + 1] = ui, dui
    return r, u, du


def _asymptotic_fit(r_end, u_end, du_end, r_max):
    # u is exactly linear beyond the range; sample it at r_max/2 and r_max
    u_half = u_end + du_end * (r_max / 2 - r_end)
    u_full = u_end + du_end * (r_max - r_end)
    alpha = (u_full - u_half) / (r_max / 2)
    if alpha <= 0:
        raise SolverFailureError("asymptotic slope not positive; potential too strong or not repulsive")
    a = r_max - u_full / alpha
    return a, alpha


def _hard_sphere_solution(core, r_max, tol):
    # u = r - core outside the core, zero inside: a = core and s = core exactly
    r_in = np.linspace(0.0, core, 64, endpoint=False)
    r_out = np.linspace(core, r_max, 512)
    r = np.concatenate((r_in[1:], r_out))
    phi = np.where(r >= core, 1.0 - core / np.maximum(r, core), 0.0)
    return ScatteringSolution(r_grid=r, phi1=phi, a=float(core), s=float(core),
                              r_max=r_max, tol=tol, ode_steps=0)


# ---------------------------------------------------------------------------
# closed forms for the piecewise-constant sphere, used as independent oracles
# ---------------------------------------------------------------------------

def soft_sphere_scattering_length(height: float, radius: float) -> float:
    """a = R (1 - tanh(kR)/(kR)) with k = sqrt(height/2)."""
    if height == 0:
        return 0.0
    k = math.sqrt(height / 2.0)
    return radius * (1.0 - math.tanh(k * radius) / (k * radius))


def soft_sphere_kinetic_fraction(height: float, radius: float) -> float:
    """Closed-form s for the soft sphere.

    Follows from s = a - (1/8pi) int v phi1^2 d^3r with the interior
    solution u = sinh(kr)/(k cosh(kR)).
    """
    if height == 0:
        raise ValueError("kinetic fraction undefined for a zero potential")
    k = math.sqrt(height / 2.0)
    x = k * radius
    a = soft_sphere_scattering_length(height, radius)
    return a - math.tanh(x) / (2.0 * k) + radius / (2.0 * math.cosh(x) ** 2)


def soft_sphere_with_scattering_length(a: float, radius: float) -> PairPotential:
    """Soft sphere of the given radius tuned to scattering length ``a``.

    Requires a < radius (finite heights only reach a = R in the hard
    limit).  Bisection on the closed form.
    """
    if not 0 < a < radius:
        raise ConfigError("need 0 < a < radius for a finite-height sphere")
    lo, hi = 1e-12, 4.0 / radius**2
    while soft_sphere_scattering_length(hi, radius) < a:
        hi *= 4.0
        if hi > 1e18:
            raise SolverFailureError("failed to bracket soft-sphere height")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if soft_sphere_scattering_length(mid, radius) < a:
            lo = mid
        else:
            hi = mid
    return PairPotential.soft_sphere(0.5 * (lo + hi), radius)


def hard_sphere_substitute(core: float) -> PairPotential:
    """Tall soft sphere with the same scattering length as a hard core.

    Mode-basis expansions cannot represent a hard wall, so many-body runs
    use this stand-in; the height is raised until the kinetic fraction
    reaches ``_SUBSTITUTE_SHARE`` of its hard-sphere value.
    """
    radius = core * 1.25
    while True:
        pot = soft_sphere_with_scattering_length(core, radius)
        if soft_sphere_kinetic_fraction(pot.height, pot.radius) >= _SUBSTITUTE_SHARE * core:
            return pot
        radius = core + (radius - core) * 0.5
        if radius - core < 1e-12:
            raise SolverFailureError("hard-sphere substitution failed to reach the kinetic target")
