"""Ground states of the one-body energy functional with quartic repulsion.

E[phi] = int ( |grad phi|^2 + V |phi|^2 + g |phi|^4 ),  int |phi|^2 = 1.

The minimizer is found by preconditioned nonlinear conjugate gradients
(Polak-Ribiere+) on the unit sphere (Antoine, Levitt & Tang, J. Comput.
Phys. 343, 92 (2017)), on the Dirichlet sine-spectral discretization of
the kinetic term.  The preconditioner inverts a shifted separable model of
the linear part through per-axis dense eigendecompositions: the spectral
kinetic term plus V along the axis lines through its sampled minimum,
which is exact for harmonic and box traps.  Each step moves along a great
circle by the angle that minimizes the local quadratic model of the
energy, with backtracking so the recorded energy sequence never
increases.  The converged state satisfies the variational equation
-lap phi + V phi + 2 g phi^3 = mu phi to the requested residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.fft import dstn

from .errors import (ConfigError, DomainTooSmallError, InvalidParameterError,
                     SolverFailureError)
from .model import Grid, TrapSpec

_ENERGY_SLACK = 1e-13          # accepted per-step energy increase
_BOUNDARY_RATIO = 1e-8         # required boundary decay for confining traps


@dataclass(frozen=True)
class GPState:
    """Normalized nonnegative minimizer on a grid plus its energy split."""

    phi: np.ndarray            # full grid, zero on the Dirichlet boundary
    grid: Grid
    trap: TrapSpec
    g: float
    energy_total: float
    energy_kinetic: float
    energy_potential: float
    energy_interaction: float
    mu: float
    residual: float
    iterations: int
    energy_trace: tuple[float, ...]
    boundary_ratio: float

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def norm_error(self) -> float:
        return abs(self.grid.integrate(self.phi**2) - 1.0)

    def interaction_density_integral(self) -> float:
        """int |phi|^4, the quantity every coupling multiplies."""
        return self.grid.integrate(self.phi**4)


@dataclass(frozen=True)
class EnergyComponentPrediction:
    """Large-N per-particle energy components implied by a kinetic fraction s.

    kinetic = int|grad phi|^2 + g s int|phi|^4, potential = int V|phi|^2,
    interaction = (1-s) g int|phi|^4; the three sum to the functional's
    minimum value identically.
    """

    kinetic_qm: float
    potential_qm: float
    interaction_qm: float
    s: float

    @property
    def total(self) -> float:
        return self.kinetic_qm + self.potential_qm + self.interaction_qm


# ---------------------------------------------------------------------------
# spectral helpers (Dirichlet sine basis on the interior nodes)
# ---------------------------------------------------------------------------

class _Workspace:
    """Per-(grid, trap) arrays shared by the minimizer's iterations."""

    def __init__(self, trap: TrapSpec, grid: Grid):
        self.d = grid.dimension
        self.m = tuple(n - 2 for n in grid.points)
        self.interior = tuple(slice(1, -1) for _ in range(self.d))
        self.hd = float(np.prod(grid.spacing))
        self.V = trap.sample(grid)[self.interior]
        # continuum sine eigenvalues (pi k / L)^2 per axis
        self.kappa = [
            (np.pi * np.arange(1, m + 1) / e) ** 2
            for m, e in zip(self.m, grid.extent)
        ]
        self.KK = _tensor_sum(self.kappa)
        self.sine_factor = float(np.prod([e / 2 for e in grid.extent]))
        self.dst_norm = float(np.prod([(m + 1.0) for m in self.m]))
        # separable model H0 of the linear part for the preconditioner: per
        # axis the spectral kinetic matrix plus V along the axis line through
        # the sampled minimum, less (d-1)/d of that minimum, so the axis terms
        # sum to V itself whenever V is separable (harmonic, box)
        centre = np.unravel_index(np.argmin(self.V), self.V.shape)
        offset = float(self.V[centre]) * (self.d - 1) / self.d
        eigs, vecs = [], []
        for ax in range(self.d):
            m = self.m[ax]
            k = np.arange(1, m + 1)
            S = np.sin(np.pi * np.outer(k, k) / (m + 1.0))
            K1 = (S * self.kappa[ax]) @ S.T * (2.0 / (m + 1.0))
            line = self.V[centre[:ax] + (slice(None),) + centre[ax + 1:]]
            w, U = sla.eigh(K1 + np.diag(line - offset))
            eigs.append(w)
            vecs.append(U)
        self.pre_eigs = _tensor_sum(eigs)
        self.pre_vecs = vecs
        self.lam0 = float(sum(w[0] for w in eigs))
        self.gap = float(min(w[1] - w[0] for w in eigs))

    def coefficients(self, p: np.ndarray) -> np.ndarray:
        return dstn(p, type=1) / self.dst_norm

    def from_coefficients(self, b: np.ndarray) -> np.ndarray:
        return dstn(b, type=1) / 2.0**self.d

    def kinetic(self, b: np.ndarray) -> float:
        return float(np.sum(b * b * self.KK) * self.sine_factor)

    def laplacian_neg(self, b: np.ndarray) -> np.ndarray:
        return self.from_coefficients(b * self.KK)

    def ground_mode(self) -> np.ndarray:
        """Lowest eigenvector of H0: the product of the per-axis ones."""
        p = np.ones(self.m)
        for ax, U in enumerate(self.pre_vecs):
            shape = [1] * self.d
            shape[ax] = self.m[ax]
            p = p * np.abs(U[:, 0]).reshape(shape)
        return p

    def precondition(self, r: np.ndarray, mu: float) -> np.ndarray:
        """(H0 - lam0 + sigma)^-1 r in the per-axis eigenbases.

        The shift sigma = mu - lam0 stands in for the mean field.  Its floor
        keeps the operator positive definite when mu sits at or below lam0
        (g = 0, or a non-separable V that H0 only models).
        """
        sigma = max(mu - self.lam0, 0.1 * self.gap)
        c = _tensor_apply(r, self.pre_vecs, transpose=True)
        c /= self.pre_eigs - (self.lam0 - sigma)
        return _tensor_apply(c, self.pre_vecs, transpose=False)


def _tensor_sum(per_axis):
    out = per_axis[0]
    for arr in per_axis[1:]:
        out = out[..., None] + arr
    return out


def _tensor_apply(arr, mats, transpose):
    for ax, U in enumerate(mats):
        M = U.T if transpose else U
        arr = np.moveaxis(np.tensordot(M, np.moveaxis(arr, ax, 0), axes=(1, 0)), 0, ax)
    return arr


def minimize_gp(trap: TrapSpec, g: float, grid: Grid, max_iter: int = 5000,
                tol: float = 1e-8, initial: np.ndarray | None = None) -> GPState:
    """Minimize the functional at coupling ``g`` on ``grid``.

    Raises SolverFailureError when the residual target is not reached and
    DomainTooSmallError when the converged state has not decayed to
    1e-8 of its peak at the grid boundary (confining traps only).
    """
    if not (math.isfinite(g) and g >= 0):
        raise InvalidParameterError("coupling g must be finite and nonnegative")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError("tol must be finite and positive")
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be at least 1")
    if grid.dimension != trap.dimension:
        raise ConfigError("grid and trap dimensions disagree", field="grid")
    ws = _Workspace(trap, grid)
    hd = ws.hd

    if initial is not None:
        phi = np.asarray(initial, dtype=float)
        phi = phi[ws.interior].copy() if phi.shape == grid.shape else phi.copy()
        if phi.shape != ws.m:
            raise ConfigError("initial guess shape does not match the grid", field="initial")
        phi = np.abs(phi)
    else:
        phi = ws.ground_mode()
    phi /= math.sqrt(hd * float(np.sum(phi**2)))

    def evaluate(p, b):
        hp = ws.laplacian_neg(b) + (ws.V + 2.0 * g * p * p) * p
        e = ws.kinetic(b) + hd * float(np.sum((ws.V + g * p * p) * p * p))
        mu = hd * float(np.sum(p * hp))
        r = hp - mu * p
        res = math.sqrt(float(np.sum(r * r)) / float(np.sum((mu * p) ** 2)))
        return e, mu, r, res

    b = ws.coefficients(phi)
    energy, mu, r, residual = evaluate(phi, b)
    trace = [energy]
    r_prev = q_prev = None      # last accepted residual and unit direction
    it = 0
    for it in range(1, max_iter + 1):
        if residual <= tol:
            break
        # preconditioned Polak-Ribiere+ direction in the tangent space of
        # the sphere
        z = ws.precondition(r, mu)
        z -= hd * float(np.sum(phi * z)) * phi
        rz = float(np.sum(r * z))
        q = -z
        if r_prev is not None:
            beta = max(0.0, (rz - float(np.sum(r_prev * z))) / rz_prev)
            q += (beta * norm_prev) * q_prev
            q -= hd * float(np.sum(phi * q)) * phi
            if float(np.sum(q * r)) >= 0.0:     # no descent: restart along -Pr
                np.negative(z, out=q)
        del z
        q_norm = math.sqrt(hd * float(np.sum(q * q)))
        q /= q_norm
        # angle along the great circle cos(t) phi + sin(t) q that minimizes
        # the quadratic model of E from its exact slope and curvature at
        # t = 0; q's sine coefficients serve the curvature and every trial.
        # Where the model is not convex, try the preconditioned step length.
        bq = ws.coefficients(q)
        slope = 2.0 * hd * float(np.sum(r * q))
        curvature = 2.0 * (ws.kinetic(bq) - mu
                           + hd * float(np.sum((ws.V + 6.0 * g * phi * phi) * q * q)))
        theta = min(-slope / curvature if curvature > 0 else q_norm, 0.5 * math.pi)
        accepted = False
        for _ in range(60):
            # positive initial data plus energy descent keeps the iterate in
            # the ground well; no positivity projection (the spectral
            # minimizer may ring at the tail below the grid's noise floor)
            c, s = math.cos(theta), math.sin(theta)
            trial = c * phi + s * q
            scale = 1.0 / math.sqrt(hd * float(np.sum(trial**2)))
            trial *= scale
            b_t = (c * scale) * b + (s * scale) * bq
            e_t, mu_t, r_t, res_t = evaluate(trial, b_t)
            # never record an energy increase; once the energy has flattened,
            # demand residual progress so the iteration cannot wander on the
            # level set
            if e_t <= energy + _ENERGY_SLACK and (
                    e_t <= energy - 1e-12 or res_t <= residual * 0.999 or res_t <= tol):
                r_prev, rz_prev, q_prev, norm_prev = r, rz, q, q_norm
                phi, energy, b = trial, e_t, b_t
                mu, r, residual = mu_t, r_t, res_t
                trace.append(energy)
                accepted = True
                break
            theta *= 0.4
        if not accepted:
            raise SolverFailureError("conjugate-gradient minimizer stalled before reaching tol",
                                     residual=residual, iterations=it)
    else:
        raise SolverFailureError("conjugate-gradient minimizer did not converge",
                                 residual=residual, iterations=max_iter)

    if phi.flat[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    # far-tail points sit below the transform noise floor where the sign is
    # rounding-dominated; the true minimizer is strictly positive, so pin
    # those points to a positive floor without touching resolved values
    peak = float(np.abs(phi).max())
    phi = np.maximum(phi, 1e-30 * peak)
    phi /= math.sqrt(hd * float(np.sum(phi**2)))
    kinetic = ws.kinetic(b)
    potential = hd * float(np.sum(ws.V * phi * phi))
    interaction = g * hd * float(np.sum(phi**4))
    total = kinetic + potential + interaction

    full = np.zeros(grid.shape)
    full[ws.interior] = phi
    peak = float(phi.max())
    boundary = _boundary_layer_max(phi) / peak
    if trap.kind != "box" and boundary > _BOUNDARY_RATIO:
        raise DomainTooSmallError(
            f"boundary amplitude {boundary:.2e} of peak exceeds {_BOUNDARY_RATIO:.0e}; "
            "enlarge the grid extent")

    return GPState(phi=full, grid=grid, trap=trap, g=float(g),
                   energy_total=total, energy_kinetic=kinetic,
                   energy_potential=potential, energy_interaction=interaction,
                   mu=total + interaction, residual=residual, iterations=it,
                   energy_trace=tuple(trace), boundary_ratio=boundary)


def _boundary_layer_max(interior: np.ndarray) -> float:
    out = 0.0
    for ax in range(interior.ndim):
        sl = [slice(None)] * interior.ndim
        sl[ax] = 0
        out = max(out, float(np.abs(interior[tuple(sl)]).max()))
        sl[ax] = -1
        out = max(out, float(np.abs(interior[tuple(sl)]).max()))
    return out


def gp_energy_components(state: GPState) -> tuple[float, float, float]:
    """(kinetic, potential, interaction) recomputed from the stored phi."""
    if state.norm_error() > 1e-8:
        raise InvalidParameterError("state is not normalized")
    ws = _Workspace(state.trap, state.grid)
    p = state.phi[ws.interior]
    b = ws.coefficients(p)
    kinetic = ws.kinetic(b)
    potential = ws.hd * float(np.sum(ws.V * p * p))
    interaction = state.g * ws.hd * float(np.sum(p**4))
    return kinetic, potential, interaction


def predict_components(state: GPState, s: float) -> EnergyComponentPrediction:
    """Split the minimizer's energy into implied per-particle components."""
    if not (0.0 < s <= 1.0):
        raise InvalidParameterError("kinetic fraction s must lie in (0, 1]")
    quartic = state.energy_interaction          # g * int phi^4
    return EnergyComponentPrediction(
        kinetic_qm=state.energy_kinetic + s * quartic,
        potential_qm=state.energy_potential,
        interaction_qm=(1.0 - s) * quartic,
        s=float(s),
    )


def coupling_2d(N: int, a: float) -> float:
    """Planar coupling 4 pi N / |ln(a^2 N)| in the dilute regime a^2 N < 1."""
    if N < 1:
        raise InvalidParameterError("N must be at least 1")
    if a <= 0:
        raise InvalidParameterError("scattering length must be positive")
    if a * a * N >= 1.0:
        raise InvalidParameterError(
            f"a^2 N = {a * a * N} is outside the dilute regime (need < 1)")
    return 4.0 * math.pi * N / abs(math.log(a * a * N))


def coupling_3d(N: int, a: float) -> float:
    """g = 4 pi N a."""
    if N < 1:
        raise InvalidParameterError("N must be at least 1")
    if a < 0:
        raise InvalidParameterError("scattering length must be nonnegative")
    return 4.0 * math.pi * N * a
