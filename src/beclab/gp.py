"""Ground states of the one-body energy functional with quartic repulsion.

E[phi] = int ( |grad phi|^2 + V |phi|^2 + g |phi|^4 ),  int |phi|^2 = 1.

The minimizer is found by preconditioned nonlinear conjugate gradients
(Polak-Ribiere+) on the unit sphere (Antoine, Levitt & Tang, J. Comput.
Phys. 343, 92 (2017)), on the Dirichlet sine-spectral discretization of
the kinetic term.  The sine transform (DST-I) is a product with the dense
m x m sine matrix along each axis, so it runs as BLAS matrix products with
no FFT, and its cost does not depend on how the grid size factors.  The
preconditioner inverts a shifted separable model of the linear part
through per-axis dense eigendecompositions, applied the same way: the
spectral kinetic term plus V along the axis lines through its sampled
minimum, which is exact for harmonic and box traps.  Each step moves
along a great circle by the angle that minimizes the local quadratic
model of the energy, with backtracking so the recorded energy sequence
never increases.  The converged state satisfies the variational equation
-lap phi + V phi + 2 g phi^3 = mu phi to the requested residual.

The minimizer is unique and positive, so on a mirror-symmetric trap it is
even under the mirror of every axis, and so is every iterate of the flow
from an even start: every operator above commutes with the mirrors.  The
flow then runs on that sector, on the first m/2 interior nodes of each
axis and the odd sine wavenumbers (1/2^d of the points, 1/2^(d+1) of
the transform work, 1/16 in 3D; the even-odd reduction of sine-spectral
methods, Solomonoff, J. Comput. Phys. 98, 174 (1992)), and the half is
mirrored onto the full grid at the end.  The route rule: the sector is taken when
every interior count m is even (an odd m has a centre plane of
multiplicity 1) and the sampled V equals its mirror image on every axis to
1e-12 of max |V|; otherwise (off-centre tabulated traps, odd m) the same
loop runs on the full interior.  Either way the flow starts from the
lowest eigenvector of the preconditioner's separable model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainTooSmallError, InvalidParameterError, SolverFailureError
from .model import Grid, TrapSpec, axis_apply

_ENERGY_SLACK = 1e-13          # accepted per-step energy increase
_BOUNDARY_RATIO = 1e-8         # required boundary decay for confining traps


@dataclass(frozen=True)
class GPState:
    """Normalized nonnegative minimizer on a grid plus its energy split.

    ``phi`` is the one grid-sized array of the state; it vanishes on the
    Dirichlet boundary, where alone the trapezoid weights differ from the
    interior weight hd = (hx hy) hz.  The integrals below use that: they
    equal ``grid.integrate(phi**k)`` bit for bit (the same products, summed
    in the same order) without building ``Grid.weights``.
    """

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

    def _power_integral(self, k: int) -> float:
        """int phi^k over the grid: sum(phi**k * hd), one temporary."""
        t = self.phi**k
        t *= math.prod(self.grid.spacing)
        return float(np.sum(t))

    def norm_error(self) -> float:
        return abs(self._power_integral(2) - 1.0)

    def interaction_density_integral(self) -> float:
        """int |phi|^4, the quantity every coupling multiplies."""
        return self._power_integral(4)


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

@lru_cache(maxsize=16)
def sine_matrix(m: int) -> np.ndarray:
    """The read-only m x m DST-I matrix 2 sin(pi j k / (m+1)), j, k = 1..m.

    It is symmetric and squares to 2(m+1) times the identity.  j k is
    reduced mod 2(m+1) before it meets pi, so each entry is as accurate as
    sin on [0, 2 pi); unreduced, the argument error grows with j k (8e-14
    at m = 94).
    """
    k = np.arange(1, m + 1)
    S = 2.0 * np.sin(np.pi / (m + 1.0) * (np.outer(k, k) % (2 * (m + 1))))
    S.setflags(write=False)
    return S


def dstn(x: np.ndarray, mats) -> np.ndarray:
    """Unnormalized DST-I along every axis through the per-axis matrices
    ``mats``: the sine matrices give scipy's ``dstn(x, type=1)``, and their
    blocks that act on the mirror-even sector its restriction (``_Workspace``).
    """
    return axis_apply(x, mats)


def _scan_potential(trap: TrapSpec, inner) -> tuple[tuple, float, bool]:
    """The first minimum of V in C order on the tensor grid of the per-axis
    coordinates ``inner``, its value, and whether V equals its mirror image
    on every axis to 1e-12 of max |V| (``mirror_parity`` 0 on each).

    V is sampled in slabs of 1/16 of the first axis (one plane at least),
    each slab of the lower half with its mirror slab, so no array of the
    grid's size is formed; every node gets the bits it has in the whole
    sample (``TrapSpec.sample_axes``).
    """
    m, rest = len(inner[0]), inner[1:]
    step = max(1, m // 16)
    best, top, gap = (math.inf,), 0.0, 0.0      # (V, node) at the minimum, max |V|, max |V - mirror|
    for i in range(0, (m + 1) // 2, step):
        j = min(i + step, (m + 1) // 2)
        lower, upper = (trap.sample_axes((inner[0][a:b],) + rest) for a, b in ((i, j), (m - j, m - i)))
        gap = max(gap, float(np.abs(lower - np.flip(upper, 0)).max()))
        for first, slab in ((i, lower), (m - j, upper)):
            k = np.unravel_index(np.argmin(slab), slab.shape)
            best = min(best, (float(slab[k]), first + int(k[0]), *map(int, k[1:])))
            top = max(top, float(slab.max()), -float(slab.min()))
            for ax in range(1, slab.ndim):
                gap = max(gap, float(np.abs(slab - np.flip(slab, ax)).max()))
    value, *centre = best
    return tuple(centre), value, gap <= 1e-12 * top


class _Workspace:
    """Per-(grid, trap) arrays shared by the minimizer's iterations.

    With ``sector`` set, and when every interior count m is even and the
    sampled V equals its mirror image on every axis, the arrays live on the
    mirror-even sector: real-space arrays on the first m/2 interior nodes
    of each axis, sine coefficients on the odd wavenumbers (the even ones
    vanish on even functions, since S[k, m+1-j] = (-1)^(k+1) S[k, j]).
    The forward transform is then the block 2 S[odd k, j <= m/2], the
    inverse S[j <= m/2, odd k], real-space sums carry the multiplicity 2^d
    in ``hd``, and coefficient-space sums keep weight 1.  Otherwise the
    blocks are the full S on the full interior and the multiplicity is 1.
    """

    def __init__(self, trap: TrapSpec, grid: Grid, sector: bool = False):
        self.d = grid.dimension
        full = tuple(n - 2 for n in grid.points)
        inner = tuple(x[1:-1] for x in grid.axes)
        centre, vmin, even = _scan_potential(trap, inner)
        self.sector = sector and all(m % 2 == 0 for m in full) and even
        self.half = tuple(slice(0, m // 2 if self.sector else m) for m in full)
        self.hd = float(np.prod(grid.spacing)) * (2.0**self.d if self.sector else 1.0)
        self.sine_factor = float(np.prod([e / 2 for e in grid.extent]))
        self.dst_norm = float(np.prod([(m + 1.0) for m in full]))
        # separable model H0 of the linear part for the preconditioner: per
        # axis the spectral kinetic matrix plus V along the axis line through
        # the sampled minimum, less (d-1)/d of that minimum, so the axis terms
        # sum to V itself whenever V is separable (harmonic, box).  On the
        # sector each axis operator is reduced to P^T H0 P, P the normalized
        # even embedding.  The floor of the shift keeps the full per-axis gap,
        # whose first excitation is odd: the full spectrum is that of P^T H0 P
        # joined with that of Q^T H0 Q, Q the normalized odd embedding
        offset = vmin * (self.d - 1) / self.d
        self.forward, self.inverse, kappa, eigs, self.pre_vecs = [], [], [], [], []
        gaps = []
        for ax, (m, e) in enumerate(zip(full, grid.extent)):
            S = sine_matrix(m)
            k2 = (np.pi * np.arange(1, m + 1) / e) ** 2      # continuum (pi k / L)^2
            line = trap.sample_axes(tuple(x if a == ax else x[c:c + 1] for a, (x, c)
                                          in enumerate(zip(inner, centre)))).ravel()
            H = (S * k2) @ S / (2.0 * (m + 1.0)) + np.diag(line - offset)
            if self.sector:
                h, odd = m // 2, slice(0, m, 2)
                S_fwd, S_inv, k2 = 2.0 * S[odd, :h], np.ascontiguousarray(S[:h, odd]), k2[odd]
                flip = H[:h, :h - 1:-1]
                w, U = np.linalg.eigh(H[:h, :h] + flip)
                low = np.sort(np.append(w[:2], np.linalg.eigvalsh(H[:h, :h] - flip)[0]))
            else:
                S_fwd = S_inv = S
                w, U = np.linalg.eigh(H)
                low = w
            gaps.append(low[1] - low[0])
            self.forward.append(S_fwd)
            self.inverse.append(S_inv)
            kappa.append(k2)
            eigs.append(w)
            self.pre_vecs.append(U)
        self.V = trap.sample_axes(tuple(x[h] for x, h in zip(inner, self.half)))
        self.m = self.V.shape
        self.KK = reduce(np.add.outer, kappa)
        self.pre_eigs = reduce(np.add.outer, eigs)
        self.lam0 = float(sum(w[0] for w in eigs))
        self.gap = float(min(gaps))

    def coefficients(self, p: np.ndarray) -> np.ndarray:
        b = dstn(p, self.forward)
        b /= self.dst_norm
        return b

    def from_coefficients(self, b: np.ndarray) -> np.ndarray:
        p = dstn(b, self.inverse)
        p /= 2.0**self.d
        return p

    def kinetic(self, b: np.ndarray) -> float:
        return float(np.vdot(b * self.KK, b)) * self.sine_factor

    def laplacian_neg(self, b: np.ndarray) -> np.ndarray:
        return self.from_coefficients(b * self.KK)

    def ground_mode(self) -> np.ndarray:
        """Lowest eigenvector of H0: the product of the per-axis ones."""
        return reduce(np.multiply.outer, [np.abs(U[:, 0]) for U in self.pre_vecs])

    def precondition(self, r: np.ndarray, mu: float) -> np.ndarray:
        """(H0 - lam0 + sigma)^-1 r in the per-axis eigenbases.

        The shift sigma = mu - lam0 stands in for the mean field.  Its floor
        keeps the operator positive definite when mu sits at or below lam0
        (g = 0, or a non-separable V that H0 only models).
        """
        sigma = max(mu - self.lam0, 0.1 * self.gap)
        c = axis_apply(r, [U.T for U in self.pre_vecs])
        c /= self.pre_eigs - (self.lam0 - sigma)
        return axis_apply(c, self.pre_vecs)


def minimize_gp(trap: TrapSpec, g: float, grid: Grid, max_iter: int = 5000,
                tol: float = 1e-8) -> GPState:
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
    trap.check_grid(grid)
    phi, sector, fields = _minimize_interior(trap, g, grid, max_iter, tol)
    if trap.kind != "box" and fields["boundary_ratio"] > _BOUNDARY_RATIO:
        raise DomainTooSmallError(
            f"boundary amplitude {fields['boundary_ratio']:.2e} of peak exceeds "
            f"{_BOUNDARY_RATIO:.0e}; enlarge the grid extent")
    # the flow's arrays are gone: phi (on the sector, 1/2^d of the interior)
    # is the only one left beside the full grid
    full = np.zeros(grid.shape)
    unfold(phi, full[tuple(slice(1, -1) for _ in grid.points)], sector)
    return GPState(phi=full, grid=grid, trap=trap, g=float(g), **fields)


def _minimize_interior(trap: TrapSpec, g: float, grid: Grid, max_iter: int, tol: float):
    """The flow of ``minimize_gp`` and its finish, on the sector when the
    interior counts and V allow it (see ``_Workspace``), else on the full
    interior.

    Returns (phi on the working nodes, whether they are the sector, the
    GPState fields but phi, grid, trap and g).  Every array of the flow and
    of its workspace dies with this call, before the caller allocates the
    full grid.
    """
    ws = _Workspace(trap, grid, sector=True)
    hd = ws.hd
    phi = ws.ground_mode()
    phi /= math.sqrt(hd * float(np.sum(phi**2)))

    def evaluate(p, b):
        r = ws.laplacian_neg(b)
        r += (ws.V + 2.0 * g * p * p) * p          # H(p) p, made the residual in place
        e = ws.kinetic(b) + hd * float(np.vdot((ws.V + g * p * p) * p, p))
        mu = hd * float(np.vdot(p, r))
        r -= mu * p
        res = math.sqrt(float(np.vdot(r, r)) / (mu * mu * float(np.vdot(p, p))))
        return e, mu, r, res

    b = ws.coefficients(phi)
    energy, mu, r, residual = evaluate(phi, b)
    trace = [energy]
    r_prev = q_prev = None      # last accepted residual and unit direction
    it = 0
    for it in range(1, max_iter + 1):
        if residual <= tol:
            break
        if not math.isfinite(residual):
            raise SolverFailureError("mean-field residual is not finite", residual=residual,
                                     iterations=it)
        # preconditioned Polak-Ribiere+ direction in the tangent space of
        # the sphere
        z = ws.precondition(r, mu)
        z -= hd * float(np.vdot(phi, z)) * phi
        rz = float(np.vdot(r, z))
        q = -z
        if r_prev is not None:
            beta = max(0.0, (rz - float(np.vdot(r_prev, z))) / rz_prev)
            q += (beta * norm_prev) * q_prev
            q -= hd * float(np.vdot(phi, q)) * phi
            if float(np.vdot(q, r)) >= 0.0:     # no descent: restart along -Pr
                np.negative(z, out=q)
        del z
        q_norm = math.sqrt(hd * float(np.vdot(q, q)))
        q /= q_norm
        # angle along the great circle cos(t) phi + sin(t) q that minimizes
        # the quadratic model of E from its exact slope and curvature at
        # t = 0; q's sine coefficients serve the curvature and every trial.
        # Where the model is not convex, try the preconditioned step length.
        bq = ws.coefficients(q)
        slope = 2.0 * hd * float(np.vdot(r, q))
        curvature = 2.0 * (ws.kinetic(bq) - mu
                           + hd * float(np.vdot((ws.V + 6.0 * g * phi * phi) * q, q)))
        theta = min(-slope / curvature if curvature > 0 else q_norm, 0.5 * math.pi)
        accepted = False
        for _ in range(60):
            # positive initial data plus energy descent keeps the iterate in
            # the ground well; no positivity projection (the spectral
            # minimizer may ring at the tail below the grid's noise floor)
            c, s = math.cos(theta), math.sin(theta)
            trial = c * phi + s * q
            scale = 1.0 / math.sqrt(hd * float(np.vdot(trial, trial)))
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

    peak = float(phi.max())
    # on the sector the inner faces of the half are the centre planes
    boundary = _boundary_layer_max(phi, (0,) if ws.sector else (0, -1)) / peak
    return phi, ws.sector, dict(
        energy_total=total, energy_kinetic=kinetic, energy_potential=potential,
        energy_interaction=interaction, mu=total + interaction, residual=residual,
        iterations=it, energy_trace=tuple(trace), boundary_ratio=boundary)


def unfold(p: np.ndarray, out: np.ndarray, mirror: bool):
    """Write into ``out`` the full interior array whose working part is
    ``p``: p itself, or on the sector (``mirror``) the 2^d blocks of out,
    each p mirrored along the axes where the block lies in the upper half.

    Each block is written from a reversed view of p, which out does not
    overlap, so numpy copies nothing on the way.
    """
    for flips in itertools.product((False, True) if mirror else (False,), repeat=p.ndim):
        block = tuple(slice(n, 2 * n) if f else slice(0, n) for f, n in zip(flips, p.shape))
        out[block] = p[tuple(slice(None, None, -1) if f else slice(None) for f in flips)]


def _boundary_layer_max(interior: np.ndarray, faces) -> float:
    out = 0.0
    for ax in range(interior.ndim):
        for face in faces:
            out = max(out, float(np.abs(np.take(interior, face, axis=ax)).max()))
    return out


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
    if not 0.0 < a * a * N < 1.0:       # a^2 N can underflow to 0 for a tiny a
        raise InvalidParameterError(
            f"a^2 N = {a * a * N} is outside the dilute regime (need 0 < a^2 N < 1)")
    return 4.0 * math.pi * N / abs(math.log(a * a * N))


def coupling_3d(N: int, a: float) -> float:
    """g = 4 pi N a."""
    if N < 1:
        raise InvalidParameterError("N must be at least 1")
    if a < 0:
        raise InvalidParameterError("scattering length must be nonnegative")
    return 4.0 * math.pi * N * a
