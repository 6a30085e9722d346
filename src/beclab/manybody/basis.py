"""Single-particle trap modes and the fixed-N bosonic occupation basis."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from ..errors import CapacityError, ConfigError, ResolutionError
from ..model import Grid, TrapSpec
from ..gp import _Workspace  # sine-spectral kinetic form for the accuracy check


def hermite_functions(nmax: int, x: np.ndarray, stiffness: float = 1.0) -> np.ndarray:
    """Orthonormal eigenfunctions of -d2/dx2 + k x^2, rows n = 0..nmax.

    Stable normalized recurrence; the length scale is k^(-1/4) and the
    energies are sqrt(k) (2n + 1).
    """
    s = stiffness**0.25
    y = s * np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1, len(y)))
    out[0] = np.pi**-0.25 * np.exp(-y * y / 2.0)
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * y * out[0]
    for n in range(2, nmax + 1):
        out[n] = np.sqrt(2.0 / n) * y * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out * np.sqrt(s)


@dataclass(frozen=True)
class ModeBasis:
    """Orthonormal grid-sampled trap eigenfunctions with their energies.

    Modes are ordered by increasing single-particle energy, ties broken
    lexicographically by quantum numbers.  For harmonic traps the
    truncation keeps all modes with total quanta <= max_quanta; box traps
    use the analogous excitation total over the three indices.
    """

    trap: TrapSpec
    grid: Grid
    modes: np.ndarray              # (M, *grid.shape)
    energies: np.ndarray           # (M,)
    quantum_numbers: tuple[tuple[int, ...], ...]
    max_quanta: int

    @property
    def size(self) -> int:
        return len(self.energies)

    @cached_property
    def gram_error(self) -> float:
        flat = self.modes.reshape(self.size, -1)
        w = self.grid.weights.ravel()
        g = (flat * w) @ flat.T
        return float(np.abs(g - np.eye(self.size)).max())

    @cached_property
    def quanta(self) -> np.ndarray:
        return np.array([sum(q) for q in self.quantum_numbers])

    @cached_property
    def axis_parity(self) -> np.ndarray | None:
        """Per-axis reflection parity of the sampled modes, 0 even and 1 odd.

        Each mode is compared with its mirror image through the grid centre
        on each axis, at 1e-12 of its largest sample.  None when some mode
        has no definite parity on some axis (off-centre grids, mixed
        degenerate eigenvectors of tabulated traps).
        """
        out = np.zeros((self.size, self.grid.dimension), dtype=np.int64)
        for m, mode in enumerate(self.modes):
            tol = 1e-12 * np.abs(mode).max()
            for ax in range(self.grid.dimension):
                mirror = np.flip(mode, axis=ax)
                if np.abs(mode - mirror).max() <= tol:
                    continue
                if np.abs(mode + mirror).max() > tol:
                    return None
                out[m, ax] = 1
        return out

    def potential_matrix(self) -> np.ndarray:
        """u[i,j] = int V mode_i mode_j by grid quadrature."""
        v = self.trap.sample(self.grid).ravel()
        flat = self.modes.reshape(self.size, -1)
        return (flat * (v * self.grid.weights.ravel())) @ flat.T

    def kinetic_matrix(self) -> np.ndarray:
        """t = diag(energies) - potential matrix (modes are eigenfunctions)."""
        return np.diag(self.energies) - self.potential_matrix()


def _harmonic_quantum_numbers(max_quanta: int, dim: int):
    out = []
    rng = range(max_quanta + 1)
    if dim == 3:
        for nx in rng:
            for ny in rng:
                for nz in rng:
                    if nx + ny + nz <= max_quanta:
                        out.append((nx, ny, nz))
    else:
        for nx in rng:
            for ny in rng:
                if nx + ny <= max_quanta:
                    out.append((nx, ny))
    return out


def build_mode_basis(trap: TrapSpec, grid: Grid, max_quanta: int = 3,
                     gram_tol: float = 1e-8, energy_check: float = 0.01) -> ModeBasis:
    """Assemble the truncated orthonormal mode set for the trap.

    Harmonic and box traps get analytic eigenfunctions sampled on the
    grid; tabulated traps are diagonalized numerically.  Raises
    ResolutionError when the grid cannot hold the highest mode (quadrature
    Rayleigh quotient off by more than ``energy_check`` relative, or the
    Gram matrix off orthonormality by more than ``gram_tol``).
    """
    if trap.dimension != 3:
        raise ConfigError("mode bases are built in 3D only", field="trap")
    if grid.dimension != trap.dimension:
        raise ConfigError("grid and trap dimensions disagree", field="grid")
    if max_quanta < 0:
        raise ConfigError("max_quanta must be nonnegative", field="max_quanta")

    if trap.kind == "harmonic":
        qns = _harmonic_quantum_numbers(max_quanta, 3)
        per_axis = [hermite_functions(max_quanta, grid.axes[ax], trap.stiffness[ax])
                    for ax in range(3)]
        energies = [sum(np.sqrt(trap.stiffness[ax]) * (2 * q[ax] + 1) for ax in range(3))
                    for q in qns]
        modes = [per_axis[0][q[0]][:, None, None]
                 * per_axis[1][q[1]][None, :, None]
                 * per_axis[2][q[2]][None, None, :] for q in qns]
    elif trap.kind == "box":
        qns = [tuple(n + 1 for n in q) for q in _harmonic_quantum_numbers(max_quanta, 3)]
        sides = grid.extent
        per_axis = []
        for ax in range(3):
            x = grid.axes[ax] - grid.lo[ax]
            per_axis.append(np.array([
                np.sqrt(2.0 / sides[ax]) * np.sin(n * np.pi * x / sides[ax])
                for n in range(1, max_quanta + 2)]))
        energies = [np.pi**2 * sum((q[ax] / sides[ax]) ** 2 for ax in range(3)) for q in qns]
        modes = [per_axis[0][q[0] - 1][:, None, None]
                 * per_axis[1][q[1] - 1][None, :, None]
                 * per_axis[2][q[2] - 1][None, None, :] for q in qns]
    elif trap.kind == "tabulated":
        return _numeric_mode_basis(trap, grid, max_quanta, gram_tol)
    else:
        raise ConfigError(f"unsupported trap kind {trap.kind!r}", field="trap")

    order = sorted(range(len(qns)), key=lambda i: (energies[i], qns[i]))
    qns = [qns[i] for i in order]
    energies = np.array([energies[i] for i in order])
    modes = np.array([modes[i] for i in order])
    basis = ModeBasis(trap=trap, grid=grid, modes=modes, energies=energies,
                      quantum_numbers=tuple(qns), max_quanta=max_quanta)
    if basis.gram_error > gram_tol:
        raise ResolutionError(
            f"mode Gram matrix off by {basis.gram_error:.2e}; grid too coarse")
    err = _energy_check_error(basis)
    if err > energy_check:
        raise ResolutionError(
            f"highest-mode energy off by {err:.2%} on this grid")
    return basis


def _energy_check_error(basis: ModeBasis) -> float:
    # quadrature Rayleigh quotient of the highest mode vs its analytic energy
    ws = _Workspace(basis.trap, basis.grid)
    mode = basis.modes[-1][ws.interior]
    b = ws.coefficients(mode)
    num = ws.kinetic(b) + ws.hd * float(np.sum(ws.V * mode * mode))
    den = ws.hd * float(np.sum(mode * mode))
    return abs(num / den / basis.energies[-1] - 1.0)


def _numeric_mode_basis(trap, grid, max_quanta, gram_tol):
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import eigsh

    count = comb(max_quanta + 3, 3)
    n = [p - 2 for p in grid.points]
    if np.prod(n) > 4e5:
        raise CapacityError("tabulated-trap eigensolve grid too large")
    mats = []
    for ax in range(3):
        h = grid.spacing[ax]
        lap = diags([np.full(n[ax], 2.0 / h**2), np.full(n[ax] - 1, -1.0 / h**2),
                     np.full(n[ax] - 1, -1.0 / h**2)], [0, -1, 1])
        mats.append(lap)
    eye = [identity(m) for m in n]
    H = (kron(kron(mats[0], eye[1]), eye[2])
         + kron(kron(eye[0], mats[1]), eye[2])
         + kron(kron(eye[0], eye[1]), mats[2])).tocsr()
    V = trap.sample(grid)[1:-1, 1:-1, 1:-1].ravel()
    H = H + diags([V], [0])
    vals, vecs = eigsh(H, k=count, which="SA", v0=np.ones(H.shape[0]))
    order = np.argsort(vals)
    hw = float(np.prod(grid.spacing))
    modes = np.zeros((count,) + grid.shape)
    for i, o in enumerate(order):
        v = vecs[:, o] / np.sqrt(hw)
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        modes[i][1:-1, 1:-1, 1:-1] = v.reshape(n)
    basis = ModeBasis(trap=trap, grid=grid, modes=modes, energies=vals[order],
                      quantum_numbers=tuple((i, 0, 0) for i in range(count)),
                      max_quanta=max_quanta)
    if basis.gram_error > gram_tol:
        raise ResolutionError(f"numeric modes off orthonormality by {basis.gram_error:.2e}")
    return basis


# ---------------------------------------------------------------------------
# occupation-number basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockBasis:
    """All M-mode occupation vectors with total N, graded lexicographic.

    The ordering matches combinations-with-replacement of mode indices,
    i.e. descending lexicographic on the occupation vectors, and ``rank``
    inverts it in closed form via a binomial table.
    """

    N: int
    M: int
    occupations: np.ndarray         # (size, M) int64

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def _binom(self) -> np.ndarray:
        C = np.zeros((self.N + self.M + 2, self.M + 2), dtype=np.int64)
        for a in range(self.N + self.M + 2):
            top = min(a, self.M + 1)
            for b in range(top + 1):
                C[a, b] = comb(a, b)
        return C

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Dense indices of occupation rows (vectorized)."""
        occ = np.atleast_2d(occ)
        rem = self.N - np.cumsum(occ, axis=1)
        out = np.zeros(occ.shape[0], dtype=np.int64)
        C = self._binom
        for j in range(self.M - 1):
            q = rem[:, j]
            nz = q >= 1
            out[nz] += C[q[nz] + self.M - j - 2, self.M - j - 1]
        return out

    @classmethod
    def build(cls, N: int, M: int, dimension_cap: int = 200_000) -> "FockBasis":
        size = comb(N + M - 1, N)
        if size > dimension_cap:
            raise CapacityError(
                f"occupation basis has {size} states, above the cap {dimension_cap}")
        occ = np.zeros((size, M), dtype=np.int64)
        for i, combo in enumerate(combinations_with_replacement(range(M), N)):
            for c in combo:
                occ[i, c] += 1
        return cls(N=N, M=M, occupations=occ)
