"""Single-particle trap modes and the fixed-N bosonic occupation basis.

Harmonic and box modes are products of per-axis 1D factors, which the
basis keeps in place of 3D arrays; tabulated modes are numeric 3D
eigenvectors.  The occupation basis holds every state or one reflection-
parity sector of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement, product
from math import comb

import numpy as np
import scipy.sparse as sp

from ..errors import CapacityError, ConfigError, ResolutionError
from ..gp import sine_matrix
from ..model import Grid, TrapSpec, axis_apply, mirror_parity


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

    Harmonic and box modes are products of 1D factors: ``axis_tables[ax]``
    holds the factors of axis ax on the grid, shape (max_quanta+1, n_ax),
    and mode m is the product of rows ``table_rows[m]``.  Tabulated traps
    have no such factors (both None) and keep their sampled eigenvectors
    in ``numeric_modes``.
    """

    trap: TrapSpec
    grid: Grid
    energies: np.ndarray           # (M,)
    quantum_numbers: tuple[tuple[int, ...], ...]
    max_quanta: int
    axis_tables: tuple[np.ndarray, ...] | None = None
    table_rows: np.ndarray | None = None     # (M, 3) int
    numeric_modes: np.ndarray | None = None  # (M, *grid.shape), tabulated traps

    @property
    def size(self) -> int:
        return len(self.energies)

    @cached_property
    def modes(self) -> np.ndarray:
        """The modes sampled on the grid, (M, *grid.shape).  Product modes
        are materialized on first use only; the solvers contract the tables."""
        if self.axis_tables is None:
            return self.numeric_modes
        return _product_modes(self.axis_tables, self.table_rows)

    @cached_property
    def gram_error(self) -> float:
        if self.axis_tables is not None:
            return _factored_gram_error(self.axis_tables, self.table_rows, self.grid)
        flat = self.modes.reshape(self.size, -1)
        w = self.grid.weights.ravel()
        g = (flat * w) @ flat.T
        return float(np.abs(g - np.eye(self.size)).max())

    @cached_property
    def axis_parity(self) -> np.ndarray | None:
        """Per-axis reflection parity of the sampled modes, 0 even and 1 odd.

        Each mode (or, for product modes, each 1D factor) is compared with
        its mirror image through the grid centre on each axis, at 1e-12 of
        its largest sample.  None when some mode has no definite parity on
        some axis (off-centre grids, mixed degenerate eigenvectors of
        tabulated traps).
        """
        if self.axis_tables is not None:
            rows = [[mirror_parity(f, 0) for f in table] for table in self.axis_tables]
            if any(None in r for r in rows):
                return None
            return np.column_stack([np.array(r)[self.table_rows[:, ax]]
                                    for ax, r in enumerate(rows)])
        out = np.zeros((self.size, self.grid.dimension), dtype=np.int64)
        for m, mode in enumerate(self.modes):
            for ax in range(self.grid.dimension):
                p = mirror_parity(mode, ax)
                if p is None:
                    return None
                out[m, ax] = p
        return out

    @cached_property
    def parity_codes(self) -> np.ndarray | None:
        """Per-mode parity code, bit ax set when the mode is odd on axis ax."""
        parity = self.axis_parity
        return None if parity is None else parity @ (1 << np.arange(parity.shape[1]))

    def potential_matrix(self) -> np.ndarray:
        """u[i,j] = int V mode_i mode_j by grid quadrature.

        For product modes V = sum_ax V_ax(x_ax) (``TrapSpec.axis_potential``)
        gives sum_ax (the V_ax-weighted 1D Gram) * (the 1D Grams of the
        other axes), elementwise over mode pairs.
        """
        if self.axis_tables is None:
            v = self.trap.sample(self.grid).ravel()
            flat = self.modes.reshape(self.size, -1)
            return (flat * (v * self.grid.weights.ravel())) @ flat.T
        weights = self.grid.axis_weights
        g0, g1, g2 = _axis_grams(self.axis_tables, self.table_rows, weights)
        v0, v1, v2 = _axis_grams(self.axis_tables, self.table_rows,
                                 [self.trap.axis_potential(ax, x) * w
                                  for ax, (x, w) in enumerate(zip(self.grid.axes, weights))])
        return v0 * g1 * g2 + g0 * v1 * g2 + g0 * g1 * v2

    def field(self, coefficients: np.ndarray) -> np.ndarray:
        """sum_i coefficients[i] mode_i on the grid.

        Product modes: the coefficients fill an (R0, R1, R2) array at the
        modes' table rows, which meets one table per axis.
        """
        if self.axis_tables is None:
            return (coefficients @ self.modes.reshape(self.size, -1)).reshape(self.grid.shape)
        c = np.zeros(tuple(len(t) for t in self.axis_tables))
        c[tuple(self.table_rows.T)] = coefficients
        return axis_apply(c, [t.T for t in self.axis_tables])

    def density(self, matrix: np.ndarray) -> np.ndarray:
        """sum_ij matrix[i, j] mode_i mode_j on the grid."""
        if self.axis_tables is None:
            flat = self.modes.reshape(self.size, -1)
            return ((matrix @ flat) * flat).sum(axis=0).reshape(self.grid.shape)
        return pair_density(matrix, self.axis_tables, self.table_rows)

    def values_at(self, node) -> np.ndarray:
        """The M modes' values at one grid node, given as an index tuple."""
        if self.axis_tables is None:
            return self.modes[(slice(None),) + tuple(node)]
        t0, t1, t2 = (t[r, i] for t, r, i in zip(self.axis_tables, self.table_rows.T, node))
        return t0 * t1 * t2

    def kinetic_matrix(self) -> np.ndarray:
        """t = diag(energies) - potential matrix (modes are eigenfunctions)."""
        return np.diag(self.energies) - self.potential_matrix()


def _axis_grams(tables, rows, axis_weights) -> list:
    """Per axis, the (M, M) Gram of the modes' 1D factors under ``axis_weights``."""
    return [((t * w) @ t.T)[np.ix_(r, r)] for t, r, w in zip(tables, rows.T, axis_weights)]


def _factored_gram_error(tables, rows, grid: Grid) -> float:
    # the Gram matrix of product modes is the elementwise product of 1D Grams
    g = np.prod(_axis_grams(tables, rows, grid.axis_weights), axis=0)
    return float(np.abs(g - np.eye(len(rows))).max())


def pair_density(matrix: np.ndarray, tables, rows: np.ndarray) -> np.ndarray:
    """sum_ij matrix[i, j] T_i conj(T_j) for modes T_i stored as per-axis
    factor rows: T_i is the product over ax of tables[ax][rows[i, ax]].

    The pair (i, j) sits at row pair (a_i, a_j) of each axis, and a table
    of 1D factor products T[a] conj(T[b]) per axis takes its place, so the
    sum is one contraction per axis.
    """
    products = [(t[:, None, :] * t.conj()[None, :, :]).reshape(-1, t.shape[1]) for t in tables]
    c = np.zeros(tuple(len(p) for p in products))
    c[tuple(r[:, None] * len(t) + r[None, :] for r, t in zip(rows.T, tables))] = matrix
    return axis_apply(c, [p.T for p in products])


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
    trap.check_grid(grid)
    if max_quanta < 0:
        raise ConfigError("max_quanta must be nonnegative", field="max_quanta")
    if trap.kind == "tabulated":
        return _numeric_mode_basis(trap, grid, max_quanta, gram_tol)
    if trap.kind not in ("harmonic", "box"):
        raise ConfigError(f"unsupported trap kind {trap.kind!r}", field="trap")
    qns, energies, tables, rows = separable_modes(trap, grid, max_quanta,
                                                  gram_tol, energy_check)
    return ModeBasis(trap=trap, grid=grid, energies=energies, quantum_numbers=tuple(qns),
                     max_quanta=max_quanta, axis_tables=tables, table_rows=rows)


def separable_modes(trap: TrapSpec, grid: Grid, max_quanta: int,
                    gram_tol: float = 1e-8, energy_check: float = 0.01):
    """Harmonic or box modes on ``grid``'s axes, without the 3D arrays.

    Returns the quantum numbers and energies in mode order, the per-axis
    1D tables and each mode's (M, 3) rows in them.  The resolution checks
    of ``build_mode_basis`` run on this grid: the Gram matrix as a product
    of 1D Grams, the highest mode's energy as a sum of 1D quotients.
    """
    rows = [q for q in product(range(max_quanta + 1), repeat=3) if sum(q) <= max_quanta]
    if trap.kind == "harmonic":
        tables = tuple(hermite_functions(max_quanta, grid.axes[ax], trap.stiffness[ax])
                       for ax in range(3))
        qns = rows
        energies = [sum(np.sqrt(trap.stiffness[ax]) * (2 * q[ax] + 1) for ax in range(3))
                    for q in qns]
    else:
        sides = grid.extent
        tables = []
        for ax in range(3):
            x = grid.axes[ax] - grid.lo[ax]
            tables.append(np.array([
                np.sqrt(2.0 / sides[ax]) * np.sin(n * np.pi * x / sides[ax])
                for n in range(1, max_quanta + 2)]))
        tables = tuple(tables)
        qns = [tuple(n + 1 for n in q) for q in rows]
        energies = [np.pi**2 * sum((q[ax] / sides[ax]) ** 2 for ax in range(3)) for q in qns]

    order = sorted(range(len(qns)), key=lambda i: (energies[i], qns[i]))
    qns = [qns[i] for i in order]
    energies = np.array([energies[i] for i in order])
    rows = np.array([rows[i] for i in order], dtype=np.int64)
    gram_error = _factored_gram_error(tables, rows, grid)
    if gram_error > gram_tol:
        raise ResolutionError(
            f"mode Gram matrix off by {gram_error:.2e}; grid too coarse")
    err = _energy_check_error(trap, grid, tables, rows[-1], energies[-1])
    if err > energy_check:
        raise ResolutionError(
            f"highest-mode energy off by {err:.2%} on this grid")
    return qns, energies, tables, rows


def _product_modes(tables, rows) -> np.ndarray:
    return (tables[0][rows[:, 0], :, None, None]
            * tables[1][rows[:, 1], None, :, None]
            * tables[2][rows[:, 2], None, None, :])


def _energy_check_error(trap: TrapSpec, grid: Grid, tables, row, energy: float) -> float:
    # quadrature Rayleigh quotient of one product mode vs its analytic energy.
    # The DST-I kinetic form and the trap potential are sums over axes, and
    # by DST-I Parseval each axis's sum of b^2 e/2 equals h sum f^2, so the
    # 3D quotient is the sum of the per-axis 1D quotients.
    quotient = 0.0
    for ax, (table, r) in enumerate(zip(tables, row)):
        f = table[r, 1:-1]
        m, h, e = len(f), grid.spacing[ax], grid.extent[ax]
        b = sine_matrix(m) @ f / (m + 1.0)
        kinetic = float(np.sum(b * b * (np.pi * np.arange(1, m + 1) / e) ** 2)) * e / 2
        v = trap.axis_potential(ax, grid.axes[ax][1:-1])
        quotient += (kinetic + h * float(np.sum(v * f * f))) / (h * float(np.sum(f * f)))
    return abs(quotient / energy - 1.0)


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
    basis = ModeBasis(trap=trap, grid=grid, energies=vals[order],
                      quantum_numbers=tuple((i, 0, 0) for i in range(count)),
                      max_quanta=max_quanta, numeric_modes=modes)
    if basis.gram_error > gram_tol:
        raise ResolutionError(f"numeric modes off orthonormality by {basis.gram_error:.2e}")
    return basis


# ---------------------------------------------------------------------------
# occupation-number basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockBasis:
    """M-mode occupation vectors with total N, graded lexicographic.

    The ordering matches combinations-with-replacement of mode indices,
    i.e. descending lexicographic on the occupation vectors.  The rank is
    additive over modes: with rem_j = N - sum_{k<=j} n_k the particles
    left after mode j, rank(n) = sum_j F_j(rem_j), where
    F_j(r) = C(r+M-j-2, r-1) for r >= 1 and j < M-1, and 0 otherwise.

    A basis holds either every state or one reflection-parity sector.  A
    state's parity code is the XOR of ``mode_codes`` over its modes with
    odd occupation; a sector keeps the states of one code in the same
    order, and ``ranks`` holds their ranks in the full space.
    """

    N: int
    M: int
    occupations: np.ndarray         # (size, M) int64
    ranks: np.ndarray               # (size,) full-space ranks, increasing
    mode_codes: np.ndarray | None = None     # per-mode parity codes of a sector
    code: int = 0                   # the sector's parity code

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @property
    def full_size(self) -> int:
        return comb(self.N + self.M - 1, self.N)

    @cached_property
    def _rank_table(self) -> np.ndarray:
        return _rank_table(self.N, self.M)

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Full-space indices of occupation rows (vectorized)."""
        rem = self.N - np.cumsum(np.atleast_2d(occ), axis=1)
        return self._rank_table[np.arange(self.M), rem].sum(axis=1)

    def sector(self, mode_codes: np.ndarray, code: int) -> "FockBasis":
        """The states of this basis whose parity code is ``code``."""
        parity = np.zeros(self.size, dtype=np.int64)
        for i in range(self.M):
            parity ^= (self.occupations[:, i] & 1) * mode_codes[i]
        keep = parity == code
        return FockBasis(N=self.N, M=self.M, occupations=self.occupations[keep],
                         ranks=self.ranks[keep], mode_codes=np.asarray(mode_codes),
                         code=int(code))

    def annihilator(self) -> sp.csr_matrix:
        """The ladder map a: N -> N-1, shape (D_{N-1} M, size).

        Row t*M + i holds a_i x at state t of the full (N-1)-particle
        basis.  a_i reaches t from the single state t + e_i, so every row
        holds at most one entry (exactly one in the full space; in a
        sector, rows whose source lies outside it are empty): the source
        state and the amplitude sqrt(n_i).  Removing one boson from mode i
        lowers rem_j by one for j < i only, so
        rank_{N-1}(n - e_i) = rank_N(n) - sum_{j<i} [F_j(rem_j) - F_j(rem_j - 1)].
        """
        M, occ, F = self.M, self.occupations, self._rank_table
        rows = comb(self.N + M - 2, self.N - 1) * M if self.N else 0
        indices = np.full(rows, -1, dtype=np.int64)
        data = np.empty(rows)
        target = self.ranks.copy()
        rem = np.full(self.size, self.N)
        for i in range(M):
            src = np.nonzero(occ[:, i])[0]
            row = target[src] * M + i
            indices[row] = src
            data[row] = np.sqrt(occ[src, i])
            rem -= occ[:, i]
            target -= F[i, rem] - F[i, np.maximum(rem - 1, 0)]
        filled = indices >= 0
        indptr = np.concatenate(([0], np.cumsum(filled)))
        return sp.csr_matrix((data[filled], indices[filled], indptr), shape=(rows, self.size))

    @classmethod
    def build(cls, N: int, M: int, dimension_cap: int = 200_000,
              mode_codes: np.ndarray | None = None) -> "FockBasis":
        """Every state, or with ``mode_codes`` the sector of state 0 (all
        bosons in mode 0).  The cap applies to the full count."""
        size = comb(N + M - 1, N)
        if size > dimension_cap:
            raise CapacityError(
                f"occupation basis has {size} states, above the cap {dimension_cap}")
        if mode_codes is not None:
            mode_codes = np.asarray(mode_codes)
            code = int(mode_codes[0] * (N % 2))
            occ, ranks = _sector_states(N, M, mode_codes, code)
            return cls(N=N, M=M, occupations=occ, ranks=ranks, mode_codes=mode_codes,
                       code=code)
        modes = np.fromiter(chain.from_iterable(combinations_with_replacement(range(M), N)),
                            dtype=np.int64, count=size * N)
        modes += np.repeat(np.arange(size) * M, N)
        occ = np.bincount(modes, minlength=size * M).reshape(size, M)
        return cls(N=N, M=M, occupations=occ, ranks=np.arange(size))


def _rank_table(N: int, M: int) -> np.ndarray:
    # F[j, r]; every entry is at most the basis size, so int64 is exact
    F = np.zeros((M, N + 1), dtype=np.int64)
    for j in range(M - 1):
        for r in range(1, N + 1):
            F[j, r] = comb(r + M - j - 2, r - 1)
    return F


def _sector_states(N: int, M: int, mode_codes: np.ndarray, code: int):
    """Occupations and full-space ranks of the N-boson states of parity
    ``code``, in basis order, without enumerating the other sectors.

    Modes are filled in order, each partial state taking n_j = rem, rem - 1,
    ..., 0 bosons in turn (the basis order).  A partial state is kept only
    while the modes after it can still complete ``code`` with the bosons
    left: ``reach[j, r]`` marks the codes that modes j.. give with r bosons.
    Each state's rank accumulates F_j(rem_j) on the way; its occupations
    are read back through the parent links.
    """
    F = _rank_table(N, M)
    codes = np.arange(1 << int(mode_codes.max()).bit_length())
    reach = np.zeros((M + 1, N + 1, len(codes)), dtype=bool)
    reach[M, 0, 0] = True
    for j in range(M - 1, -1, -1):
        # same[r]: the codes of modes j+1.. with r - n bosons for an even n;
        # an odd n reads same[r - 1] and adds mode j's code
        same = reach[j + 1].copy()
        for start in (0, 1):
            same[start::2] = np.logical_or.accumulate(same[start::2], axis=0)
        reach[j] = same
        reach[j, 1:] |= same[:-1][:, codes ^ mode_codes[j]]

    rem = np.array([N])
    acc = np.array([0])               # parity code of the modes filled so far
    rank = np.array([0])
    parents, counts = [], []
    for j in range(M):
        take = rem + 1
        parent = np.repeat(np.arange(len(rem)), take)
        r = np.arange(len(parent)) - np.repeat(np.cumsum(take) - take, take)   # bosons left
        n = rem[parent] - r
        c = acc[parent] ^ (mode_codes[j] * (n % 2))
        keep = reach[j + 1, r, c ^ code]
        parent, n, rem, acc = parent[keep], n[keep], r[keep], c[keep]
        rank = rank[parent] + F[j, rem]
        parents.append(parent)
        counts.append(n)
    occ = np.empty((len(rem), M), dtype=np.int64)
    state = np.arange(len(rem))
    for j in range(M - 1, -1, -1):
        occ[:, j] = counts[j][state]
        state = parents[j][state]
    return occ, rank
