"""Single-particle trap modes and the fixed-N bosonic occupation basis.

Harmonic and box modes are products of per-axis 1D factors, which the
basis keeps in place of 3D arrays: nothing here samples them in 3D.
Tabulated modes are numeric 3D eigenvectors, solved once on the mode
grid.  The occupation basis is built from N, the per-mode parity codes
(M is their count) and the mode permutations of the tensor.  It holds one
reflection-parity sector, from one enumerator that builds only the
orbits' representatives, as one vector per orbit of the permutations; the
full space is the sector of all-zero codes under the identity alone.  Its
rank table serves the one ladder map, the pair map of ``ground`` (H,
gamma, the pair moment and the N = 2 pair amplitudes), whose
(N-2)-particle representatives the same enumerator gives in rank order.
The one size it checks is ``MAX_FOCK_DIMENSION``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import comb, fsum

import numpy as np

from ..errors import CapacityError, ConfigError, ResolutionError
from ..gp import sine_matrix
from ..model import MAX_FOCK_DIMENSION, Grid, TrapSpec, axis_apply, mirror_parity

_GRAM_TOL = 1e-8        # the resolution checks of build_mode_basis
_ENERGY_CHECK = 0.01


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
    and mode m is the product of rows ``table_rows[m]``; such modes are
    never sampled in 3D (``modes`` is None).  Tabulated traps have no such
    factors (both None) and keep their sampled eigenvectors in ``modes``.
    """

    trap: TrapSpec
    grid: Grid
    energies: np.ndarray           # (M,)
    max_quanta: int
    axis_tables: tuple[np.ndarray, ...] | None = None
    table_rows: np.ndarray | None = None     # (M, 3) int
    modes: np.ndarray | None = None          # (M, *grid.shape), tabulated traps

    @property
    def size(self) -> int:
        return len(self.energies)

    @cached_property
    def parity_codes(self) -> np.ndarray:
        """Per-mode reflection-parity code, bit ax set when the mode is odd on
        axis ax.

        Each mode (or, for product modes, each 1D factor) is compared with
        its mirror image through the grid centre on each axis, at 1e-12 of
        its largest sample.  All zero when some mode has no definite parity
        on some axis (off-centre grids, mixed degenerate eigenvectors of
        tabulated traps): one class, the full space.
        """
        if self.axis_tables is not None:
            rows = [[mirror_parity(f, 0) for f in table] for table in self.axis_tables]
            parity = [[r[t] for r, t in zip(rows, mode)] for mode in self.table_rows.tolist()]
        else:
            parity = [[mirror_parity(mode, ax) for ax in range(self.grid.dimension)]
                      for mode in self.modes]
        if any(None in p for p in parity):
            return np.zeros(self.size, dtype=np.int64)
        return np.array(parity, dtype=np.int64) @ (1 << np.arange(self.grid.dimension))

    @cached_property
    def mode_perms(self) -> np.ndarray:
        """The distinct permutations of the modes that the six permutations of
        the axes induce, as a (G, M) array with the identity row first, when the
        modes are products of three bitwise-equal axis tables, each permuted
        mode is a mode and the energies are unchanged under each; the identity
        row alone otherwise (tabulated modes, unequal stiffnesses or axes).  The
        pair potential is radial, so the interaction tensor is then invariant
        under them up to the order of its per-axis sums.
        """
        identity = np.arange(self.size)[None]
        tables = self.axis_tables
        if tables is None or not all(np.array_equal(tables[0], t) for t in tables[1:]):
            return identity
        rows = [tuple(r) for r in self.table_rows.tolist()]
        index = {r: m for m, r in enumerate(rows)}
        perms = np.array([[index.get(tuple(r[a] for a in axes), -1) for r in rows]
                          for axes in permutations(range(3))])
        if (perms < 0).any() or not all(np.array_equal(self.energies[p], self.energies)
                                        for p in perms):
            return identity
        # lexicographic order puts the identity first
        return np.unique(perms, axis=0)

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


def _axis_grams(tables, rows, axis_weights) -> list:
    """Per axis, the (M, M) Gram of the modes' 1D factors under ``axis_weights``."""
    return [((t * w) @ t.T)[np.ix_(r, r)] for t, r, w in zip(tables, rows.T, axis_weights)]


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


def build_mode_basis(trap: TrapSpec, grid: Grid, max_quanta: int = 3) -> ModeBasis:
    """Assemble the truncated orthonormal mode set for the trap.

    Harmonic and box traps get analytic eigenfunctions sampled on the
    grid; tabulated traps are diagonalized numerically.  Raises
    ResolutionError when the grid cannot hold the highest mode (quadrature
    Rayleigh quotient off by more than ``_ENERGY_CHECK`` relative, or the
    Gram matrix off orthonormality by more than ``_GRAM_TOL``).
    """
    if trap.dimension != 3:
        raise ConfigError("mode bases are built in 3D only", field="trap")
    trap.check_grid(grid)
    if max_quanta < 0:
        raise ConfigError("max_quanta must be nonnegative", field="max_quanta")
    if trap.kind == "tabulated":
        return _numeric_mode_basis(trap, grid, max_quanta)
    energies, tables, rows = separable_modes(trap, grid, max_quanta)
    return ModeBasis(trap=trap, grid=grid, energies=energies, max_quanta=max_quanta,
                     axis_tables=tables, table_rows=rows)


def separable_modes(trap: TrapSpec, grid: Grid, max_quanta: int):
    """Harmonic or box modes on ``grid``'s axes, without the 3D arrays.

    Returns the energies in mode order, the per-axis 1D tables and each
    mode's (M, 3) rows in them.  A mode's per-axis energies are summed
    exactly rounded (``math.fsum``), so modes that differ by a permutation
    of equal axes have equal energies.  The resolution checks of
    ``build_mode_basis`` run on this grid: the Gram matrix as a product of
    1D Grams, the highest mode's energy as a sum of 1D quotients.
    """
    rows = [q for q in product(range(max_quanta + 1), repeat=3) if sum(q) <= max_quanta]
    if trap.kind == "harmonic":
        tables = tuple(hermite_functions(max_quanta, grid.axes[ax], trap.stiffness[ax])
                       for ax in range(3))
        energies = [fsum(np.sqrt(trap.stiffness[ax]) * (2 * q[ax] + 1) for ax in range(3))
                    for q in rows]
    else:
        sides = grid.extent
        tables = []
        for ax in range(3):
            x = grid.axes[ax] - grid.lo[ax]
            tables.append(np.array([
                np.sqrt(2.0 / sides[ax]) * np.sin(n * np.pi * x / sides[ax])
                for n in range(1, max_quanta + 2)]))
        tables = tuple(tables)
        # the quantum numbers of a box mode are its table rows plus one
        energies = [np.pi**2 * fsum(((q[ax] + 1) / sides[ax]) ** 2 for ax in range(3))
                    for q in rows]

    # ties broken by quantum numbers, whose order the table rows share
    order = sorted(range(len(rows)), key=lambda i: (energies[i], rows[i]))
    energies = np.array([energies[i] for i in order])
    rows = np.array([rows[i] for i in order], dtype=np.int64)
    # the Gram matrix of product modes is the elementwise product of 1D Grams
    gram = np.prod(_axis_grams(tables, rows, grid.axis_weights), axis=0)
    gram_error = float(np.abs(gram - np.eye(len(rows))).max())
    if gram_error > _GRAM_TOL:
        raise ResolutionError(
            f"mode Gram matrix off by {gram_error:.2e}; grid too coarse")
    err = _energy_check_error(trap, grid, tables, rows[-1], energies[-1])
    if err > _ENERGY_CHECK:
        raise ResolutionError(
            f"highest-mode energy off by {err:.2%} on this grid")
    return energies, tables, rows


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


def _numeric_mode_basis(trap, grid, max_quanta):
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import eigsh

    trap.check_eigensolve(grid)
    count = comb(max_quanta + 3, 3)
    n = [p - 2 for p in grid.points]
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
    flat = modes.reshape(count, -1)
    gram_error = float(np.abs((flat * grid.weights.ravel()) @ flat.T - np.eye(count)).max())
    if gram_error > _GRAM_TOL:
        raise ResolutionError(f"numeric modes off orthonormality by {gram_error:.2e}")
    return ModeBasis(trap=trap, grid=grid, energies=vals[order], max_quanta=max_quanta,
                     modes=modes)


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
    order, and ``ranks`` holds their ranks in the full space.  The full
    space is the sector of code 0 when every mode code is 0.

    The mode permutations ``mode_perms`` (the identity row first) permute
    the states of the sector into orbits, and ``orbits`` holds each state's.
    The basis is the orthonormal orbit sums, one per orbit in the order of
    its representative, the state of lowest rank: ``occupations`` are the
    representatives' and ``orbit_sizes`` the orbits' sizes.  With the
    identity alone every state is its own orbit.  ``_sector_states``
    enumerates the representatives alone, pruning at the ends of the blocks
    of modes that every permutation keeps, and the images of the
    representatives alone are ranked: they are the sector, ``ranks``, and
    give ``orbits``.  ``rank_table`` holds F_j(r), the table that
    enumeration ranked the states with; F_j does not depend on N, so its
    first N - 1 columns rank the (N-2)-particle states.
    """

    N: int
    occupations: np.ndarray         # (size, M) np.min_scalar_type(N): uint8 for N < 256
    orbit_sizes: np.ndarray         # (size,) int64
    ranks: np.ndarray               # the sector's full-space ranks, increasing
    orbits: np.ndarray              # each sector state's orbit, an index into the basis
    rank_table: np.ndarray          # (M, N + 1) int64, F[j, r] = F_j(r)
    mode_codes: np.ndarray          # (M,) int64 per-mode parity codes
    mode_perms: np.ndarray          # (G, M) int64 mode permutations, identity first
    code: int = 0                   # the sector's parity code

    @property
    def M(self) -> int:
        return len(self.mode_codes)

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @property
    def full_size(self) -> int:
        return comb(self.N + self.M - 1, self.N)

    def pair_sources(self, occ: np.ndarray, ranks: np.ndarray, sizes: np.ndarray,
                     k: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pair map a_k a_l: N -> N-2 at (N-2)-particle states, for pairs
        k <= l: each state's orbit in this basis and the amplitude, both
        (len(occ), len(k)).

        ``occ``, ``ranks`` and ``sizes`` are the states' occupations,
        full-space ranks and orbit sizes; ``occ`` may be the table's narrow
        unsigned type, and only these rows are cast to int64 (n + 1 must
        not wrap, and the square root of a uint8 is a float16).  a_k a_l
        reaches s only from s + e_k + e_l, with amplitude
        sqrt(s_k + 1) sqrt(s_l + 1 + d_kl), and that state must lie in the
        sector.  Adding a boson to modes k and l raises rem_j by two for
        j < k and by one for k <= j < l, so rank_N(s + e_k + e_l) =
        rank_{N-2}(s) + sum_{j<k} [F_j(rem_j + 2) - F_j(rem_j)]
        + sum_{k<=j<l} [F_j(rem_j + 1) - F_j(rem_j)].
        The amplitude carries sqrt(size of s's orbit / size of the source's):
        1/sqrt for the orbit sum the source lies in, and sqrt for the
        orbit's rows that s stands for.
        """
        F, j = self.rank_table, np.arange(self.M)
        occ = occ.astype(np.int64)
        rem = self.N - 2 - np.cumsum(occ, axis=1)
        # column m: the sum over j < m of the rank steps for two and for one added bosons
        two, one = (np.cumsum(np.pad(F[j, rem + n] - F[j, rem], ((0, 0), (1, 0))), axis=1)
                    for n in (2, 1))
        rank = ranks[:, None] + two[:, k] + one[:, l] - one[:, k]
        cols = self.orbits[np.searchsorted(self.ranks, rank)]
        amps = (np.sqrt(occ[:, k] + 1) * np.sqrt(occ[:, l] + 1 + (k == l))
                * np.sqrt(sizes[:, None] / self.orbit_sizes[cols]))
        return cols, amps

    def lower_states(self, codes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Occupations, full-space ranks, codes and orbit sizes of the
        representatives of the (N-2)-particle states whose parity code is
        in ``codes``, in basis (rank) order."""
        F = self.rank_table[:, :self.N - 1]
        return _sector_states(F, self.mode_codes, codes, self.mode_perms)[:4]

    @classmethod
    def build(cls, N: int, mode_codes: np.ndarray, mode_perms: np.ndarray) -> "FockBasis":
        """The orbits under the (G, M) ``mode_perms`` (identity row first)
        of the sector of state 0 (all bosons in mode 0) under the M =
        len(mode_codes) per-mode codes, every state when they are all zero.
        The cap is the fixed ceiling on the full count; a config's own cap
        is checked at load."""
        codes, perms = np.asarray(mode_codes), np.asarray(mode_perms)
        M = len(codes)
        size = comb(N + M - 1, N)
        if size > MAX_FOCK_DIMENSION:
            raise CapacityError(
                f"occupation basis has {size} states, above the cap {MAX_FOCK_DIMENSION}")
        code = int(codes[0] * (N % 2))
        F = _rank_table(N, M)
        occ, ranks, _, sizes, images = _sector_states(F, codes, [code], perms)
        # every state of the sector is an image of its orbit's representative
        sector, first = np.unique(np.vstack([ranks, images]), return_index=True)
        return cls(N=N, occupations=occ, orbit_sizes=sizes, ranks=sector,
                   orbits=first % len(occ), rank_table=F,
                   mode_codes=codes, mode_perms=perms, code=code)


def _rank_table(N: int, M: int) -> np.ndarray:
    # F[j, r]; every entry is at most the basis size, so int64 is exact
    F = np.zeros((M, N + 1), dtype=np.int64)
    for j in range(M - 1):
        F[j, 1:] = [comb(r + M - j - 2, r - 1) for r in range(1, N + 1)]
    return F


def _block_ends(perms: np.ndarray) -> set[int]:
    """The modes j at which the enumeration prunes: every permutation maps
    modes 0..j onto themselves, and some permutation moves a mode after
    the previous such j (a block that no permutation moves can drop
    nothing).  The last mode always ends a block, and with the identity
    alone it is the one end."""
    M = perms.shape[1]
    closed = np.all(np.maximum.accumulate(perms, axis=1) == np.arange(M), axis=0)
    moved = np.any(perms != np.arange(M), axis=0)
    ends, since = [], False
    for j in range(M - 1):
        since |= bool(moved[j])
        if since and closed[j]:
            ends.append(j)
            since = False
    return set(ends) | {M - 1}


def _sector_states(F: np.ndarray, mode_codes: np.ndarray, wanted, perms: np.ndarray):
    """Occupations, full-space ranks, parity codes and orbit sizes of the
    representatives of the N-boson states among M modes whose code is in
    ``wanted``, in basis order, and the ranks of their images under the
    other rows of the (G, M) ``perms`` (identity row first), (G - 1,
    size); F is ``_rank_table(N, M)`` or its slice.  A representative is
    the image of lowest rank in its orbit; neither the other codes nor the
    other states of an orbit are enumerated.

    Modes are filled in order, each partial state taking n_j = rem, rem - 1,
    ..., 0 bosons in turn (the basis order).  A partial state is kept only
    while the modes after it can still complete a wanted code with the
    bosons left: ``reach[j, r]`` marks the codes that modes j.. give with
    r bosons.  Each state's rank accumulates F_j(rem_j) on the way, and its
    code those of its odd modes.

    At a block end j (``_block_ends``) each permutation maps modes 0..j
    onto themselves, so a partial state's images have its bosons left, and
    their partial ranks sum_{i<=j} F_i(rem_i) are ordered as the ranks of
    all their completions are (the basis order is lexicographic).  The
    images' partial ranks are formed there, over the block's modes, for
    the partial states that survived so far, and a partial state with an
    image of lower partial rank is dropped: no completion of it is a
    representative.  The survivors of the last mode are the
    representatives, with their images' full ranks; an orbit's size is G
    over the number of images equal to the state.  The occupations are read
    back through the parent links within a block and the block links
    between them, in the smallest unsigned type that holds N (as are the
    per-mode counts they are read from: one byte per entry for N < 256).
    """
    M, N = F.shape[0], F.shape[1] - 1
    dtype = np.min_scalar_type(N)
    codes = np.arange(1 << int(mode_codes.max()).bit_length())
    reach = np.zeros((M + 1, N + 1, len(codes)), dtype=bool)
    reach[M, 0, 0] = True
    reach[M - 1, 0::2, 0] = reach[M - 1, 1::2, mode_codes[-1]] = True
    for j in range(M - 2, -1, -1):
        # two bosons more on one mode change no code, so modes j+1.. give
        # with r bosons all they give with r - 2: an even n_j reads reach[j+1, r],
        # an odd n_j reach[j+1, r-1] with mode j's code added
        reach[j] = reach[j + 1]
        reach[j, 1:] |= reach[j + 1, :-1][:, codes ^ mode_codes[j]]
    # completes[j, r, c]: modes j.. with r bosons can turn code c into a wanted one
    completes = np.logical_or.reduce([reach[:, :, codes ^ code] for code in set(wanted)])

    rest = perms[1:]
    ends = _block_ends(perms)
    rem = np.array([N])
    acc = np.array([0])               # parity code of the modes filled so far
    rank = np.array([0])
    images = np.zeros((len(rest), 1), dtype=np.int64)   # the other images' partial ranks
    blocks, parents, counts = [], [], []
    for j in range(M):
        take = rem + 1
        parent = np.repeat(np.arange(len(rem)), take)
        r = np.arange(len(parent)) - np.repeat(np.cumsum(take) - take, take)   # bosons left
        n = rem[parent] - r
        c = acc[parent] ^ (mode_codes[j] * (n % 2))
        keep = completes[j + 1, r, c]
        parent, n, rem, acc = parent[keep], n[keep], r[keep], c[keep]
        rank = rank[parent] + F[j, rem]
        parents.append(parent)
        counts.append(n.astype(dtype))
        if j not in ends:
            continue
        # the block's occupations, a row per mode, and each state's parent
        # at the last block end
        first = j + 1 - len(counts)
        occ = np.empty((len(counts), len(rem)), dtype=dtype)
        state = np.arange(len(rem))
        for i in range(len(counts) - 1, -1, -1):
            occ[i] = counts[i][state]
            state = parents[i][state]
        images = images[:, state]
        left = rem + occ.sum(axis=0, dtype=np.int64)      # bosons left at the block's start
        # with none left the images add F_i(0) = 0 and keep their order
        if len(rest) and left.any():
            left = np.repeat(left[None], len(rest), axis=0)
            for i, modes in zip(range(first, j + 1), rest[:, first:j + 1].T - first):
                left -= occ[modes]
                images += F[i].take(left)
            keep = np.all(images >= rank, axis=0)
            rem, acc, rank, images = rem[keep], acc[keep], rank[keep], images[:, keep]
            occ, state = occ[:, keep], state[keep]
        blocks.append((first, occ, state))
        parents, counts = [], []
    occ = np.empty((len(rank), M), dtype=dtype)
    state = np.arange(len(rank))
    for first, block, link in reversed(blocks):
        occ[:, first:first + len(block)] = block[:, state].T
        state = link[state]
    sizes = len(perms) // (1 + np.count_nonzero(images == rank, axis=0))
    return occ, rank, acc, sizes, images
