"""Two-body matrix elements of the pair potential in the mode basis.

V[i,j,k,l] = int int mode_i(r) mode_j(r') v(r - r') mode_k(r) mode_l(r') ,

computed as grid convolutions of pair densities with the potential,
evaluated through the convolution theorem on a zero-padded box.  The
potential enters through its exact radial transform (closed form for
spheres, fine 1D quadrature for tabulated profiles), so the accuracy is
set by the smooth mode products and not by whether the 3D grid resolves
the potential range; contact-scale ranges are handled exactly this way.

The tensor is stored as B = Re(Phat diag(w_q) Phat^H), the overlap matrix
of the padded pair-density transforms Phat.  The kernel w_q is even and
trapezoid weights are mirror-symmetric, so when every mode has a definite
reflection parity on every axis (``ModeBasis.parity_codes``), B[p, p'] is
exactly zero unless pairs p = (i,k) and p' carry the same per-axis parity
XOR of their two modes.  The tensor groups the pairs into those (up to
8) classes once; a solve's space, pair map and gamma take their codes and
classes from it.  Only the class blocks are computed and stored, laid end
to end by ``BlockLayout``, which alone places them: a build lays them out
once and every block is a view it hands out.  The symmetry check, the
symmetrization, the pair fold and the Hartree quartic run block by block.
A basis without definite parity forms one class.  Beside the codes the
tensor keeps the mode permutations that the axis permutations induce on
an isotropic product basis, in whose orbit space a solve runs; any other
basis keeps the identity alone.  The mode basis decides both, once per
basis (``ModeBasis.parity_codes`` and ``ModeBasis.mode_perms``).

Harmonic and box modes are products of 1D factors, so Phat is an outer
product of 1D transforms and B is sum-factorized: one batched 1D rfft per
axis over the factor products, then three real contractions over the
non-negative frequency octant.  Tabulated modes have no factors; their
pair densities are transformed in 3D, class by class, in memory-bounded
pair blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from ..errors import ConfigError
from ..model import PairPotential, pair_fft_lattice
from .basis import ModeBasis


_BLOCK_BYTES = 3.0e8     # budget for one block of pair transforms


@dataclass(frozen=True)
class BlockLayout:
    """Where entry (p, q) of a pair-by-pair matrix sits when only its
    pair-class blocks are kept, laid end to end, each in row-major order.

    Per pair: ``start`` is the offset of its row in the layout and ``pos``
    its position within its class; entry (p, q) of one class sits at
    start[p] + pos[q].  Entries across classes have no place.
    """

    start: np.ndarray
    pos: np.ndarray
    size: int                       # every block's entries

    @classmethod
    def of(cls, classes, n_pairs: int) -> "BlockLayout":
        """The layout of ``classes``, (code, members) per class, whose members
        partition range(n_pairs)."""
        start, pos = np.empty((2, n_pairs), dtype=np.int64)
        offset = 0
        for _, members in classes:
            n = len(members)
            pos[members] = np.arange(n)
            start[members] = offset + n * pos[members]
            offset += n * n
        return cls(start, pos, offset)

    def block(self, flat: np.ndarray, members: np.ndarray) -> np.ndarray:
        """The square block of the class ``members`` in ``flat``, a view."""
        start, n = self.start[members[0]], len(members)
        return flat[start:start + n * n].reshape(n, n)

    def read(self, flat: np.ndarray, p, q) -> np.ndarray:
        """Entries (p, q), broadcast, of the matrix whose class blocks
        ``flat`` holds in this layout; each p and its q of one class."""
        return flat[self.start[p] + self.pos[q]]


@dataclass(frozen=True)
class InteractionTensor:
    """Symmetric 4-index tensor stored as a pair-density overlap matrix B.

    With unordered pair index p(i,k), entry V[i,j,k,l] equals
    B[p(i,k), p(j,l)]; the storage realizes the exchange symmetries in
    (i,k), in (j,l), and under (i,k) <-> (j,l) identically.  ``classes``
    holds (code, members) per class of pairs, grouped by the XOR of their
    modes' ``mode_codes``.  B vanishes across classes, so only its class
    blocks are kept, laid end to end (``blocks``, read through ``layout``).
    ``mode_perms`` holds the mode permutations H commutes with (see
    ``ModeBasis.mode_perms``), the identity row first.
    """

    mode_codes: np.ndarray
    mode_perms: np.ndarray          # (G, M): row g maps mode m to mode_perms[g, m]
    classes: tuple[tuple[int, np.ndarray], ...]
    blocks: np.ndarray
    # the layout of classes, the one interaction_tensor built B in
    layout: BlockLayout = field(repr=False, compare=False)

    @property
    def M(self) -> int:
        return len(self.mode_codes)

    @cached_property
    def pairs(self) -> np.ndarray:
        """(n_pairs, 2) table of the unordered pairs (i, k), i <= k, in pair order."""
        return _pair_table(self.M)

    @cached_property
    def pair_index(self) -> np.ndarray:
        return _pair_index(self.M)

    @property
    def n_pairs(self) -> int:
        return self.M * (self.M + 1) // 2

    @property
    def pair_matrix(self) -> np.ndarray:
        """B as a dense (n_pairs, n_pairs) array, formed anew on every read."""
        B = np.zeros((self.n_pairs, self.n_pairs))
        for members, b in self.class_blocks():
            B[np.ix_(members, members)] = b
        return B

    def class_blocks(self):
        """(members, block) per class; each block is a view into ``blocks``."""
        return ((members, self.layout.block(self.blocks, members))
                for _, members in self.classes)

    def symmetry_error(self) -> float:
        scale = max(float(np.abs(self.blocks).max()), 1e-300)
        return max(float(np.abs(b - b.T).max()) for _, b in self.class_blocks()) / scale

    def pair_weights(self, c: np.ndarray) -> np.ndarray:
        """c_i c_k (2 - d_ik) over unordered pairs (i, k)."""
        i, k = self.pairs.T
        return c[i] * c[k] * (2.0 - (i == k))

    def fold_hamiltonian_pairs(self, c: int) -> np.ndarray:
        """Coefficients over the pairs of class ``c`` (an index into
        ``classes``) for the normal-ordered pair term.

        The pair interaction is sum_{ab} F[a,b] P_a^dag P_b, P_(k<=l) = a_k a_l,
        F[(i,j),(k,l)] = (2-d_ij)(2-d_kl)/4 * (V[ijkl] + V[ijlk]) (direct plus
        exchange); this is F on the class.  Each entry read lies in one block:
        the codes of p(i, k) and p(j, l), and of p(i, l) and p(j, k), XOR to
        the class code XOR itself, 0.
        """
        pi, p = self.pair_index, self.pairs[self.classes[c][1]]
        i, j = p[:, :1], p[:, 1:]
        k, l = p.T
        direct = self.layout.read(self.blocks, pi[i, k], pi[j, l])
        exchange = self.layout.read(self.blocks, pi[i, l], pi[j, k])
        w = 2.0 - (k == l)
        return (w[:, None] * w) * 0.25 * (direct + exchange)

    def hartree_quartic(self, c: np.ndarray) -> float:
        """sum_{ijkl} V[ijkl] c_i c_j c_k c_l for a single-mode amplitude c."""
        d = self.pair_weights(c)
        return float(sum(d[m] @ b @ d[m] for m, b in self.class_blocks()))


def _pair_table(M: int) -> np.ndarray:
    return np.column_stack(np.triu_indices(M))


def _pair_index(M: int) -> np.ndarray:
    """(M, M) symmetric map from (i, k) to the position of its pair in ``_pair_table``."""
    i, k = _pair_table(M).T
    idx = np.zeros((M, M), dtype=np.int64)
    idx[i, k] = idx[k, i] = np.arange(len(i))
    return idx


def pair_classes(codes: np.ndarray, pairs: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Pair indices grouped by the XOR of their two modes' parity codes, as
    (code, members) in increasing code; one class of code 0 when the codes
    are all zero (no definite parity)."""
    label = codes[pairs[:, 0]] ^ codes[pairs[:, 1]]
    return [(int(c), np.flatnonzero(label == c)) for c in np.unique(label)]


def interaction_tensor(basis: ModeBasis, potential: PairPotential) -> InteractionTensor:
    """Build the tensor for a finite-range repulsive potential.

    Pair-density transforms are multiplied by the exact radial transform
    of v: per axis for harmonic and box modes, in 3D blocks for tabulated
    modes.
    """
    grid = basis.grid
    if potential.has_hard_core:
        raise ConfigError(
            "hard cores cannot enter a mode expansion; substitute a tall soft sphere",
            field="pair_potential")
    grid.check_equal_spacing("grid")

    npad = pair_fft_lattice(grid, potential.range, "pair_potential")
    scale = float(np.prod(npad)) * float(np.prod(grid.spacing))
    pairs = _pair_table(basis.size)
    classes = tuple(pair_classes(basis.parity_codes, pairs))
    layout = BlockLayout.of(classes, len(pairs))
    build = _factored_pair_blocks if basis.axis_tables is not None else _blocked_pair_blocks
    tensor = InteractionTensor(mode_codes=basis.parity_codes, mode_perms=basis.mode_perms,
                               classes=classes, layout=layout,
                               blocks=build(basis, potential, npad, pairs, classes, layout, scale))
    if tensor.symmetry_error() > 1e-10:
        raise ConfigError("interaction tensor lost its exchange symmetry")
    for _, b in tensor.class_blocks():
        b[...] = 0.5 * (b + b.T)
    return tensor


def _half_weights(npad: int) -> np.ndarray:
    # multiplicity of each non-negative frequency in the full lattice
    d = np.full(npad // 2 + 1, 2.0)
    d[0] = 1.0
    if npad % 2 == 0:
        d[-1] = 1.0
    return d


def _factored_pair_blocks(basis, potential, npad, pairs, classes, layout, scale) -> np.ndarray:
    """B's class blocks in ``layout`` from per-axis transforms of the 1D
    factor products (sum factorization).

    On axis ax the K = R(R+1)/2 products of table rows a <= b transform
    with one batched 1D rfft.  v is even in each frequency and the products
    are real, so the full-lattice sum folds onto the non-negative octant:
    B[p,p'] = sum_q W(q) prod_ax A_ax[c_ax(p), c_ax(p'), q_ax] with the real
    A_ax = d Re(F F'^*).  The octant sum runs over q_z (one GEMM), q_y (a
    GEMM per q_x) and q_x (a gather of the in-class entries); entries
    outside the parity classes are never formed.
    """
    grid = basis.grid
    r = np.concatenate([np.repeat(m, len(m)) for _, m in classes])
    c = np.concatenate([np.tile(m, len(m)) for _, m in classes])
    # per axis: A as (K*K, nq) and the row of each in-class entry (r, c) in it
    A, rows, freqs = [], [], []
    for ax, (table, w) in enumerate(zip(basis.axis_tables, grid.axis_weights)):
        a, b = _pair_table(len(table)).T
        f = np.fft.rfftn(table[a] * table[b] * w, s=(npad[ax],), axes=(-1,))
        A.append(((f.real[:, None] * f.real + f.imag[:, None] * f.imag)
                  * _half_weights(npad[ax])).reshape(len(a) ** 2, -1))
        t = basis.table_rows[:, ax]
        code = _pair_index(len(table))[t[pairs[:, 0]], t[pairs[:, 1]]]
        rows.append(code[r] * len(a) + code[c])
        freqs.append(2 * np.pi * np.fft.rfftfreq(npad[ax], d=grid.spacing[ax]))
    W = potential.fourier_radial(np.sqrt(reduce(np.add.outer, [f**2 for f in freqs]))) / scale

    nqx, nqy, nqz = W.shape
    Ax, Ay, Az = A
    T1 = (W.reshape(nqx * nqy, nqz) @ Az.T).reshape(nqx, nqy, -1)
    yz = rows[1] * len(Az) + rows[2]
    # allocated after the transforms: before them it cost repeated sweeps 6 MiB RSS
    vals = np.zeros(layout.size)
    for q in range(nqx):
        vals += Ax[rows[0], q] * (Ay @ T1[q]).ravel()[yz]
    return vals


def _blocked_pair_blocks(basis, potential, npad, pairs, classes, layout, scale) -> np.ndarray:
    """B's class blocks in ``layout`` from 3D transforms.

    Each block product is one real GEMM on the interleaved real/imaginary
    view; pairs are transformed in blocks of at most _BLOCK_BYTES.
    """
    grid = basis.grid
    h = grid.spacing
    freqs = [2 * np.pi * np.fft.fftfreq(npad[ax], d=h[ax]) for ax in range(2)]
    freqs.append(2 * np.pi * np.fft.rfftfreq(npad[2], d=h[2]))
    vq = potential.fourier_radial(np.sqrt(reduce(np.add.outer, [f**2 for f in freqs])))
    wq = (vq * _half_weights(npad[2])).ravel() / scale

    nq = vq.size
    block = max(16, min(len(pairs), int(_BLOCK_BYTES / (nq * 16))))
    weights = grid.weights
    inner = tuple(slice(0, s) for s in grid.points)

    def transform_block(members):
        out = np.empty((len(members), nq), dtype=np.complex128)
        buf = np.zeros(npad)
        for row, c in enumerate(members):
            i, k = pairs[c]
            buf[inner] = basis.modes[i] * basis.modes[k] * weights
            out[row] = np.fft.rfftn(buf).ravel()
        return out

    flat = np.empty(layout.size)
    for _, members in classes:
        B = layout.block(flat, members)
        chunks = [slice(s, s + block) for s in range(0, len(members), block)]
        for a, rows in enumerate(chunks):
            pa = transform_block(members[rows])
            paw = (pa * wq).view(np.float64)
            B[rows, rows] = paw @ pa.view(np.float64).T
            for cols in chunks[a + 1:]:
                blk = paw @ transform_block(members[cols]).view(np.float64).T
                B[rows, cols] = blk
                B[cols, rows] = blk.T
            del pa, paw
    return flat
