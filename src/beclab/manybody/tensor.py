"""Two-body matrix elements of the pair potential in the mode basis.

V[i,j,k,l] = int int mode_i(r) mode_j(r') v(r - r') mode_k(r) mode_l(r') ,

computed as grid convolutions of pair densities with the potential,
evaluated through the convolution theorem.  The potential enters through
its exact radial transform (closed form for spheres, fine 1D quadrature
for tabulated profiles), so the accuracy is set by the smooth mode
products and not by whether the 3D grid resolves the potential range;
contact-scale ranges are handled exactly this way.  A literal sampled
kernel route is kept for cross-checks; it refuses ranges below two grid
spacings.

B = Re(Phat diag(w_q) Phat^H), the overlap matrix of the padded pair-density
transforms Phat, is assembled by parity class.  The kernel w_q is even and
trapezoid weights are mirror-symmetric, so when every mode has a definite
reflection parity on every axis (``ModeBasis.axis_parity``), B[p, p'] is
exactly zero unless pairs p = (i,k) and p' carry the same per-axis parity
XOR of their two modes.  Pairs are grouped into those (up to 8) classes;
within a class the memory-bounded block loop transforms each pair once when
the class fits one block, and each block product is a single real GEMM on
the interleaved real/imaginary view.  Off-class entries are written as exact
zeros.  A basis without definite parity forms one class, which is the plain
all-pairs block loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, UnderResolvedInteractionError
from ..model import PairPotential
from .basis import ModeBasis


_BLOCK_BYTES = 3.0e8     # budget for one block of pair transforms


@dataclass(frozen=True)
class InteractionTensor:
    """Symmetric 4-index tensor stored as a pair-density overlap matrix.

    With unordered pair index p(i,k), entry V[i,j,k,l] equals
    pair_matrix[p(i,k), p(j,l)]; the storage realizes the exchange
    symmetries in (i,k), in (j,l), and under (i,k) <-> (j,l) identically.
    """

    M: int
    pair_matrix: np.ndarray

    @cached_property
    def pairs(self) -> np.ndarray:
        """(n_pairs, 2) table of the unordered pairs (i, k), i <= k, in pair order."""
        return _pair_table(self.M)

    @cached_property
    def pair_index(self) -> np.ndarray:
        i, k = self.pairs.T
        idx = np.zeros((self.M, self.M), dtype=np.int64)
        idx[i, k] = idx[k, i] = np.arange(self.n_pairs)
        return idx

    @property
    def n_pairs(self) -> int:
        return self.M * (self.M + 1) // 2

    def __getitem__(self, ijkl) -> float:
        i, j, k, l = ijkl
        return float(self.pair_matrix[self.pair_index[i, k], self.pair_index[j, l]])

    def symmetry_error(self) -> float:
        return _asymmetry(self.pair_matrix)

    def pair_weights(self, c: np.ndarray) -> np.ndarray:
        """c_i c_k (2 - d_ik) over unordered pairs (i, k)."""
        i, k = self.pairs.T
        return c[i] * c[k] * (2.0 - (i == k))

    def fold_hamiltonian_pairs(self) -> np.ndarray:
        """Coefficients over unordered pairs for the normal-ordered pair term.

        The pair interaction equals sum_{ab} F[a,b] P_a^dag P_b with
        P_(k<=l) = a_k a_l and
        F[(i,j),(k,l)] = (2-d_ij)(2-d_kl)/4 * (V[ijkl] + V[ijlk]),
        the direct plus exchange fold.
        """
        pi = self.pair_index
        B = self.pair_matrix
        i, j = self.pairs[:, :1], self.pairs[:, 1:]
        k, l = self.pairs.T
        direct = B[pi[i, k], pi[j, l]]
        exchange = B[pi[i, l], pi[j, k]]
        w = 2.0 - (k == l)
        return (w[:, None] * w) * 0.25 * (direct + exchange)

    def hartree_quartic(self, c: np.ndarray) -> float:
        """sum_{ijkl} V[ijkl] c_i c_j c_k c_l for a single-mode amplitude c."""
        d = self.pair_weights(c)
        return float(d @ self.pair_matrix @ d)


def _pair_table(M: int) -> np.ndarray:
    return np.column_stack(np.triu_indices(M))


def _asymmetry(b: np.ndarray) -> float:
    return float(np.abs(b - b.T).max() / max(np.abs(b).max(), 1e-300))


def _parity_classes(basis: ModeBasis, pairs: np.ndarray) -> list[np.ndarray]:
    """Pair indices grouped by the per-axis parity XOR of their two modes."""
    parity = basis.axis_parity
    if parity is None:
        return [np.arange(len(pairs))]
    code = parity @ (1 << np.arange(parity.shape[1]))
    label = code[pairs[:, 0]] ^ code[pairs[:, 1]]
    return [np.flatnonzero(label == c) for c in np.unique(label)]


def interaction_tensor(basis: ModeBasis, potential: PairPotential,
                       method: str = "spectral") -> InteractionTensor:
    """Build the tensor for a finite-range repulsive potential.

    method 'spectral' (default) multiplies pair-density transforms by the
    exact radial transform of v; method 'sampled' uses the potential
    sampled on grid displacements and raises UnderResolvedInteractionError
    when the range falls below two grid spacings.
    """
    grid = basis.grid
    if potential.has_hard_core:
        raise ConfigError(
            "hard cores cannot enter a mode expansion; substitute a tall soft sphere",
            field="pair_potential")
    h = grid.spacing
    if max(h) - min(h) > 1e-9 * max(h):
        raise ConfigError("interaction grids must have equal spacing per axis", field="grid")
    if method == "sampled" and potential.range < 2.0 * max(h) and not potential.is_zero:
        raise UnderResolvedInteractionError(
            f"potential range {potential.range:.3g} below two grid spacings "
            f"({2 * max(h):.3g}); use the spectral route")
    if method not in ("spectral", "sampled"):
        raise ConfigError(f"unknown tensor method {method!r}", field="method")

    M = basis.size
    P = M * (M + 1) // 2
    if potential.is_zero:
        return InteractionTensor(M=M, pair_matrix=np.zeros((P, P)))

    n = grid.points
    hx = h[0]
    pad = int(np.ceil(potential.range / hx)) + 2
    npad = tuple(np.asarray(n) + pad)

    freqs = [2 * np.pi * np.fft.fftfreq(npad[ax], d=h[ax]) for ax in range(2)]
    freqs.append(2 * np.pi * np.fft.rfftfreq(npad[2], d=h[2]))
    qx, qy, qz = np.meshgrid(*freqs, indexing="ij", sparse=True)
    qmag = np.sqrt(qx**2 + qy**2 + qz**2)

    if method == "spectral":
        vq = potential.fourier_radial(qmag)
    else:
        kernel = _sampled_kernel(potential, npad, h)
        vq = np.fft.rfftn(kernel).real * float(np.prod(h))

    dup = np.full(qmag.shape, 2.0)
    dup[..., 0] = 1.0
    if npad[2] % 2 == 0:
        dup[..., -1] = 1.0
    wq = (vq * dup).ravel() / (float(np.prod(npad)) * float(np.prod(h)))

    # assemble B = Phat diag(wq) Phat^H class by class, in pair blocks to
    # bound memory; each block product is one real GEMM on the float view
    nq = npad[0] * npad[1] * (npad[2] // 2 + 1)
    block = max(16, min(P, int(_BLOCK_BYTES / (nq * 16))))
    pairs = _pair_table(M)
    weights = grid.weights
    inner = tuple(slice(0, s) for s in n)

    def transform_block(members):
        out = np.empty((len(members), nq), dtype=np.complex128)
        buf = np.zeros(npad)
        for row, c in enumerate(members):
            i, k = pairs[c]
            buf[inner] = basis.modes[i] * basis.modes[k] * weights
            out[row] = np.fft.rfftn(buf).ravel()
        return out

    B = np.zeros((P, P))
    for members in _parity_classes(basis, pairs):
        chunks = [members[s:s + block] for s in range(0, len(members), block)]
        for a, rows in enumerate(chunks):
            pa = transform_block(rows)
            paw = (pa * wq).view(np.float64)
            B[np.ix_(rows, rows)] = paw @ pa.view(np.float64).T
            for cols in chunks[a + 1:]:
                blk = paw @ transform_block(cols).view(np.float64).T
                B[np.ix_(rows, cols)] = blk
                B[np.ix_(cols, rows)] = blk.T
            del pa, paw
    if _asymmetry(B) > 1e-10:
        raise ConfigError("interaction tensor lost its exchange symmetry")
    return InteractionTensor(M=M, pair_matrix=0.5 * (B + B.T))


def _sampled_kernel(potential, npad, h):
    """v at minimum-image displacement vectors of the padded box."""
    axes = []
    for ax in range(3):
        idx = np.arange(npad[ax], dtype=float)
        idx = np.minimum(idx, npad[ax] - idx)
        axes.append(idx * h[ax])
    dx, dy, dz = np.meshgrid(*axes, indexing="ij", sparse=True)
    return potential.evaluate(np.sqrt(dx**2 + dy**2 + dz**2))
