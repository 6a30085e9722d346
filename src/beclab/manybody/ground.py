"""Ground states of the second-quantized trapped-boson Hamiltonian.

H = sum_i eps_i n_i + (1/2) sum_{ijkl} V[ijkl] a+_i a+_j a_l a_k

over the fixed-N occupation basis.  One ladder map serves a solve: the
pair map A (``FockBasis.pair_sources``, read off the basis's rank table).
For each unordered mode pair b = (k, l), (A x) collects (a_k a_l x) over
the (N-2)-particle states, the only other occupation space a solve builds.
A holds one entry per row, so A x is a gather and A^T w a scatter
(``np.bincount``) around a dense pair-coefficient multiply; the operator
is manifestly symmetric and never materialized.  The same amplitudes give
gamma, the pair moment and the N = 2 pair amplitudes.  The lowest
eigenpair comes from a Lanczos loop with full reorthogonalization (Paige
1972; Parlett, The Symmetric Eigenvalue Problem, ch. 13).

When every mode has a definite reflection parity on every axis, H conserves
the total parity, and ``ground_state`` solves in the sector of its start
state (all bosons in mode 0), which holds the ground state.  The pair map
is then grouped by pair parity class c (the XOR of the two modes' codes):
the pairs of class c take sector s to the (N-2)-particle sector s ^ c, and
the pair fold F is block-diagonal by class because the tensor is, so the
dense multiply becomes one small GEMM per class.  The full space is one
class over every (N-2)-particle state.  ``ground_state`` alone builds a
solve's space and H; its result keeps H, and every reader downstream
takes the modes, the tensor and N from it (``ground.ham``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from ..errors import SolverFailureError
from ..model import FOCK_DIMENSION_CAP
from .basis import FockBasis, ModeBasis
from .tensor import BlockLayout, InteractionTensor, pair_classes

_RESIDUAL_TOL = 1e-9
_LANCZOS_TOL = 1e-13
# Krylov vectors kept per Lanczos run.  Twice the most a measured solve
# needed (60 steps, 23,228 states with a strong soft sphere); 120 vectors
# of a 10^6-state space take 0.96 GB
_LANCZOS_STEPS = 120


@dataclass(frozen=True)
class ManyBodyGround:
    """Ground eigenpair, its one-particle density matrix and its Hamiltonian.

    gamma[i, j] = <a+_j a_i>, Hermitian, positive semidefinite, trace N.
    ``coefficients`` cover ``ham.fock``, the space solved (no ``asdict``:
    it would copy ``ham``); ``ham`` also holds the modes, the tensor and N.
    """

    energy: float
    coefficients: np.ndarray
    gamma: np.ndarray
    residual: float
    ham: PairOpHamiltonian = field(compare=False, repr=False)

    @property
    def N(self) -> int:
        return self.ham.fock.N

    @cached_property
    def natural_occupations(self) -> np.ndarray:
        """Eigenvalues of gamma/N in decreasing order; in [0, 1], sum 1."""
        return np.sort(np.linalg.eigvalsh(self.gamma / self.N))[::-1]

    @property
    def condensate_fraction(self) -> float:
        return float(self.natural_occupations[0])


@dataclass(frozen=True)
class PairClass:
    """The pairs of one parity class and the pair-map rows they own."""

    span: slice                     # rows offset + r * len(pairs) + j of the pair map
    pairs: np.ndarray               # pair indices j -> tensor pair
    lower: np.ndarray               # full-space ranks of the (N-2)-particle rows r
    fold: np.ndarray                # the class's diagonal block of the pair fold


class PairOpHamiltonian:
    """Matrix-free H over a FockBasis (all of it or one parity sector);
    also serves expectation values."""

    def __init__(self, basis: ModeBasis, tensor: InteractionTensor, fock: FockBasis):
        if tensor.M != basis.size or fock.M != basis.size:
            raise SolverFailureError("basis, tensor, and occupation space sizes disagree")
        self.basis = basis
        self.fock = fock
        self.tensor = tensor
        self.diag = fock.occupations @ basis.energies
        self.pair_map, self.pair_classes = (self._build_pair_map() if fock.N >= 2
                                            else (None, ()))

    def _build_pair_map(self):
        # (a_k a_l x) for pair j = (k, l) of a class at its (N-2)-particle row
        # r reads one state of ours (FockBasis.pair_sources); the pairs of
        # class c reach the (N-2)-particle states of parity code ours ^ c
        fock, pairs = self.fock, self.tensor.pairs
        codes = np.zeros(fock.M, dtype=np.int64) if fock.mode_codes is None else fock.mode_codes
        lower = FockBasis.build(fock.N - 2, fock.M, dimension_cap=fock.full_size)
        parity = np.bitwise_xor.reduce((lower.occupations & 1) * codes, axis=1)
        cols, amps, classes, start = [], [], [], 0
        for code, members in pair_classes(codes, pairs):
            rows = np.flatnonzero(parity == fock.code ^ code)
            k, l = pairs[members].T
            col, amp = fock.pair_sources(lower.occupations[rows], lower.ranks[rows], k, l)
            cols.append(col.ravel())
            amps.append(amp.ravel())
            classes.append(PairClass(slice(start, start + col.size), members, lower.ranks[rows],
                                     self.tensor.fold_hamiltonian_pairs(members)))
            start += col.size
        return (np.concatenate(cols), np.concatenate(amps)), tuple(classes)

    @property
    def size(self) -> int:
        return self.fock.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # the class folds already carry the 1/2 of the normal-ordered pair term
        y = self.diag * x
        if self.pair_map is not None:
            cols, data = self.pair_map
            w = data * x[cols]
            for cls in self.pair_classes:
                w[cls.span] = (w[cls.span].reshape(-1, len(cls.pairs)) @ cls.fold).ravel()
            w *= data
            y += np.bincount(cols, weights=w, minlength=self.size)
        return y

    def expectation(self, x: np.ndarray) -> float:
        return float(x @ self.matvec(x))

    def pair_amplitudes(self, x: np.ndarray) -> list[tuple[PairClass, np.ndarray]]:
        """(cls, W) per pair class: W[r, j] = (a_k a_l x) at the class's
        (N-2)-particle row r for its pair j = (k, l), shape (rows, pairs)."""
        cols, data = self.pair_map
        w = data * x[cols]
        return [(cls, w[cls.span].reshape(-1, len(cls.pairs))) for cls in self.pair_classes]

    def pair_annihilation(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """(b b) x for the dressed mode b = sum_i c_i a_i; a vector over the
        full (N-2)-particle basis."""
        if self.pair_map is None:
            raise SolverFailureError("pair annihilation needs N >= 2")
        weights = self.tensor.pair_weights(c)
        out = np.zeros(comb(self.fock.N + self.fock.M - 3, self.fock.N - 2))
        for cls, w in self.pair_amplitudes(x):
            out[cls.lower] += w @ weights[cls.pairs]
        return out

    def one_body_matrix(self, x: np.ndarray) -> np.ndarray:
        """gamma[i, j] = <x| a+_j a_i |x>.

        For N >= 2, sum_l a+_j a+_l a_l a_i = (N-1) a+_j a_i gives gamma[i, j]
        = sum_l G[p(i, l), p(j, l)] / (N-1) for G = W^T W the pair Gram, W
        the pair amplitudes over the (N-2)-particle states.  gamma couples
        modes of one parity code only, and for two of them (i, l) and (j, l)
        share a class at every l, so each code's block is one gather from
        the class Grams laid end to end (G vanishes across classes, which own
        disjoint rows).  When there are fewer (N-2)-particle states than
        pairs (N = 2, 3), the pairs x pairs Gram is never formed: a block is
        the product of the gathered columns of W over every such state.
        For N <= 1, a_i x is the amplitude of e_i.
        """
        if self.pair_map is None:
            v = self.fock.occupations.T @ x
            return np.outer(v, v)
        amplitudes = self.pair_amplitudes(x)
        n_lower = comb(self.fock.N + self.fock.M - 3, self.fock.N - 2)
        if n_lower < self.tensor.n_pairs:
            W = np.zeros((n_lower, self.tensor.n_pairs))
            for cls, w in amplitudes:
                W[np.ix_(cls.lower, cls.pairs)] = w

            def block(p):
                a = W[:, p]
                return np.tensordot(a, a, axes=([0, 2], [0, 2]))
        else:
            grams = np.concatenate([(w.T @ w).ravel() for _, w in amplitudes])
            layout = BlockLayout.of([cls.pairs for cls, _ in amplitudes], self.tensor.n_pairs)

            def block(p):
                return layout.read(grams, p[:, None, :], p[None, :, :]).sum(axis=2)
        codes = self.fock.mode_codes
        codes = np.zeros(self.fock.M, dtype=np.int64) if codes is None else codes
        gamma = np.zeros((self.fock.M, self.fock.M))
        for code in np.unique(codes):
            modes = np.flatnonzero(codes == code)
            # p(i, l) for the modes i of this code
            gamma[np.ix_(modes, modes)] = block(self.tensor.pair_index[modes])
        return gamma / (self.fock.N - 1)


def ground_state(basis: ModeBasis, tensor: InteractionTensor, N: int,
                 dimension_cap: int = FOCK_DIMENSION_CAP) -> ManyBodyGround:
    """Lowest eigenpair by Lanczos on the pair map.

    The occupation space is the parity sector of the start vector, the
    fully condensed state (the full space when the modes have no definite
    parity); its Hamiltonian is built here and kept by the result.  The
    residual ||Hx - Ex|| <= 1e-9 is verified after the solve, and once more
    after one restart from the Ritz vector, before declaring failure.
    """
    fock = FockBasis.build(N, basis.size, dimension_cap=dimension_cap,
                           mode_codes=basis.parity_codes)
    ham = PairOpHamiltonian(basis, tensor, fock)
    if fock.size == 1:
        x = np.ones(1)
        return ManyBodyGround(energy=ham.expectation(x), coefficients=x,
                              gamma=ham.one_body_matrix(x), residual=0.0, ham=ham)

    x = np.zeros(fock.size)
    x[0] = 1.0
    matvecs = 0
    for retried in (False, True):
        energy, x, steps = _lanczos(ham, x)
        residual = float(np.linalg.norm(ham.matvec(x) - energy * x))
        matvecs += steps + 1
        if residual <= _RESIDUAL_TOL:
            break
    else:
        raise SolverFailureError("eigensolver residual above tolerance", matvecs=matvecs,
                                 residual=residual, retried=retried)
    gamma = ham.one_body_matrix(x)
    _validate_gamma(gamma, N)
    return ManyBodyGround(energy=energy, coefficients=x, gamma=gamma, residual=residual,
                          ham=ham)


def _lanczos(ham: PairOpHamiltonian, v: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Lowest Ritz pair of H on the Krylov space of the unit vector v, and
    the number of products with H taken.

    Every new vector is orthogonalized against all earlier ones.  The loop
    stops when the residual estimate |beta s_m| of the lowest Ritz pair
    (s_m the last entry of its eigenvector of the tridiagonal T) falls to
    1e-13 max(1, |theta|), when beta = 0 (the space is invariant), or at
    ``_LANCZOS_STEPS`` vectors or the full dimension.
    """
    basis, alpha, beta = [v], [], []
    for _ in range(min(_LANCZOS_STEPS, ham.size)):
        w = ham.matvec(basis[-1])
        alpha.append(float(basis[-1] @ w))
        # the three-term recurrence, then one Gram-Schmidt pass over every
        # vector (a single pass on H v alone loses orthogonality)
        w -= alpha[-1] * basis[-1]
        if beta:
            w -= beta[-1] * basis[-2]
        for u in basis:
            w -= (u @ w) * u
        beta.append(float(np.linalg.norm(w)))
        off = np.diag(beta[:-1], 1)
        theta, s = np.linalg.eigh(np.diag(alpha) + off + off.T)
        if beta[-1] == 0.0 or abs(beta[-1] * s[-1, 0]) <= _LANCZOS_TOL * max(1.0, abs(theta[0])):
            break
        basis.append(w / beta[-1])
    x = np.zeros(ham.size)
    for c, u in zip(s[:, 0], basis):
        x += c * u
    x /= np.linalg.norm(x)
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return float(theta[0]), x, len(alpha)


def _validate_gamma(gamma: np.ndarray, N: int):
    if np.abs(gamma - gamma.T).max() > 1e-10:
        raise SolverFailureError("gamma is not symmetric")
    if abs(np.trace(gamma) - N) > 1e-8:
        raise SolverFailureError(f"trace gamma = {np.trace(gamma)}, expected {N}")
    if np.linalg.eigvalsh(gamma).min() < -1e-10:
        raise SolverFailureError("gamma has a negative occupation")


def hartree_energy(ham: PairOpHamiltonian, c: np.ndarray) -> float:
    """Rayleigh quotient under H of the product state with every boson in mode c.

    <H> = N sum eps_i c_i^2 + N(N-1)/2 sum V[ijkl] c_i c_j c_k c_l ; this is
    a rigorous upper bound for the ground energy in the same truncated
    space, exercised as the variational check.
    """
    c = np.asarray(c, dtype=float) / np.linalg.norm(c)
    N = ham.fock.N
    one = float(N * (c * c) @ ham.basis.energies)
    two = 0.5 * N * (N - 1) * ham.tensor.hartree_quartic(c)
    return one + two


def pair_moment(ham: PairOpHamiltonian, x: np.ndarray, c: np.ndarray) -> float:
    """<(b+)^2 b^2> for the dressed mode b = sum c_i a_i."""
    return float(np.sum(ham.pair_annihilation(x, c) ** 2))
