"""Sparse ground states of the second-quantized trapped-boson Hamiltonian.

H = sum_i eps_i n_i + (1/2) sum_{ijkl} V[ijkl] a+_i a+_j a_l a_k

over the fixed-N occupation basis.  Every ladder operation comes from the
one-boson annihilation map a of ``FockBasis``: gamma = W^T W with W = a x,
and the pair term goes through A = a a: for each unordered mode pair b,
(A x) collects (a_k a_l x) in the (N-2)-particle basis, so one matvec is two
sparse products around a dense pair-coefficient multiply; the operator is
manifestly symmetric and never materialized.

When every mode has a definite reflection parity on every axis, H conserves
the total parity, and ``ground_state`` solves in the sector of its start
state (all bosons in mode 0), which holds the ground state.  The pair map
is then grouped by pair parity class c (the XOR of the two modes' codes):
the pairs of class c take sector s to the (N-2)-particle sector s ^ c, and
the pair fold F is block-diagonal by class because the tensor is, so the
dense multiply becomes one small GEMM per class.  The full space is one
class over every (N-2)-particle state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from ..errors import SolverFailureError
from .basis import FockBasis, ModeBasis
from .tensor import InteractionTensor, pair_classes

_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ManyBodyGround:
    """Ground eigenpair with its one-particle density matrix.

    gamma[i, j] = <a+_j a_i>, Hermitian, positive semidefinite, trace N.
    ``a`` and ``g`` record the scattering length and coupling the
    instance was built for (zero when no interaction was supplied).
    """

    energy: float
    coefficients: np.ndarray
    gamma: np.ndarray
    N: int
    a: float
    g: float
    residual: float
    basis_size: int

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
        self.pair_fold = tensor.fold_hamiltonian_pairs()
        self.lowering = fock.annihilator()
        self.pair_map, self.pair_classes = (self._build_pair_map() if fock.N >= 2
                                            else (None, ()))

    def _build_pair_map(self):
        # (a_k a_l x) for pair j = (k, l) of a class at its (N-2)-particle row
        # r: a_k from the full N-1 basis's map after a_l from ours; each map
        # holds at most one entry per row, and a_l always finds its source in
        # our space, so composing them is a gather through our row pointers
        fock, M, pairs = self.fock, self.fock.M, self.tensor.pairs
        lower = FockBasis.build(fock.N - 2, M, dimension_cap=10**9)
        inner = FockBasis.build(fock.N - 1, M, dimension_cap=10**9).annihilator()
        data, cols, classes, start = [], [], [], 0
        for code, members in pair_classes(fock.mode_codes, pairs):
            target = (lower if fock.mode_codes is None
                      else lower.sector(fock.mode_codes, fock.code ^ code))
            k, l = pairs[members].T
            r = target.ranks[:, None]
            pos = self.lowering.indptr[inner.indices.reshape(-1, M)[r, k] * M + l]
            data.append((inner.data.reshape(-1, M)[r, k] * self.lowering.data[pos]).ravel())
            cols.append(self.lowering.indices[pos].ravel())
            classes.append(PairClass(slice(start, start + pos.size), members, target.ranks,
                                     self.pair_fold[np.ix_(members, members)]))
            start += pos.size
        pair_map = sp.csr_matrix((np.concatenate(data), np.concatenate(cols),
                                  np.arange(start + 1)), shape=(start, fock.size))
        return pair_map, tuple(classes)

    @property
    def size(self) -> int:
        return self.fock.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # pair_fold already carries the 1/2 of the normal-ordered pair term
        y = self.diag * x
        if self.pair_map is not None:
            w = self.pair_map @ x
            for cls in self.pair_classes:
                w[cls.span] = (w[cls.span].reshape(-1, len(cls.pairs)) @ cls.fold).ravel()
            y = y + self.pair_map.T @ w
        return y

    def operator(self) -> LinearOperator:
        return LinearOperator((self.size, self.size), matvec=self.matvec, dtype=float)

    def expectation(self, x: np.ndarray) -> float:
        return float(x @ self.matvec(x))

    def pair_annihilation(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """(b b) x for the dressed mode b = sum_i c_i a_i; a vector over the
        full (N-2)-particle basis."""
        if self.pair_map is None:
            raise SolverFailureError("pair annihilation needs N >= 2")
        w = self.pair_map @ x
        weights = self.tensor.pair_weights(c)
        out = np.zeros(comb(self.fock.N + self.fock.M - 3, self.fock.N - 2))
        for cls in self.pair_classes:
            out[cls.lower] += w[cls.span].reshape(-1, len(cls.pairs)) @ weights[cls.pairs]
        return out

    def one_body_matrix(self, x: np.ndarray) -> np.ndarray:
        """gamma[i, j] = <x| a+_j a_i |x> = (W^T W)[i, j], W[t, i] = (a_i x)(t)."""
        w = (self.lowering @ x).reshape(-1, self.fock.M)
        return w.T @ w


def ground_state(basis: ModeBasis, tensor: InteractionTensor, N: int,
                 dimension_cap: int = 200_000, a: float = 0.0, g: float = 0.0,
                 maxiter: int = 20_000,
                 ham: PairOpHamiltonian | None = None) -> ManyBodyGround:
    """Lowest eigenpair by implicitly restarted Lanczos on the pair map.

    Deterministic start vector (the fully condensed state); the residual
    ||Hx - Ex|| <= 1e-9 is verified after the solve and the run is retried
    at machine tolerance once before declaring failure.  Without ``ham`` the
    solve runs in the parity sector of the start vector (the full space
    when the modes have no definite parity); pass the caller's Hamiltonian
    for this basis, tensor and N to avoid building it again.  The returned
    coefficients cover the full basis, exact zeros outside the sector.
    """
    if ham is None:
        fock = FockBasis.build(N, basis.size, dimension_cap=dimension_cap,
                               mode_codes=basis.parity_codes)
        ham = PairOpHamiltonian(basis, tensor, fock)
    elif ham.basis is not basis or ham.tensor is not tensor or ham.fock.N != N:
        raise SolverFailureError("Hamiltonian was built for another basis, tensor or N")
    fock = ham.fock
    if fock.size == 1:
        x = np.ones(1)
        return ManyBodyGround(energy=ham.expectation(x), coefficients=_scatter(fock, x),
                              gamma=ham.one_body_matrix(x), N=N, a=a, g=g, residual=0.0,
                              basis_size=basis.size)

    v0 = np.zeros(fock.size)
    v0[0] = 1.0
    op = ham.operator()
    for tol in (1e-13, 0.0):
        try:
            vals, vecs = eigsh(op, k=1, which="SA", v0=v0, tol=tol, maxiter=maxiter)
        except Exception as exc:  # ARPACK non-convergence
            raise SolverFailureError(f"eigensolver stagnation: {exc}") from exc
        x = vecs[:, 0]
        x = x / np.linalg.norm(x)
        if x[np.argmax(np.abs(x))] < 0:
            x = -x
        energy = float(vals[0])
        residual = float(np.linalg.norm(ham.matvec(x) - energy * x))
        if residual <= _RESIDUAL_TOL:
            break
    else:
        raise SolverFailureError("eigensolver residual above tolerance",
                                 residual=residual)
    gamma = ham.one_body_matrix(x)
    _validate_gamma(gamma, N)
    return ManyBodyGround(energy=energy, coefficients=_scatter(fock, x), gamma=gamma, N=N,
                          a=a, g=g, residual=residual, basis_size=basis.size)


def _scatter(fock: FockBasis, x: np.ndarray) -> np.ndarray:
    full = np.zeros(fock.full_size)
    full[fock.ranks] = x
    return full


def _validate_gamma(gamma: np.ndarray, N: int):
    if np.abs(gamma - gamma.T).max() > 1e-10:
        raise SolverFailureError("gamma is not symmetric")
    if abs(np.trace(gamma) - N) > 1e-8:
        raise SolverFailureError(f"trace gamma = {np.trace(gamma)}, expected {N}")
    if np.linalg.eigvalsh(gamma).min() < -1e-10:
        raise SolverFailureError("gamma has a negative occupation")


def hartree_energy(basis: ModeBasis, tensor: InteractionTensor, N: int,
                   c: np.ndarray) -> float:
    """Rayleigh quotient of the product state with every boson in mode c.

    <H> = N sum eps_i c_i^2 + N(N-1)/2 sum V[ijkl] c_i c_j c_k c_l ; this is
    a rigorous upper bound for the ground energy in the same truncated
    space, exercised as the variational check.
    """
    c = np.asarray(c, dtype=float)
    c = c / np.linalg.norm(c)
    one = float(N * (c * c) @ basis.energies)
    two = 0.5 * N * (N - 1) * tensor.hartree_quartic(c)
    return one + two


def pair_moment(ham: PairOpHamiltonian, x: np.ndarray, c: np.ndarray) -> float:
    """<(b+)^2 b^2> for the dressed mode b = sum c_i a_i."""
    return float(np.sum(ham.pair_annihilation(x, c) ** 2))
