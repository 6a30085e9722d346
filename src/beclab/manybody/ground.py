"""Sparse ground states of the second-quantized trapped-boson Hamiltonian.

H = sum_i eps_i n_i + (1/2) sum_{ijkl} V[ijkl] a+_i a+_j a_l a_k

over the fixed-N occupation basis.  The pair term is applied through the
two-particle annihilation map A: for each unordered mode pair b, (A x)
collects (a_k a_l x) in the (N-2)-particle basis, so one matvec is two
sparse products around a dense pair-coefficient multiply; the operator is
manifestly symmetric and never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from ..errors import SolverFailureError
from .basis import FockBasis, ModeBasis
from .tensor import InteractionTensor

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


class PairOpHamiltonian:
    """Matrix-free H over a FockBasis; also serves expectation values."""

    def __init__(self, basis: ModeBasis, tensor: InteractionTensor, fock: FockBasis):
        if tensor.M != basis.size or fock.M != basis.size:
            raise SolverFailureError("basis, tensor, and occupation space sizes disagree")
        self.basis = basis
        self.fock = fock
        self.tensor = tensor
        self.diag = fock.occupations @ basis.energies
        self.pair_fold = tensor.fold_hamiltonian_pairs()
        self.n_pairs = tensor.n_pairs
        if fock.N >= 2:
            self.fock2 = FockBasis.build(fock.N - 2, fock.M, dimension_cap=10**9)
            self.pair_map = self._build_pair_map()
        else:
            self.fock2 = None
            self.pair_map = None

    def _build_pair_map(self):
        occ = self.fock.occupations
        rows, cols, vals = [], [], []
        for b, (k, l) in enumerate(self.tensor.pairs):
            if k == l:
                src = np.nonzero(occ[:, k] >= 2)[0]
                amp = np.sqrt(occ[src, k] * (occ[src, k] - 1.0))
            else:
                src = np.nonzero((occ[:, k] >= 1) & (occ[:, l] >= 1))[0]
                amp = np.sqrt(occ[src, k] * occ[src, l].astype(float))
            tgt = occ[src].copy()
            tgt[:, k] -= 1
            tgt[:, l] -= 1
            rows.append(self.fock2.rank(tgt) * self.n_pairs + b)
            cols.append(src)
            vals.append(amp)
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.fock2.size * self.n_pairs, self.fock.size))

    @property
    def size(self) -> int:
        return self.fock.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # pair_fold already carries the 1/2 of the normal-ordered pair term
        y = self.diag * x
        if self.pair_map is not None:
            w = (self.pair_map @ x).reshape(self.fock2.size, self.n_pairs)
            y = y + self.pair_map.T @ (w @ self.pair_fold).ravel()
        return y

    def operator(self) -> LinearOperator:
        return LinearOperator((self.size, self.size), matvec=self.matvec, dtype=float)

    def expectation(self, x: np.ndarray) -> float:
        return float(x @ self.matvec(x))

    def pair_annihilation(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """(b b) x for the dressed mode b = sum_i c_i a_i; an (N-2) vector."""
        if self.pair_map is None:
            raise SolverFailureError("pair annihilation needs N >= 2")
        w = (self.pair_map @ x).reshape(self.fock2.size, self.n_pairs)
        return w @ self.tensor.pair_weights(c)

    def one_body_matrix(self, x: np.ndarray) -> np.ndarray:
        """gamma[i, j] = <x| a+_j a_i |x> for a normalized coefficient vector."""
        occ = self.fock.occupations
        M = self.fock.M
        gamma = np.zeros((M, M))
        x2 = x * x
        for i in range(M):
            gamma[i, i] = float(occ[:, i] @ x2)
        for i in range(M):
            for j in range(i + 1, M):
                src = np.nonzero(occ[:, i] >= 1)[0]
                tgt = occ[src].copy()
                tgt[:, i] -= 1
                tgt[:, j] += 1
                amp = np.sqrt(occ[src, i] * (occ[src, j] + 1.0))
                val = float(np.sum(amp * x[src] * x[self.fock.rank(tgt)]))
                gamma[i, j] = gamma[j, i] = val
        return gamma


def ground_state(basis: ModeBasis, tensor: InteractionTensor, N: int,
                 dimension_cap: int = 200_000, a: float = 0.0, g: float = 0.0,
                 maxiter: int = 20_000,
                 ham: PairOpHamiltonian | None = None) -> ManyBodyGround:
    """Lowest eigenpair by implicitly restarted Lanczos on the pair map.

    Deterministic start vector (the fully condensed state); the residual
    ||Hx - Ex|| <= 1e-9 is verified after the solve and the run is retried
    at machine tolerance once before declaring failure.  Pass the caller's
    Hamiltonian for this basis, tensor and N to avoid building it again.
    """
    if ham is None:
        fock = FockBasis.build(N, basis.size, dimension_cap=dimension_cap)
        ham = PairOpHamiltonian(basis, tensor, fock)
    elif ham.basis is not basis or ham.tensor is not tensor or ham.fock.N != N:
        raise SolverFailureError("Hamiltonian was built for another basis, tensor or N")
    fock = ham.fock
    if fock.size == 1:
        x = np.ones(1)
        energy = ham.expectation(x)
        gamma = ham.one_body_matrix(x)
        return ManyBodyGround(energy=energy, coefficients=x, gamma=gamma, N=N,
                              a=a, g=g, residual=0.0, basis_size=basis.size)

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
    return ManyBodyGround(energy=energy, coefficients=x, gamma=gamma, N=N,
                          a=a, g=g, residual=residual, basis_size=basis.size)


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
