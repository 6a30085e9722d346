"""Ground states of the second-quantized trapped-boson Hamiltonian.

H = sum_i eps_i n_i + (1/2) sum_{ijkl} V[ijkl] a+_i a+_j a_l a_k

over the fixed-N occupation basis.  One ladder map serves a solve: the
pair map A (``FockBasis.pair_sources``, read off the basis's rank table).
For each unordered mode pair b = (k, l), (A x) collects (a_k a_l x) over
the (N-2)-particle states, enumerated once for every pair class with no
second space or rank table (``FockBasis.lower_states``).  Each class owns
its part of A, one entry per pair at each of its own (N-2)-particle rows,
so A x is a gather and A^T w a scatter around a dense pair-coefficient
multiply, class by class: the scatter adds into one accumulator in class
order (``np.add.at``), the order of one bincount over the class parts laid
end to end.  The operator is manifestly symmetric and never materialized.
The same amplitudes give gamma (through the class Grams), the pair moment
and the N = 2 pair amplitudes.  The lowest eigenpair comes from a Lanczos
loop with full reorthogonalization (Paige 1972; Parlett, The Symmetric
Eigenvalue Problem, ch. 13).

When every mode has a definite reflection parity on every axis, H conserves
the total parity, and ``ground_state`` solves in the sector of its start
state (all bosons in mode 0), which holds the ground state.  The
Hamiltonian builds that space from N and the tensor's mode codes, and
its pair map takes the tensor's pair classes
(``InteractionTensor.classes``).  The pairs of class c take sector s to the
(N-2)-particle sector s ^ c, and the fold F is block-diagonal by class as
the tensor is, so the dense multiply is one small GEMM per class.  A class
whose sector s ^ c holds no (N-2)-particle state (seven of eight at N = 2)
is dropped, and so is an (N-2)-particle state that no class reaches.
Without parity the codes are all zero, and one class covers every pair
and state.  ``ground_state`` alone builds a solve's H; its result keeps
H, and every reader downstream takes the modes, the tensor and N from it
(``ground.ham``).

On an isotropic product basis the tensor also keeps the mode permutations
that the six axis permutations induce (``InteractionTensor.mode_perms``).
H commutes with them and the start state is invariant, so the solve runs
on the permutation-invariant vectors: the unit orbit sums of the sector
(``FockBasis.build``).  ``ham.size`` then counts orbits, and
``ground.coefficients`` are amplitudes on the orbit sums.  The pair map
keeps the representative (N-2)-particle rows only, each standing for the
rows of its orbit, and an amplitude carries sqrt(|row's orbit| /
|source's orbit|).  Gamma, summed over those rows, is averaged over the
permutations, gamma = (1/G) sum_s P_s gamma' P_s^T, and the pair moment
over the permuted dressed mode.  With the identity alone (tabulated
modes, unequal stiffnesses or axes) every factor is an exact 1.0 and the
solve is the parity sector's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import SolverFailureError
from .basis import FockBasis, ModeBasis
from .tensor import InteractionTensor

_RESIDUAL_TOL = 1e-9
_LANCZOS_TOL = 1e-13
# Krylov vectors kept per Lanczos run.  Twice the most a measured solve
# needed (60 steps, 4,162 orbits of a 23,228-state sector with a strong
# soft sphere); 120 vectors of a 10^6-state space take 0.96 GB
_LANCZOS_STEPS = 120


@dataclass(frozen=True)
class ManyBodyGround:
    """Ground eigenpair, its one-particle density matrix and its Hamiltonian.

    gamma[i, j] = <a+_j a_i>, Hermitian, positive semidefinite, trace N.
    ``coefficients`` cover ``ham.fock``, the space solved: the orbit sums
    of the parity sector, its states under the identity alone (no
    ``asdict``: it would copy ``ham``); ``ham`` also holds the modes, the
    tensor and N.
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
    """The pairs of one parity class and its part of the pair map, whose
    entry r * len(pairs) + j is a_k a_l for pair j at the class's r-th
    (N-2)-particle row (weighted by the orbits, ``FockBasis.pair_sources``)."""

    pairs: np.ndarray               # pair indices j -> tensor pair
    cols: np.ndarray                # the source state's orbit in the basis
    amps: np.ndarray                # sqrt(s_k + 1) sqrt(s_l + 1 + d_kl), orbit-weighted
    fold: np.ndarray                # the class's diagonal block of the pair fold


class PairOpHamiltonian:
    """Matrix-free H of N bosons over the occupation space of the tensor's
    mode codes and permutations (``FockBasis.build``: the orbit sums of the
    start state's parity sector, all of the space when the codes are zero
    and the identity is the one permutation), its pair map grouped by the
    tensor's classes."""

    def __init__(self, basis: ModeBasis, tensor: InteractionTensor, N: int):
        if tensor.M != basis.size:
            raise SolverFailureError("basis and tensor sizes disagree")
        fock = FockBasis.build(N, tensor.mode_codes, tensor.mode_perms)
        self.basis, self.fock, self.tensor = basis, fock, tensor
        # column by column: the narrow occupation table is never cast whole
        self.diag = np.zeros(fock.size)
        for j, e in enumerate(basis.energies):
            self.diag += e * fock.occupations[:, j]
        self.pair_classes = self._build_pair_classes() if fock.N >= 2 else ()

    def _build_pair_classes(self):
        # (a_k a_l x) for pair j = (k, l) of a class at its (N-2)-particle row
        # r reads one orbit of ours (FockBasis.pair_sources); the pairs of
        # class c reach the (N-2)-particle states of parity code ours ^ c,
        # and a class that reaches no representative is neither kept nor folded
        fock, tensor = self.fock, self.tensor
        occ, ranks, codes, sizes = fock.lower_states(
            [fock.code ^ code for code, _ in tensor.classes])
        classes = []
        for c, (code, members) in enumerate(tensor.classes):
            rows = np.flatnonzero(codes == fock.code ^ code)
            if not len(rows):
                continue
            k, l = tensor.pairs[members].T
            cols, amps = fock.pair_sources(occ[rows], ranks[rows], sizes[rows], k, l)
            classes.append(PairClass(members, cols.ravel(), amps.ravel(),
                                     tensor.fold_hamiltonian_pairs(c)))
        return tuple(classes)

    @property
    def size(self) -> int:
        return self.fock.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # the class folds already carry the 1/2 of the normal-ordered pair
        # term.  One class at a time, so no array spans the whole map; one
        # accumulator keeps the map's order of additions (a bincount per
        # class would regroup them)
        acc = np.zeros(self.size)
        for cls in self.pair_classes:
            w = ((cls.amps * x[cls.cols]).reshape(-1, len(cls.pairs)) @ cls.fold).ravel()
            w *= cls.amps
            np.add.at(acc, cls.cols, w)
        return self.diag * x + acc

    def pair_amplitudes(self, x: np.ndarray) -> list[tuple[PairClass, np.ndarray]]:
        """(cls, W) per pair class: W[r, j] = (a_k a_l x) at the class's
        r-th (N-2)-particle row for its pair j = (k, l), shape (rows,
        pairs), times sqrt(|orbit of r|): with x over the orbit sums, W^T W
        sums every row of the orbit for a permutation-invariant quantity.
        The classes own disjoint rows."""
        return [(cls, (cls.amps * x[cls.cols]).reshape(-1, len(cls.pairs)))
                for cls in self.pair_classes]

    def one_body_matrix(self, x: np.ndarray) -> np.ndarray:
        """gamma[i, j] = <x| a+_j a_i |x>.

        For N >= 2, sum_l a+_j a+_l a_l a_i = (N-1) a+_j a_i gives gamma[i, j]
        = sum_l G[p(i, l), p(j, l)] / (N-1) for G = W^T W the pair Gram, W
        the pair amplitudes over the (N-2)-particle states.  gamma couples
        modes of one parity code only, and for two of them (i, l) and (j, l)
        share a class at every l, so each code's block is one gather from
        the class Grams W_c^T W_c in the tensor's layout (G vanishes across
        classes, which own disjoint rows, and on a class that owns none).
        W's rows are the orbits' representatives, weighted
        (``pair_amplitudes``), so the blocks give gamma' and gamma is its
        mean over the mode permutations.
        For N <= 1, a_i x is the amplitude of e_i: the occupations of the
        representatives weighted by sqrt(|orbit|), averaged over the
        permutations, are those summed over every state.
        """
        fock = self.fock
        if not self.pair_classes:
            v = fock.occupations.T @ (x * np.sqrt(fock.orbit_sizes))
            v = _permutation_mean(v, fock.mode_perms)
            return np.outer(v, v)
        # the class Grams in the tensor's layout, zero for the classes that
        # reach no (N-2)-particle state
        layout = self.tensor.layout
        grams = np.zeros(layout.size)
        for cls, w in self.pair_amplitudes(x):
            layout.block(grams, cls.pairs)[...] = w.T @ w
        codes = fock.mode_codes
        gamma = np.zeros((fock.M, fock.M))
        for code in np.unique(codes):
            modes = np.flatnonzero(codes == code)
            # p(i, l) for the modes i of this code
            p = self.tensor.pair_index[modes]
            gamma[np.ix_(modes, modes)] = layout.read(grams, p[:, None, :],
                                                      p[None, :, :]).sum(axis=2)
        return _permutation_mean(gamma, fock.mode_perms) / (fock.N - 1)


def ground_state(basis: ModeBasis, tensor: InteractionTensor, N: int) -> ManyBodyGround:
    """Lowest eigenpair by Lanczos on the pair map.

    The occupation space is the sector of the start vector, the fully
    condensed state, under the tensor's mode codes (the full space when they
    are all zero), in orbit sums under its mode permutations; its
    Hamiltonian builds it, and the result keeps both (``ham.fock``).  The
    residual ||Hx - Ex|| <= 1e-9 is verified after the solve, and once more
    after one restart from the Ritz vector, before declaring failure.
    """
    ham = PairOpHamiltonian(basis, tensor, N)
    x = np.zeros(ham.size)
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
    """<(b+)^2 b^2> for the dressed mode b = sum c_i a_i.

    (b b) x at a class's rows is W_c (c_i c_k (2 - d_ik)) over its pairs
    (``pair_amplitudes``, ``InteractionTensor.pair_weights``), and the
    classes own disjoint rows, so the squared norm is a sum over classes.
    W weighs each row by its orbit, which sums the orbit's rows for a
    permutation-invariant c; for any c, the moment is the mean of that sum
    over the permuted c.
    """
    amplitudes = ham.pair_amplitudes(x)
    perms = ham.fock.mode_perms
    total = 0.0
    for p in perms:
        weights = ham.tensor.pair_weights(c[p])
        total += sum(float(np.sum((w @ weights[cls.pairs]) ** 2)) for cls, w in amplitudes)
    return total / len(perms)


def _permutation_mean(a: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The mean of a[p] (a vector) or a[p][:, p] (a matrix) over the mode
    permutations p, a itself (over 1) when the identity is the only one."""
    image = (lambda p: a[p]) if a.ndim == 1 else (lambda p: a[np.ix_(p, p)])
    return sum(map(image, perms[1:]), a) / len(perms)
