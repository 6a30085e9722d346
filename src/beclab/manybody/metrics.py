"""Condensation diagnostics of a few-boson ground state.

All comparisons run inside the truncated mode space: the mean-field
reference is expanded over the modes, renormalized there (the dropped
weight is reported), and the rank-one projector onto it is compared with
gamma/N in trace norm.  The momentum-side distance uses the same
truncated reference, so the trace-norm bound applies exactly up to
quadrature error on the momentum lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BasisInsufficientError, ConfigError
from ..gp import GPState
from .basis import ModeBasis
from .ground import ManyBodyGround, PairOpHamiltonian, pair_moment
from .tensor import InteractionTensor


@dataclass(frozen=True)
class CondensateReport:
    condensate_fraction: float
    gp_overlap: float
    trace_distance: float
    momentum_l1: float
    pair_moment: float
    truncation_weight: float
    momentum_coverage: float

    def __post_init__(self):
        if not -1e-10 <= self.condensate_fraction <= 1 + 1e-10:
            raise ConfigError("condensate fraction outside [0, 1]")
        if self.gp_overlap > self.condensate_fraction + 1e-10:
            raise ConfigError("overlap cannot exceed the condensate fraction")
        if not -1e-12 <= self.trace_distance <= 2 + 1e-10:
            raise ConfigError("trace distance outside [0, 2]")
        if self.pair_moment > 1 + 1e-10:
            raise ConfigError("normalized pair moment above 1")


def expand_reference(gp: GPState, basis: ModeBasis, min_weight: float = 0.99):
    """Mode amplitudes of the mean-field state, renormalized in the span.

    The modes are evaluated on the reference state's own grid (analytic
    trap eigenfunctions do not care which compatible grid samples them),
    so a finer mean-field grid can back a coarser interaction grid.
    """
    from .basis import build_mode_basis

    if gp.grid.shape == basis.grid.shape and gp.grid.extent == basis.grid.extent:
        eval_basis = basis
    else:
        eval_basis = build_mode_basis(basis.trap, gp.grid, basis.max_quanta)
    flat = eval_basis.modes.reshape(eval_basis.size, -1)
    c = (flat * gp.grid.weights.ravel()) @ gp.phi.ravel()
    weight = float(c @ c)
    if weight < min_weight:
        raise BasisInsufficientError(
            f"mode basis carries only {weight:.4f} of the reference state; "
            "raise max_quanta")
    return c / np.sqrt(weight), weight


def default_momentum_axes(basis: ModeBasis, k_max: float = 10.0, n_k: int = 61):
    """Symmetric odd momentum lattice, one axis per dimension."""
    ax = np.linspace(-k_max, k_max, n_k)
    return (ax,) * basis.grid.dimension


def _mode_transforms(basis: ModeBasis, k_axes) -> np.ndarray:
    """Complex mode transforms on the lattice, scaled by (2 pi)^(-d/2).

    With this scaling sum_k w_k |transform|^2 = 1 for each mode, w being
    the plain trapezoid weight of the lattice.
    """
    from .basis import hermite_functions

    trap = basis.trap
    if trap.kind == "harmonic":
        per_axis = []
        for ax in range(3):
            kx = np.asarray(k_axes[ax])
            # oscillator eigenfunctions transform to themselves up to (-i)^n,
            # with the length scale inverted in momentum space
            per_axis.append(hermite_functions(basis.max_quanta, kx, 1.0 / trap.stiffness[ax]))
        out = np.empty((basis.size,) + tuple(len(k) for k in k_axes), dtype=complex)
        for idx, q in enumerate(basis.quantum_numbers):
            phase = (-1j) ** sum(q)
            out[idx] = phase * (per_axis[0][q[0]][:, None, None]
                                * per_axis[1][q[1]][None, :, None]
                                * per_axis[2][q[2]][None, None, :])
        return out
    # finite-support or tabulated modes: direct quadrature per axis is not
    # separable in general, so transform the sampled modes axis by axis
    grid = basis.grid
    out = np.empty((basis.size,) + tuple(len(k) for k in k_axes), dtype=complex)
    plane_waves = []
    for ax in range(3):
        x = grid.axes[ax]
        w = basis.grid.axis_weights[ax]
        kx = np.asarray(k_axes[ax])
        plane_waves.append((w[:, None] * np.exp(-1j * np.outer(x, kx))) / np.sqrt(2 * np.pi))
    for idx in range(basis.size):
        t = np.tensordot(basis.modes[idx], plane_waves[0], axes=(0, 0))
        t = np.tensordot(t, plane_waves[1], axes=(0, 0))
        t = np.tensordot(t, plane_waves[2], axes=(0, 0))
        out[idx] = t
    return out


def _lattice_weights(k_axes) -> np.ndarray:
    w = None
    for ax in k_axes:
        ax = np.asarray(ax)
        wa = np.full(len(ax), ax[1] - ax[0])
        wa[0] = wa[-1] = 0.5 * (ax[1] - ax[0])
        w = wa if w is None else np.multiply.outer(w, wa)
    return w


def momentum_distribution(ground: ManyBodyGround, basis: ModeBasis, k_axes=None):
    """Momentum density per particle on the lattice, rho(k)/N.

    Normalized so that the lattice quadrature of the result is 1 up to
    truncation of the lattice; the coverage (that quadrature) is returned
    alongside and a value below 0.999 flags an insufficient lattice.
    """
    if k_axes is None:
        k_axes = default_momentum_axes(basis)
    transforms = _mode_transforms(basis, k_axes)
    occ, orbitals = np.linalg.eigh(ground.gamma / ground.N)
    flat = transforms.reshape(basis.size, -1)
    rho = np.zeros(flat.shape[1])
    for n in range(len(occ)):
        if abs(occ[n]) < 1e-15:
            continue
        amp = orbitals[:, n] @ flat
        rho += occ[n] * np.abs(amp) ** 2
    shape = tuple(len(k) for k in k_axes)
    rho = rho.reshape(shape)
    coverage = float(np.sum(rho * _lattice_weights(k_axes)))
    return rho, coverage


def condensate_metrics(ground: ManyBodyGround, gp: GPState, basis: ModeBasis,
                       tensor: InteractionTensor | None = None,
                       ham: PairOpHamiltonian | None = None,
                       k_axes=None,
                       reference: tuple[np.ndarray, float] | None = None) -> CondensateReport:
    """Every scalar the condensation statements speak about, in one pass.

    Pass the already-built Hamiltonian to avoid reassembling its pair map;
    otherwise a tensor must be supplied to build one for the pair moment.
    ``reference`` is ``expand_reference(gp, basis)`` when the caller already
    holds it (a sweep shares one across its rows).
    """
    c, weight = reference if reference is not None else expand_reference(gp, basis)
    gamma_n = ground.gamma / ground.N

    gp_overlap = float(c @ gamma_n @ c)
    condensate_fraction = ground.condensate_fraction

    diff = gamma_n - np.outer(c, c)
    evals, evecs = np.linalg.eigh(diff)
    trace_distance = float(np.sum(np.abs(evals)))

    if k_axes is None:
        k_axes = default_momentum_axes(basis)
    transforms = _mode_transforms(basis, k_axes).reshape(basis.size, -1)
    kw = _lattice_weights(k_axes).ravel()
    delta = np.zeros(transforms.shape[1])
    for n in range(len(evals)):
        if abs(evals[n]) < 1e-16:
            continue
        amp = evecs[:, n] @ transforms
        delta += evals[n] * np.abs(amp) ** 2
    momentum_l1 = float(np.sum(np.abs(delta) * kw))
    reference_cov = float(np.sum((np.abs(c @ transforms) ** 2) * kw))
    coverage = reference_cov + float(np.sum(delta * kw))

    if ground.N >= 2:
        if ham is None:
            if tensor is None:
                raise ConfigError("pair moment needs either a Hamiltonian or a tensor")
            from .basis import FockBasis

            fock = FockBasis.build(ground.N, basis.size, dimension_cap=10**9)
            ham = PairOpHamiltonian(basis, tensor, fock)
        pm = pair_moment(ham, ground.coefficients, c) / ground.N**2
    else:
        pm = 0.0

    return CondensateReport(condensate_fraction=condensate_fraction,
                            gp_overlap=gp_overlap,
                            trace_distance=trace_distance,
                            momentum_l1=momentum_l1,
                            pair_moment=float(pm),
                            truncation_weight=weight,
                            momentum_coverage=coverage)
