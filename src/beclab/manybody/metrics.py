"""Condensation diagnostics of a few-boson ground state.

All comparisons run inside the truncated mode space: the mean-field
reference is expanded over the modes, renormalized there (the dropped
weight is reported), and the rank-one projector onto it is compared with
gamma/N in trace norm.  The momentum-side distance uses the same
truncated reference, so the trace-norm bound applies exactly up to
quadrature error on the momentum lattice.

Harmonic and box modes are products of 1D factors, so both the reference
expansion and the momentum densities are sum-factorized: one 1D
contraction per axis instead of M full 3D arrays.  Tabulated modes take
the sampled 3D route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..errors import BasisInsufficientError, ConfigError
from ..gp import GPState
from ..model import axis_apply, trapezoid_weights
from .basis import (ModeBasis, build_mode_basis, hermite_functions, pair_density,
                    separable_modes)
from .ground import ManyBodyGround, PairOpHamiltonian, pair_moment
from .tensor import InteractionTensor

_MIN_REFERENCE_WEIGHT = 0.99    # share of the mean-field state the modes must carry
_K_MAX, _K_POINTS = 10.0, 61


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


def expand_reference(gp: GPState, basis: ModeBasis):
    """Mode amplitudes of the mean-field state, renormalized in the span.

    The modes are evaluated on the reference state's own grid (analytic
    trap eigenfunctions do not care which compatible grid samples them),
    so a finer mean-field grid can back a coarser interaction grid; that
    grid must pass the resolution checks of ``build_mode_basis``.  Product
    modes are contracted with phi one axis at a time.
    """
    same_grid = gp.grid.shape == basis.grid.shape and gp.grid.extent == basis.grid.extent
    if basis.axis_tables is not None:
        tables, rows = ((basis.axis_tables, basis.table_rows) if same_grid else
                        separable_modes(basis.trap, gp.grid, basis.max_quanta)[2:])
        a = axis_apply(gp.phi, [t * w for t, w in zip(tables, gp.grid.axis_weights)])
        c = a[tuple(rows.T)]
    else:
        eval_basis = basis if same_grid else build_mode_basis(basis.trap, gp.grid,
                                                              basis.max_quanta)
        flat = eval_basis.modes.reshape(eval_basis.size, -1)
        c = (flat * gp.grid.weights.ravel()) @ gp.phi.ravel()
    weight = float(c @ c)
    if weight < _MIN_REFERENCE_WEIGHT:
        raise BasisInsufficientError(
            f"mode basis carries only {weight:.4f} of the reference state; "
            "raise max_quanta")
    return c / np.sqrt(weight), weight


def default_momentum_axes(basis: ModeBasis):
    """Symmetric odd momentum lattice, one axis per dimension."""
    ax = np.linspace(-_K_MAX, _K_MAX, _K_POINTS)
    return (ax,) * basis.grid.dimension


def _plane_waves(grid, k_axes):
    # trapezoid-weighted exp(-i k x) / sqrt(2 pi), (n_ax, n_k) per axis
    return [(w[:, None] * np.exp(-1j * np.outer(x, np.asarray(k)))) / np.sqrt(2 * np.pi)
            for x, w, k in zip(grid.axes, grid.axis_weights, k_axes)]


def momentum_density(basis: ModeBasis, k_axes):
    """matrix -> Re sum_mn matrix[m, n] T_m(k) conj(T_n(k)) on the lattice.

    T_m is the transform of mode m scaled by (2 pi)^(-3/2), so for a
    one-body matrix over the modes this is its momentum density, and
    sum_k w_k density = trace(matrix) for orthonormal modes up to
    truncation of the lattice, w being the plain trapezoid weight of the
    lattice.  Harmonic modes use their analytic transforms: oscillator
    eigenfunctions transform to themselves up to (-i)^n, with the length
    scale inverted; box modes transform their 1D sine factors by
    quadrature.  For both, the matrix is contracted with one table of
    factor products per axis (``pair_density``).  Tabulated modes are
    transformed as sampled 3D arrays.
    """
    shape = tuple(len(k) for k in k_axes)
    if basis.axis_tables is None:
        waves = [w.T for w in _plane_waves(basis.grid, k_axes)]
        flat = np.empty((basis.size, int(np.prod(shape))), dtype=complex)
        for idx, mode in enumerate(basis.modes):
            flat[idx] = axis_apply(mode, waves).ravel()
        return lambda matrix: np.sum((matrix @ flat) * flat.conj(), axis=0).real.reshape(shape)

    trap = basis.trap
    if trap.kind == "harmonic":
        phase = np.array([1, -1j, -1, 1j])[np.arange(basis.max_quanta + 1) % 4]
        tables = [phase[:, None] * hermite_functions(basis.max_quanta, np.asarray(k),
                                                     1.0 / trap.stiffness[ax])
                  for ax, k in enumerate(k_axes)]
    else:
        tables = [t @ w for t, w in zip(basis.axis_tables, _plane_waves(basis.grid, k_axes))]
    return lambda matrix: pair_density(matrix, tables, basis.table_rows).real


def _lattice_weights(k_axes) -> np.ndarray:
    return reduce(np.multiply.outer, [trapezoid_weights(len(k), k[1] - k[0]) for k in k_axes])


def momentum_distribution(ground: ManyBodyGround, basis: ModeBasis, k_axes=None):
    """Momentum density per particle on the lattice, rho(k)/N.

    Normalized so that the lattice quadrature of the result is 1 up to
    truncation of the lattice; the coverage (that quadrature) is returned
    alongside and a value below 0.999 flags an insufficient lattice.
    """
    if k_axes is None:
        k_axes = default_momentum_axes(basis)
    rho = momentum_density(basis, k_axes)(ground.gamma / ground.N)
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
    trace_distance = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

    if k_axes is None:
        k_axes = default_momentum_axes(basis)
    density = momentum_density(basis, k_axes)
    kw = _lattice_weights(k_axes)
    delta = density(diff)
    momentum_l1 = float(np.sum(np.abs(delta) * kw))
    reference_cov = float(np.sum(density(np.outer(c, c)) * kw))
    coverage = reference_cov + float(np.sum(delta * kw))

    if ground.N >= 2:
        if ham is None:
            if tensor is None:
                raise ConfigError("pair moment needs either a Hamiltonian or a tensor")
            from .basis import FockBasis

            fock = FockBasis.build(ground.N, basis.size, dimension_cap=10**9)
            ham = PairOpHamiltonian(basis, tensor, fock)
        pm = pair_moment(ham, ground.coefficients[ham.fock.ranks], c) / ground.N**2
    else:
        pm = 0.0

    return CondensateReport(condensate_fraction=condensate_fraction,
                            gp_overlap=gp_overlap,
                            trace_distance=trace_distance,
                            momentum_l1=momentum_l1,
                            pair_moment=float(pm),
                            truncation_weight=weight,
                            momentum_coverage=coverage)
