"""Condensation diagnostics of a few-boson ground state.

All comparisons run inside the truncated mode space ``ground.ham.basis``
of the solve: the mean-field reference is expanded over the modes,
renormalized there (the dropped weight is reported), and the rank-one
projector onto it is compared with gamma/N in trace norm.  The
momentum-side distance uses the same truncated reference, so the
trace-norm bound applies exactly up to quadrature error on the momentum
lattice.

Harmonic and box modes are products of 1D factors, so both the reference
expansion and the momentum densities are sum-factorized: one 1D
contraction per axis instead of M full 3D arrays.  On the mode grid the
reference reads the basis's own tables; another mean-field grid takes the
same modes' tables there.  Tabulated modes take the sampled 3D route and
read the reference on the mode grid only, where they were solved.

The momentum sums of ``condensate_metrics`` are taken slab by slab along
the first lattice axis, for both mode routes: each slab's densities are
weighed with the per-axis trapezoid weights and summed, so no array the
size of the lattice is built.  ``_SLAB_NODES`` bounds one slab's block:
its density on the product route, the M sampled modes' transforms on the
tabulated route (at least one k-plane per slab).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BasisInsufficientError, ConfigError, SolverFailureError
from ..gp import GPState
from ..model import axis_apply, trapezoid_weights
from .basis import ModeBasis, hermite_functions, pair_density, separable_modes
from .ground import ManyBodyGround, pair_moment

_MIN_REFERENCE_WEIGHT = 0.99    # share of the mean-field state the modes must carry
_K_MAX, _K_POINTS = 10.0, 61
_SLAB_NODES = 1 << 16           # k-points times rows (M sampled modes, else 1) per slab


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
        # a solved value out of its range is a solver failure (exit 3)
        if not -1e-10 <= self.condensate_fraction <= 1 + 1e-10:
            raise SolverFailureError("condensate fraction outside [0, 1]",
                                     condensate_fraction=self.condensate_fraction)
        if self.gp_overlap > self.condensate_fraction + 1e-10:
            raise SolverFailureError("overlap cannot exceed the condensate fraction",
                                     gp_overlap=self.gp_overlap)
        if not -1e-12 <= self.trace_distance <= 2 + 1e-10:
            raise SolverFailureError("trace distance outside [0, 2]",
                                     trace_distance=self.trace_distance)
        if self.pair_moment > 1 + 1e-10:
            raise SolverFailureError("normalized pair moment above 1", pair_moment=self.pair_moment)


def expand_reference(gp: GPState, basis: ModeBasis):
    """Mode amplitudes of the mean-field state, renormalized in the span.

    Product modes are contracted with phi one axis at a time: on the mode
    grid with the basis's own tables, on another grid (finer or shifted;
    analytic trap eigenfunctions do not care which compatible grid samples
    them) with the tables ``separable_modes`` gives there, after its
    resolution checks.  Tabulated modes exist on the mode grid alone, so a
    reference on another grid (``lo`` included) is refused.
    """
    if basis.axis_tables is not None:
        tables = (basis.axis_tables if gp.grid == basis.grid else
                  separable_modes(basis.trap, gp.grid, basis.max_quanta)[1])
        a = axis_apply(gp.phi, [t * w for t, w in zip(tables, gp.grid.axis_weights)])
        c = a[tuple(basis.table_rows.T)]
    else:
        if gp.grid != basis.grid:
            raise ConfigError("tabulated modes read the mean-field reference on the mode "
                              "grid only", field="gp_grid")
        flat = basis.modes.reshape(basis.size, -1)
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
    transformed as sampled 3D arrays, once per call: every matrix the
    returned function is given shares the (M, lattice nodes) transforms.
    ``k_axes`` may be a slab of a larger lattice (a run of its first-axis
    points), as in ``condensate_metrics``.
    """
    shape = tuple(len(k) for k in k_axes)
    if basis.axis_tables is None:
        waves = [w.T for w in _plane_waves(basis.grid, k_axes)]
        flat = np.empty((basis.size, math.prod(shape)), dtype=complex)
        for idx, mode in enumerate(basis.modes):
            axis_apply(mode, waves, out=flat[idx].reshape(shape))
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


def _lattice_sum(values: np.ndarray, weights) -> float:
    # sum_k w_k values(k), the trapezoid weight w_k a product of per-axis weights
    return float(axis_apply(values, [w[None, :] for w in weights]).item())


def _axis_weights(k_axes):
    return [trapezoid_weights(len(k), k[1] - k[0]) for k in k_axes]


def condensate_metrics(ground: ManyBodyGround, reference: tuple[np.ndarray, float],
                       k_axes=None) -> CondensateReport:
    """Every scalar the condensation statements speak about, in one pass.

    ``reference`` is ``expand_reference(gp, ground.ham.basis)`` (a sweep
    shares one across its rows).  The momentum densities use the modes of
    the ground state's Hamiltonian, and the pair moment reads its pair map.
    The three lattice sums (of |delta|, of delta and of the reference
    density) are accumulated slab by slab along the first lattice axis.
    """
    c, weight = reference
    gamma_n = ground.gamma / ground.N

    gp_overlap = float(c @ gamma_n @ c)

    projector = np.outer(c, c)
    diff = gamma_n - projector
    trace_distance = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

    basis = ground.ham.basis
    if k_axes is None:
        k_axes = default_momentum_axes(basis)
    weights = _axis_weights(k_axes)
    rows = basis.size if basis.axis_tables is None else 1
    step = max(1, _SLAB_NODES // (rows * math.prod(len(k) for k in k_axes[1:])))
    momentum_l1 = delta_sum = reference_cov = 0.0
    for start in range(0, len(k_axes[0]), step):
        planes = slice(start, start + step)
        density = momentum_density(basis, (np.asarray(k_axes[0])[planes], *k_axes[1:]))
        slab_weights = [weights[0][planes], *weights[1:]]
        delta = density(diff)
        momentum_l1 += _lattice_sum(np.abs(delta), slab_weights)
        delta_sum += _lattice_sum(delta, slab_weights)
        del delta       # one slab's density alive at a time
        reference_cov += _lattice_sum(density(projector), slab_weights)
    coverage = reference_cov + delta_sum

    pm = pair_moment(ground.ham, ground.coefficients, c) / ground.N**2 if ground.N >= 2 else 0.0
    return CondensateReport(condensate_fraction=ground.condensate_fraction,
                            gp_overlap=gp_overlap, trace_distance=trace_distance,
                            momentum_l1=momentum_l1, pair_moment=pm,
                            truncation_weight=weight, momentum_coverage=coverage)
