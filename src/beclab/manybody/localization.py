"""Where the pair-correlation gradient energy lives, for two bosons.

For N = 2 the ground state is a grid function of one coordinate once the
other is pinned at a sample point r2.  Dividing out the mean-field
profile leaves the correlation factor

    f(r) = Psi(r, r2) / phi(r),

whose weighted gradient energy int |phi|^2 |grad f|^2 concentrates in a
small ball around r2 for short-range repulsion.  This module reports, for
a list of ball radii, the fraction of that energy carried by the ball,
averaged over quasi-random r2 draws from the one-particle density.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..errors import ConfigError
from ..gp import GPState
from ..poincare import Region, masked_gradient_sq
from .basis import FockBasis, ModeBasis
from .ground import ManyBodyGround

_NA_THRESHOLD = 1e-13


@dataclass(frozen=True)
class LocalizationProfile:
    radii: tuple[float, ...]
    fractions: tuple[float, ...] | None     # None when there is no gradient energy
    total_energy: float
    samples: int
    seed: int
    excluded_points: int

    @property
    def not_applicable(self) -> bool:
        return self.fractions is None


def _pair_amplitude_matrix(ground: ManyBodyGround, fock: FockBasis) -> np.ndarray:
    """Symmetric C with Psi(r1, r2) = sum_ij C_ij mode_i(r1) mode_j(r2).

    C_kl = (a_k a_l x) / sqrt(2); state k of the one-particle basis is e_k,
    so a_k a_l x is entry k of a_l x.
    """
    return (fock.annihilator() @ ground.coefficients).reshape(fock.M, fock.M) / np.sqrt(2.0)


def _scrambled_sobol(count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a scrambled 1D Sobol' sequence in [0, 1).

    Linear matrix scrambling (Matousek, J. Complexity 14, 527 (1998)) plus
    a random digital shift of the van der Corput direction numbers
    2^(29-j), in Gray-code order (Bratley & Fox, ACM TOMS 14, 88
    (1988)), with the shift as the first point.  The random bits are
    drawn as scipy's ``qmc.Sobol(d=1, scramble=True, seed=seed)`` draws
    them, so the points are the same.
    """
    bits = 30
    rng = np.random.default_rng(seed)
    place = 1 << np.arange(bits, dtype=np.int64)
    shift = int(rng.integers(0, 2, bits, dtype=np.uint32) @ place)
    lower = np.tril(rng.integers(0, 2, (bits, bits), dtype=np.uint32)).astype(np.int64)
    np.fill_diagonal(lower, 1)
    # direction number j is bit j from the top; scrambled, it is column j
    # of the lower-triangular matrix read from the top bit down
    directions = place[::-1] @ lower
    n = np.arange(count, dtype=np.int64)
    gray = n ^ (n >> 1)
    x = np.full(count, shift, dtype=np.int64)
    for j, v in enumerate(directions):
        x ^= ((gray >> j) & 1) * v
    return x / 2.0**bits


def _sample_indices(density_flat, weights_flat, count, seed):
    """Quasi-random draws of grid nodes from the one-particle density."""
    p = np.maximum(density_flat * weights_flat, 0.0)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, _scrambled_sobol(count, seed))


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _ball_box(sq, r2: float):
    """The nodes with sum_ax sq[ax] <= r2, as their bounding index box and
    the mask inside it.

    ``sq[ax]`` holds each node's squared offset along axis ax.  A sum of
    nonnegative terms is at least each term, so no node of the ball lies
    outside the box, and the box's sums are the full grid's sums.
    """
    box = []
    for s in sq:
        inside = np.flatnonzero(s <= r2)
        box.append(slice(inside[0], inside[-1] + 1))
    return tuple(box), reduce(np.add.outer, [s[b] for s, b in zip(sq, box)]) <= r2


def localization_profile(ground: ManyBodyGround, gp: GPState, basis: ModeBasis,
                         radii, samples: int = 64, seed: int = 0) -> LocalizationProfile:
    """Average in-ball fractions of the weighted correlation gradient energy.

    Requires N = 2 and a mean-field state solved on the mode grid.  Nodes
    where the mean-field profile is below 1e-12 of its peak are excluded
    from the division and counted in the report.  The samples run on a
    thread pool, one worker per available CPU; each writes its own rows,
    so the result does not depend on the worker count.
    """
    if ground.N != 2:
        raise ConfigError("localization profile is defined for N = 2 runs")
    grid = basis.grid
    if gp.grid.shape != grid.shape or gp.grid.extent != grid.extent:
        raise ConfigError("mean-field state must live on the mode grid", field="grid")
    radii = tuple(float(d) for d in radii)
    if any(d <= 0 for d in radii):
        raise ConfigError("ball radii must be positive", field="radii")

    fock = FockBasis.build(2, basis.size, dimension_cap=10**9)
    C = _pair_amplitude_matrix(ground, fock)

    phi = gp.phi
    valid = phi > 1e-12 * phi.max()
    excluded = int(np.size(phi) - np.count_nonzero(valid))
    support = Region(grid=grid, mask=valid, kind="support")
    inverse = np.zeros(grid.shape)
    np.divide(1.0, phi, out=inverse, where=valid)
    weight = phi**2 * grid.weights

    density = basis.density(ground.gamma / ground.N).ravel()
    idx = _sample_indices(np.maximum(density, 0.0), grid.weights.ravel(), samples, seed)

    totals = np.zeros(samples)
    in_ball = np.zeros((samples, len(radii)))

    def sample(s: int):
        node = np.unravel_index(idx[s], grid.shape)
        f = basis.field(C @ basis.values_at(node))
        f *= inverse
        edens = masked_gradient_sq(f, support)
        edens *= weight
        totals[s] = edens.sum()
        # squared distance to node r2 per axis; each ball is summed on its box
        sq = [(x - x[i]) ** 2 for x, i in zip(grid.axes, node)]
        for di, d in enumerate(radii):
            box, inside = _ball_box(sq, d * d)
            in_ball[s, di] = edens[box][inside].sum()

    with ThreadPoolExecutor(max(1, min(samples, _cpu_count()))) as pool:
        list(pool.map(sample, range(samples)))

    total = float(totals.sum())
    if total < _NA_THRESHOLD:
        return LocalizationProfile(radii=radii, fractions=None, total_energy=total,
                                   samples=samples, seed=seed, excluded_points=excluded)
    ok = totals > 0
    fracs = (in_ball[ok] / totals[ok, None]).mean(axis=0)
    return LocalizationProfile(radii=radii, fractions=tuple(float(x) for x in fracs),
                               total_energy=total, samples=samples, seed=seed,
                               excluded_points=excluded)
