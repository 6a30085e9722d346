"""Where the pair-correlation gradient energy lives, for two bosons.

For N = 2 the ground state is a grid function of one coordinate once the
other is pinned at a sample point r2.  Dividing out the mean-field
profile leaves the correlation factor

    f(r) = Psi(r, r2) / phi(r),

whose weighted gradient energy int |phi|^2 |grad f|^2 concentrates in a
small ball around r2 for short-range repulsion.  This module reports, for
a list of ball radii, the fraction of that energy carried by the ball,
averaged over quasi-random r2 draws from the one-particle density.  Psi,
the modes and the grid come from the solve's own Hamiltonian (``ground.ham``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..errors import ConfigError
from ..gp import GPState
from ..poincare import Region, masked_gradient_sq
from .ground import ManyBodyGround, PairOpHamiltonian

_NA_THRESHOLD = 1e-13


@dataclass(frozen=True)
class LocalizationProfile:
    radii: tuple[float, ...]
    fractions: tuple[float, ...] | None     # None when there is no gradient energy
    total_energy: float
    samples: int
    seed: int
    excluded_points: int


def _pair_amplitude_matrix(ham: PairOpHamiltonian, x: np.ndarray) -> np.ndarray:
    """Symmetric C with Psi(r1, r2) = sum_ij C_ij mode_i(r1) mode_j(r2) for
    the two-boson state x over ``ham.fock``.

    C_kl = (a_k a_l x) / sqrt(2) at the vacuum: the pair amplitudes hold it
    at the one row of each pair class (only classes that reach the vacuum
    are kept), for every pair also in the orbit space, whose vacuum is an
    orbit of its own.
    """
    C = np.zeros((ham.fock.M, ham.fock.M))
    for cls, w in ham.pair_amplitudes(x):
        k, l = ham.tensor.pairs[cls.pairs].T
        C[k, l] = C[l, k] = w[0] / np.sqrt(2.0)
    return C


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
    """Quasi-random draws of grid nodes from the one-particle density.

    p = max(density * weights, 0) and its cdf are formed in
    ``density_flat``, which is overwritten."""
    cdf = density_flat
    cdf *= weights_flat
    np.maximum(cdf, 0.0, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, _scrambled_sobol(count, seed))


def _ball_boxes(sq, r2s):
    """Per squared radius r2 of ``r2s``, the nodes with sum_ax sq[ax] <= r2,
    as their bounding index box and the mask inside it.

    ``sq[ax]`` holds each node's squared offset along axis ax.  A sum of
    nonnegative terms is at least each term, so no node of a ball lies
    outside its box, and every box nests in the largest radius's box.  The
    sums are formed once, on that box, and each ball's mask compares its
    slice of them: the full grid's sums, to the bit.
    """
    def box_of(r2):
        box = []
        for s in sq:
            inside = np.flatnonzero(s <= r2)
            box.append(slice(inside[0], inside[-1] + 1))
        return tuple(box)

    outer = box_of(max(r2s))
    sums = reduce(np.add.outer, [s[b] for s, b in zip(sq, outer)])
    for r2 in r2s:
        box = box_of(r2)
        yield box, sums[tuple(slice(b.start - o.start, b.stop - o.start)
                              for b, o in zip(box, outer))] <= r2


def _draws(ground: ManyBodyGround, phi: np.ndarray, samples: int, seed: int):
    """The sampled flat node indices and the weight phi^2 dV.

    The quadrature weights are formed here as ``Grid.weights`` forms them,
    so the mode grid caches no array of its size.  The density, its
    clipped product with them and its cdf share one array, and the
    weights die on return.
    """
    basis = ground.ham.basis
    dv = reduce(np.multiply.outer, basis.grid.axis_weights)
    density = basis.density(ground.gamma / ground.N).ravel()
    idx = _sample_indices(np.maximum(density, 0.0, out=density), dv.ravel(), samples, seed)
    del density
    weight = phi**2
    weight *= dv
    return idx, weight


def localization_profile(ground: ManyBodyGround, gp: GPState, radii, samples: int = 64,
                         seed: int = 0) -> LocalizationProfile:
    """Average in-ball fractions of the weighted correlation gradient energy.

    Requires N = 2, a mean-field state solved on the grid of the modes
    ``ground.ham.basis`` (``lo`` included), radii that are positive (inf is
    the whole grid) and a nonnegative sample count.  Nodes where the
    mean-field profile is below 1e-12 of its peak are excluded from the
    division and counted in the report.  The samples run in draw order on
    the calling thread.  Besides 1/phi and the quadrature weight phi^2 dV, a
    sample holds its field and the buffers of ``masked_gradient_sq``, then
    its energy density and one box of ball sums.
    """
    if ground.N != 2:
        raise ConfigError("localization profile is defined for N = 2 runs")
    basis = ground.ham.basis
    grid = basis.grid
    if gp.grid != grid:
        raise ConfigError("mean-field state must live on the mode grid", field="grid")
    radii = tuple(float(d) for d in radii)
    if not all(d > 0 for d in radii):      # NaN compares false
        raise ConfigError("ball radii must be positive", field="radii")
    if samples < 0:
        raise ConfigError("the sample count must be nonnegative", field="samples")

    C = _pair_amplitude_matrix(ground.ham, ground.coefficients)

    phi = gp.phi
    support = Region(grid=grid, mask=phi > 1e-12 * phi.max(), kind="support")
    excluded = int(np.size(phi) - np.count_nonzero(support.mask))
    # the gradient's edge tables, built now so that their transients do not
    # stack on a sample's arrays
    support._stencil
    inverse = np.zeros(grid.shape)
    np.divide(1.0, phi, out=inverse, where=support.mask)
    idx, weight = _draws(ground, phi, samples, seed)

    totals = np.zeros(samples)
    in_ball = np.zeros((samples, len(radii)))
    r2s = [d * d for d in radii]
    for s in range(samples):
        node = np.unravel_index(idx[s], grid.shape)
        f = basis.field(C @ basis.values_at(node))
        f *= inverse
        edens = masked_gradient_sq(f, support)
        del f
        edens *= weight
        totals[s] = edens.sum()
        # squared distance to node r2 per axis
        sq = [(x - x[i]) ** 2 for x, i in zip(grid.axes, node)]
        for di, (box, inside) in enumerate(_ball_boxes(sq, r2s)):
            in_ball[s, di] = edens[box][inside].sum()
        del edens

    total = float(totals.sum())
    if total < _NA_THRESHOLD:
        return LocalizationProfile(radii=radii, fractions=None, total_energy=total,
                                   samples=samples, seed=seed, excluded_points=excluded)
    ok = totals > 0
    fracs = (in_ball[ok] / totals[ok, None]).mean(axis=0)
    return LocalizationProfile(radii=radii, fractions=tuple(float(x) for x in fracs),
                               total_energy=total, samples=samples, seed=seed,
                               excluded_points=excluded)

