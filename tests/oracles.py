"""Brute-force reference implementations kept independent of the library paths.

Everything here favors clarity over speed: literal operator algebra over
dictionaries, dense diagonalization, and direct quadrature, for instances
small enough to afford it.
"""

from itertools import combinations_with_replacement

import numpy as np


def fock_states(N, M):
    """Occupation tuples in combinations-with-replacement order, and their index."""
    states = []
    for combo in combinations_with_replacement(range(M), N):
        s = [0] * M
        for c in combo:
            s[c] += 1
        states.append(tuple(s))
    return states, {s: i for i, s in enumerate(states)}


def literal_annihilation(N, M):
    """Entries (row, col, amp) of a: N -> N-1, row t*M + i, by dict lookups."""
    states, _ = fock_states(N, M)
    _, lower = fock_states(N - 1, M)
    rows, cols, amps = [], [], []
    for si, s in enumerate(states):
        for i in range(M):
            if s[i]:
                t = list(s)
                t[i] -= 1
                rows.append(lower[tuple(t)] * M + i)
                cols.append(si)
                amps.append(np.sqrt(s[i]))
    return np.array(rows), np.array(cols), np.array(amps)


def literal_pair_annihilation(x, N, M, pairs):
    """out[r, b] = (a_k a_l x) at state r of the N-2 basis for pairs b = (k, l)."""
    states, _ = fock_states(N, M)
    _, lower = fock_states(N - 2, M)
    out = np.zeros((len(lower), len(pairs)))
    for si, s in enumerate(states):
        for b, (k, l) in enumerate(pairs):
            t = list(s)
            amp = np.sqrt(t[l])
            t[l] -= 1
            amp *= np.sqrt(max(t[k], 0))
            t[k] -= 1
            if amp:
                out[lower[tuple(t)], b] += amp * x[si]
    return out


def literal_pair_amplitudes(x, N2_states):
    """Two-boson wavefunction matrix C from the coefficients of occupation states."""
    M = len(N2_states[0])
    C = np.zeros((M, M))
    for idx, occ in enumerate(N2_states):
        nz = np.nonzero(occ)[0]
        if len(nz) == 1:
            C[nz[0], nz[0]] = x[idx]
        else:
            i, j = nz
            C[i, j] = C[j, i] = x[idx] / np.sqrt(2.0)
    return C


def dense_hamiltonian(basis, tensor, N):
    """Dense H by literal application of the normal-ordered pair term."""
    from beclab.manybody.basis import FockBasis

    fock = FockBasis.build(N, basis.size, dimension_cap=10**9)
    states = [tuple(s) for s in fock.occupations]
    index = {s: i for i, s in enumerate(states)}
    M = basis.size
    eps = basis.energies
    S = len(states)
    H = np.zeros((S, S))
    for si, s in enumerate(states):
        H[si, si] += float(np.dot(s, eps))
        for k in range(M):
            if s[k] == 0:
                continue
            for l in range(M):
                s1 = list(s)
                amp1 = np.sqrt(s1[k])
                s1[k] -= 1
                if s1[l] == 0:
                    continue
                amp2 = np.sqrt(s1[l])
                s1[l] -= 1
                for i in range(M):
                    for j in range(M):
                        s2 = list(s1)
                        amp3 = np.sqrt(s2[j] + 1)
                        s2[j] += 1
                        amp4 = np.sqrt(s2[i] + 1)
                        s2[i] += 1
                        H[index[tuple(s2)], si] += (
                            0.5 * tensor[i, j, k, l] * amp1 * amp2 * amp3 * amp4)
    return H, states, index


def dense_ground(basis, tensor, N):
    H, states, index = dense_hamiltonian(basis, tensor, N)
    vals, vecs = np.linalg.eigh(H)
    x = vecs[:, 0]
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return float(vals[0]), x, states, index


def dense_gamma(x, states, index, M):
    """gamma[i,j] = <a+_j a_i> by literal ladder algebra."""
    gamma = np.zeros((M, M))
    for si, s in enumerate(states):
        for i in range(M):
            gamma[i, i] += s[i] * x[si] ** 2
            for j in range(M):
                if i == j or s[i] == 0:
                    continue
                s1 = list(s)
                amp = np.sqrt(s1[i])
                s1[i] -= 1
                amp *= np.sqrt(s1[j] + 1)
                s1[j] += 1
                gamma[i, j] += amp * x[si] * x[index[tuple(s1)]]
    return gamma


def dense_pair_matrix(basis, potential, sampled=False):
    """Pair-density overlap matrix of the spectral route, all pairs at once.

    Full complex transforms of every zero-padded pair density over the whole
    frequency lattice and one complex GEMM: no parity classes, no blocks,
    no half-spectrum weights, no per-axis factors.  With ``sampled`` the
    kernel is the transform of v sampled at the padded box's displacements
    (``sampled_kernel``) instead of the exact radial transform.
    """
    grid = basis.grid
    h = grid.spacing
    n = grid.points
    pad = int(np.ceil(potential.range / h[0])) + 2
    npad = tuple(m + pad for m in n)
    if sampled:
        vq = np.fft.fftn(sampled_kernel(potential, npad, h)).real * np.prod(h)
    else:
        q = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(npad[ax], d=h[ax]) for ax in range(3)],
                        indexing="ij", sparse=True)
        vq = potential.fourier_radial(np.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2))
    w = vq.ravel() / (np.prod(npad) * np.prod(h))
    M = basis.size
    pairs = [(i, k) for i in range(M) for k in range(i, M)]
    dens = np.zeros((len(pairs),) + npad)
    for p, (i, k) in enumerate(pairs):
        dens[p][: n[0], : n[1], : n[2]] = basis.modes[i] * basis.modes[k] * grid.weights
    hat = np.fft.fftn(dens, axes=(1, 2, 3)).reshape(len(pairs), -1)
    return ((hat * w) @ hat.conj().T).real


def sampled_kernel(potential, npad, h):
    """v at the minimum-image displacement vectors of the padded box."""
    axes = []
    for ax in range(3):
        idx = np.arange(npad[ax], dtype=float)
        idx = np.minimum(idx, npad[ax] - idx)
        axes.append(idx * h[ax])
    dx, dy, dz = np.meshgrid(*axes, indexing="ij", sparse=True)
    return potential.evaluate(np.sqrt(dx**2 + dy**2 + dz**2))


def sampled_pair_matrix(basis, potential):
    """Pair-density overlap matrix with v sampled on grid displacements.

    The literal grid convolution: only meaningful when the grid resolves
    the potential, so ranges below two grid spacings are refused.
    """
    from beclab.errors import ResolutionError

    h = basis.grid.spacing
    if potential.range < 2.0 * max(h):
        raise ResolutionError(
            f"potential range {potential.range:.3g} below two grid spacings "
            f"({2 * max(h):.3g}); the sampled kernel misses it")
    return dense_pair_matrix(basis, potential, sampled=True)


def rayleigh_quotient_3d(trap, grid, mode):
    """Quadrature Rayleigh quotient of a 3D grid function: the DST-I kinetic
    form through scipy's FFT-based transform, plus the sampled trap."""
    from scipy.fft import dstn

    interior = (slice(1, -1),) * 3
    f = mode[interior]
    hd = float(np.prod(grid.spacing))
    b = dstn(f, type=1) / np.prod([m + 1.0 for m in f.shape])
    kappa = [(np.pi * np.arange(1, m + 1) / e) ** 2 for m, e in zip(f.shape, grid.extent)]
    kk = sum(np.meshgrid(*kappa, indexing="ij", sparse=True))
    kinetic = float(np.sum(b * b * kk)) * float(np.prod([e / 2 for e in grid.extent]))
    num = kinetic + hd * float(np.sum(trap.sample(grid)[interior] * f * f))
    return num / (hd * float(np.sum(f * f)))


def tensor_apply(arr, mats, transpose):
    """Multiply axis ax of ``arr`` by mats[ax] (by its transpose when
    ``transpose``), moving each axis to the front for a tensordot."""
    for ax, U in enumerate(mats):
        M = U.T if transpose else U
        arr = np.moveaxis(np.tensordot(M, np.moveaxis(arr, ax, 0), axes=(1, 0)), 0, ax)
    return arr


def quadrature_mode_transforms(basis, k_axes):
    """Mode transforms by direct 1D quadrature along each axis.

    Independent of the closed-form route: separable modes are transformed
    with explicit sums of samples against plane waves.
    """
    grid = basis.grid
    out = np.empty((basis.size,) + tuple(len(k) for k in k_axes), dtype=complex)
    waves = []
    for ax in range(3):
        x = grid.axes[ax]
        w = grid.axis_weights[ax]
        kx = np.asarray(k_axes[ax])
        waves.append((w[:, None] * np.exp(-1j * np.outer(x, kx))) / np.sqrt(2 * np.pi))
    for idx in range(basis.size):
        t = np.tensordot(basis.modes[idx], waves[0], axes=(0, 0))
        t = np.tensordot(t, waves[1], axes=(0, 0))
        t = np.tensordot(t, waves[2], axes=(0, 0))
        out[idx] = t
    return out


def analytic_mode_transforms(basis, k_axes):
    """Closed-form transforms of harmonic modes, materialized on the 3D lattice.

    Each oscillator eigenfunction transforms to (-i)^(total quanta) times
    the eigenfunction of inverted stiffness, scaled by (2 pi)^(-3/2).
    """
    from beclab.manybody.basis import hermite_functions

    per_axis = [hermite_functions(basis.max_quanta, np.asarray(k), 1.0 / basis.trap.stiffness[ax])
                for ax, k in enumerate(k_axes)]
    out = np.empty((basis.size,) + tuple(len(k) for k in k_axes), dtype=complex)
    for idx, q in enumerate(basis.quantum_numbers):
        out[idx] = (-1j) ** sum(q) * (per_axis[0][q[0]][:, None, None]
                                      * per_axis[1][q[1]][None, :, None]
                                      * per_axis[2][q[2]][None, None, :])
    return out


def materialized_momentum_metrics(gamma_over_n, c_ref, transforms, k_axes):
    """(L1 distance, coverage) of momentum densities by explicit double sums
    over materialized mode transforms."""
    rho = np.einsum("ij,i...,j...->...", gamma_over_n, transforms, np.conj(transforms)).real
    ref_amp = np.tensordot(c_ref, transforms, axes=(0, 0))
    ref = np.abs(ref_amp) ** 2
    w = None
    for ax in k_axes:
        ax = np.asarray(ax)
        wa = np.full(len(ax), ax[1] - ax[0])
        wa[0] = wa[-1] = 0.5 * (ax[1] - ax[0])
        w = wa if w is None else np.multiply.outer(w, wa)
    return float(np.sum(np.abs(rho - ref) * w)), float(np.sum(rho * w))


def quadrature_momentum_l1(gamma_over_n, c_ref, basis, k_axes):
    """L1 distance of momentum densities assembled by explicit double sums."""
    transforms = quadrature_mode_transforms(basis, k_axes)
    return materialized_momentum_metrics(gamma_over_n, c_ref, transforms, k_axes)[0]


def pinned_soft_sphere_length(height, radius):
    """Scattering length by bisection on dense outward Euler integration.

    Deliberately crude second-order integration on a very fine mesh, as a
    sanity anchor for the closed form.
    """
    n = 200_000
    h = radius / n
    u, du = 0.0, 1.0
    for i in range(n):
        r = i * h
        v = height if r < radius else 0.0
        u2 = 0.5 * v * u
        u += h * du + 0.5 * h * h * u2
        du += h * 0.5 * (u2 + 0.5 * (height if (r + h) < radius else 0.0) * u)
    return radius - u / du


def masked_gradient_sq(f, region):
    """|grad f|^2 per node by boolean masks rebuilt from ``region.mask``.

    Central differences where both axis neighbors lie in K, one-sided at
    region edges, zero off K: the full-grid loop the cached stencil of
    ``poincare.masked_gradient_sq`` must reproduce bit for bit.
    """
    mask = region.mask
    out = np.zeros(region.grid.shape)
    for ax, h in enumerate(region.grid.spacing):
        fwd_ok = np.zeros_like(mask)
        bwd_ok = np.zeros_like(mask)
        sl_in = [slice(None)] * mask.ndim
        sl_up = [slice(None)] * mask.ndim
        sl_in[ax] = slice(None, -1)
        sl_up[ax] = slice(1, None)
        pair = mask[tuple(sl_in)] & mask[tuple(sl_up)]
        fwd_ok[tuple(sl_in)] = pair
        bwd_ok[tuple(sl_up)] = pair
        df = np.zeros(region.grid.shape)
        dfwd = np.zeros(region.grid.shape)
        dbwd = np.zeros(region.grid.shape)
        dfwd[tuple(sl_in)] = (f[tuple(sl_up)] - f[tuple(sl_in)]) / h
        dbwd[tuple(sl_up)] = dfwd[tuple(sl_in)]
        both = fwd_ok & bwd_ok
        df[both] = 0.5 * (dfwd[both] + dbwd[both])
        only_f = fwd_ok & ~bwd_ok
        df[only_f] = dfwd[only_f]
        only_b = bwd_ok & ~fwd_ok
        df[only_b] = dbwd[only_b]
        out += df**2
    out[~mask] = 0.0
    return out


def omega_x_mask(points, radius, region):
    """Nodes of K at distance >= radius from every point, one full-grid
    squared distance per point (no radius check)."""
    g = region.grid
    mask = region.mask.copy()
    pts = np.asarray(points, dtype=float).reshape(-1, region.m)
    mesh = g.meshgrid()
    for p in pts:
        rr = np.zeros(g.shape)
        for ax, x in enumerate(mesh):
            rr = rr + (x - p[ax]) ** 2
        mask &= rr >= radius**2
    return mask


def random_field(rng, region):
    """``poincare._random_field`` on the full grid: each Gaussian bump is
    one exponential of the full-grid squared distance to its centre."""
    g = region.grid
    mesh = g.meshgrid()
    diam = max(g.extent)
    f = 0.0
    for _ in range(rng.integers(3, 8)):
        center = [lo + rng.random() * e for lo, e in zip(g.lo, g.extent)]
        width = (0.08 + 0.25 * rng.random()) * diam
        amp = rng.normal()
        rr = sum((x - c) ** 2 for x, c in zip(mesh, center))
        f += amp * np.exp(-rr / (2 * width**2))
    return f


def per_trial_weighted_estimate(region, weight, c_star, trials, seed):
    """``poincare.weighted_estimate`` as it was before the weight check and
    normalization were hoisted: ``weighted_check`` re-checks and re-normalizes
    the raw weight on every trial."""
    from beclab.poincare import (PoincareInstance, _random_field, _random_omega,
                                 weighted_check)

    wk = weight[region.mask]
    ratio = float(wk.max() / max(wk.min(), 1e-300))
    c_prime = c_star * ratio**2
    rng = np.random.default_rng(seed)
    worst = None
    holds = True
    for _ in range(trials):
        f = _random_field(rng, region)
        omega, desc = _random_omega(rng, region)
        res = weighted_check(PoincareInstance.build(region, omega, f, description=desc),
                             weight, c_prime)
        holds &= res["holds"]
        margin = res["lhs"] - res["rhs"]
        if worst is None or margin < worst["margin"]:
            worst = {"margin": margin, **desc}
    return {"C_prime": c_prime, "weight_ratio": ratio, "holds_all": bool(holds),
            "worst_trial": worst}


def materialized_localization(ground, gp, basis, radii, samples, seed):
    """``localization_profile`` on the materialized 3D modes, one sample at a
    time: the sample column and psi's slice read all M modes, f divides by
    phi, and each ball is a full-grid squared-distance mask.  Returns the
    fractions, the total energy and the sampled flat node indices."""
    from beclab.manybody.basis import FockBasis
    from beclab.manybody.localization import _pair_amplitude_matrix, _sample_indices
    from beclab.poincare import Region, masked_gradient_sq

    grid = basis.grid
    C = _pair_amplitude_matrix(ground, FockBasis.build(2, basis.size, dimension_cap=10**9))
    flat = basis.modes.reshape(basis.size, -1)
    phi = gp.phi.ravel()
    valid = phi > 1e-12 * phi.max()
    support = Region(grid=grid, mask=valid.reshape(grid.shape), kind="support")
    weight = phi**2 * grid.weights.ravel()
    density = ((ground.gamma / ground.N) @ flat * flat).sum(axis=0)
    idx = _sample_indices(np.maximum(density, 0.0), grid.weights.ravel(), samples, seed)
    totals = np.zeros(samples)
    in_ball = np.zeros((samples, len(radii)))
    for s, cell in enumerate(idx):
        dx, dy, dz = ((x - x[i]) ** 2
                      for x, i in zip(grid.axes, np.unravel_index(cell, grid.shape)))
        dist2 = (dx[:, None, None] + dy[:, None] + dz).ravel()
        psi = (C @ flat[:, cell]) @ flat
        f = np.zeros_like(psi)
        f[valid] = psi[valid] / phi[valid]
        edens = masked_gradient_sq(f.reshape(grid.shape), support).ravel() * weight
        totals[s] = edens.sum()
        for di, d in enumerate(radii):
            in_ball[s, di] = edens[dist2 <= d * d].sum()
    ok = totals > 0
    return (in_ball[ok] / totals[ok, None]).mean(axis=0), float(totals.sum()), idx


def trap_sample(trap, grid):
    """``TrapSpec.sample`` for the harmonic and box kinds as a running sum
    over the sparse mesh, one axis term at a time, from a zero array."""
    v = np.zeros(grid.shape)
    if trap.kind == "harmonic":
        for k, x in zip(trap.stiffness, grid.meshgrid()):
            v = v + k * x**2
    return v


def ball_mask(grid, radius):
    """``Region.ball``'s mask on its centred ``grid``, from the running sum
    of squared coordinates over the sparse mesh."""
    rr = np.zeros(grid.shape)
    for x in grid.meshgrid():
        rr = rr + x**2
    return rr <= radius**2 * (1 + 1e-12)
