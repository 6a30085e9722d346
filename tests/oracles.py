"""Brute-force reference implementations kept independent of the library paths.

Everything here favors clarity over speed: literal operator algebra over
dictionaries, dense diagonalization, and direct quadrature, for instances
small enough to afford it.
"""

import numpy as np


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


def dense_pair_matrix(basis, potential):
    """Pair-density overlap matrix of the spectral route, all pairs at once.

    Full complex transforms of every zero-padded pair density over the whole
    frequency lattice and one complex GEMM: no parity classes, no blocks,
    no half-spectrum weights.
    """
    grid = basis.grid
    h = grid.spacing
    n = grid.points
    pad = int(np.ceil(potential.range / h[0])) + 2
    npad = tuple(m + pad for m in n)
    q = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(npad[ax], d=h[ax]) for ax in range(3)],
                    indexing="ij", sparse=True)
    qmag = np.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2)
    w = potential.fourier_radial(qmag).ravel() / (np.prod(npad) * np.prod(h))
    M = basis.size
    pairs = [(i, k) for i in range(M) for k in range(i, M)]
    dens = np.zeros((len(pairs),) + npad)
    for p, (i, k) in enumerate(pairs):
        dens[p][: n[0], : n[1], : n[2]] = basis.modes[i] * basis.modes[k] * grid.weights
    hat = np.fft.fftn(dens, axes=(1, 2, 3)).reshape(len(pairs), -1)
    return ((hat * w) @ hat.conj().T).real


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


def quadrature_momentum_l1(gamma_over_n, c_ref, basis, k_axes):
    """L1 distance of momentum densities assembled by explicit double sums."""
    transforms = quadrature_mode_transforms(basis, k_axes)
    rho = np.einsum("ij,i...,j...->...", gamma_over_n, transforms, np.conj(transforms))
    ref_amp = np.tensordot(c_ref, transforms, axes=(0, 0))
    ref = np.abs(ref_amp) ** 2
    w = None
    for ax in k_axes:
        ax = np.asarray(ax)
        wa = np.full(len(ax), ax[1] - ax[0])
        wa[0] = wa[-1] = 0.5 * (ax[1] - ax[0])
        w = wa if w is None else np.multiply.outer(w, wa)
    return float(np.sum(np.abs(rho.real - ref) * w))


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
