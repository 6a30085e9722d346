"""Brute-force reference implementations kept independent of the library paths.

Everything here favors clarity over speed: literal operator algebra over
dictionaries, dense diagonalization, and direct quadrature, for instances
small enough to afford it.
"""

from dataclasses import replace
from itertools import combinations_with_replacement
from math import comb

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


def full_space(N, M):
    """Every N-boson state of M modes: ``FockBasis.build`` under all-zero
    codes and the identity alone."""
    from beclab.manybody.basis import FockBasis

    return FockBasis.build(N, np.zeros(M, dtype=np.int64), np.arange(M)[None])


def product_modes(tables, rows):
    """Product modes as 3D arrays, (len(rows), n0, n1, n2): mode m is the
    product over ax of tables[ax][rows[m, ax]]."""
    return (tables[0][rows[:, 0], :, None, None]
            * tables[1][rows[:, 1], None, :, None]
            * tables[2][rows[:, 2], None, None, :])


def sampled_modes(basis):
    """The modes of ``basis`` on its grid, (M, *grid.shape): a tabulated
    basis's own samples, product modes formed from their 1D factors."""
    if basis.axis_tables is None:
        return basis.modes
    return product_modes(basis.axis_tables, basis.table_rows)


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


def rank(fock, occ):
    """Full-space indices of occupation rows: sum_j F_j(rem_j) read off
    ``fock.rank_table`` (the additive rank of ``FockBasis``)."""
    rem = fock.N - np.cumsum(np.atleast_2d(occ), axis=1)
    return fock.rank_table[np.arange(fock.M), rem].sum(axis=1)


def annihilator(fock):
    """The one-boson map a: N -> N-1 of ``fock`` as a gather over D_{N-1} M rows.

    Row t*M + i holds a_i x at state t of the full (N-1)-particle basis.
    a_i reaches t from the single state t + e_i, so every row reads at most
    one entry of x (exactly one in the full space; in a sector, rows whose
    source lies outside it are empty): the source state ``indices`` and the
    amplitude sqrt(n_i) ``data``.  An empty row has index -1 and amplitude
    0; a gather over such rows appends the zero that index -1 reads (the
    pair map of a Hamiltonian has none).  Removing one boson
    from mode i lowers rem_j by one for j < i only, so
    rank_{N-1}(n - e_i) = rank_N(n) - sum_{j<i} [F_j(rem_j) - F_j(rem_j - 1)].
    """
    M, occ, F = fock.M, fock.occupations, fock.rank_table
    rows = comb(fock.N + M - 2, fock.N - 1) * M if fock.N else 0
    indices = np.full(rows, -1, dtype=np.int64)
    data = np.zeros(rows)
    target = fock.ranks.copy()
    rem = np.full(fock.size, fock.N)
    for i in range(M):
        src = np.nonzero(occ[:, i])[0]
        row = target[src] * M + i
        indices[row] = src
        data[row] = np.sqrt(occ[src, i].astype(float))   # not float16 on a uint8 table
        rem -= occ[:, i]
        target -= F[i, rem] - F[i, np.maximum(rem - 1, 0)]
    return indices, data


def full_space_pair_amplitudes(fock, x):
    """The two-boson matrix C_kl = (a_k a_l x) / sqrt(2) of a state x over
    ``fock`` (N = 2, the full space, a sector or its orbits), through the
    full N = 2 basis: x scattered there by its ranks (an orbit's amplitude
    spread over its states), then one annihilator.  State k of the
    one-particle basis is e_k, so a_k a_l x is entry k of a_l x."""
    full = full_space(2, fock.M)
    coefficients = np.zeros(full.size + 1)      # and the zero an empty row reads
    coefficients[fock.ranks] = x[fock.orbits] / np.sqrt(fock.orbit_sizes[fock.orbits])
    indices, data = annihilator(full)
    return (data * coefficients[indices]).reshape(fock.M, fock.M) / np.sqrt(2.0)


def sector(fock, mode_codes, code):
    """The states of ``fock`` whose parity code is ``code``, by filtering its
    rows: the code is the XOR of ``mode_codes`` over odd occupations."""
    from beclab.manybody.basis import FockBasis

    parity = np.zeros(fock.size, dtype=np.int64)
    for i in range(fock.M):
        parity ^= (fock.occupations[:, i] & 1) * mode_codes[i]
    keep = parity == code
    size = np.count_nonzero(keep)
    return FockBasis(N=fock.N, occupations=fock.occupations[keep],
                     orbit_sizes=np.ones(size, dtype=np.int64), ranks=fock.ranks[keep],
                     orbits=np.arange(size), rank_table=fock.rank_table,
                     mode_codes=np.asarray(mode_codes), mode_perms=fock.mode_perms,
                     code=int(code))


def composed_pair_map(fock, pairs):
    """The pair map (cols, amps) of ``PairOpHamiltonian`` composed from two
    one-boson maps: a_k of the full (N-1)-particle basis after a_l of
    ``fock``, at the (N-2)-particle rows of each pair class in class order
    (a class of code c reaches the rows of parity code ``fock.code ^ c``)."""
    from beclab.manybody.tensor import pair_classes

    M = fock.M
    lower = full_space(fock.N - 2, M)
    inner = full_space(fock.N - 1, M)
    inner_indices, inner_data = (m.reshape(-1, M) for m in annihilator(inner))
    indices, data = annihilator(fock)
    cols, amps = [], []
    for code, members in pair_classes(fock.mode_codes, pairs):
        target = sector(lower, fock.mode_codes, fock.code ^ code)
        k, l = pairs[members].T
        r = target.ranks[:, None]
        row = inner_indices[r, k] * M + l
        cols.append(indices[row].ravel())
        amps.append((inner_data[r, k] * data[row]).ravel())
    return np.concatenate(cols), np.concatenate(amps)


def tensor_entry(tensor, i, j, k, l, B=None):
    """V[i, j, k, l] = B[p(i, k), p(j, l)], read from the dense B
    (``InteractionTensor.pair_matrix``, formed here unless given)."""
    pi = tensor.pair_index
    return float((tensor.pair_matrix if B is None else B)[pi[i, k], pi[j, l]])


def one_class(tensor):
    """The same tensor as one class of every pair: all-zero mode codes and
    the dense B (``pair_matrix``) as its one block, so a Hamiltonian over
    the full occupation space can take it.  Its fold over all pairs is
    ``dense_pair_fold(tensor)``, zeros across the parity classes included."""
    from beclab.manybody.tensor import BlockLayout, InteractionTensor

    classes = ((0, np.arange(tensor.n_pairs)),)
    return InteractionTensor(mode_codes=np.zeros(tensor.M, dtype=np.int64),
                             mode_perms=np.arange(tensor.M)[None], classes=classes,
                             blocks=tensor.pair_matrix.ravel(),
                             layout=BlockLayout.of(classes, tensor.n_pairs))


def identity_only(tensor):
    """The same tensor with the identity as its one mode permutation: every
    state is its own orbit, so a Hamiltonian over it solves in the parity
    sector."""
    return replace(tensor, mode_perms=tensor.mode_perms[:1])


def orbit_sums(N, M, ranks, perms):
    """U of shape (full-space states, orbits): column o is the unit sum over
    orbit o of the states of full-space ``ranks`` (closed under the mode
    permutations ``perms``), the orbits ordered by their lowest rank.  By
    literal permutation of occupation tuples: the image of n under p has
    n[p[m]] at mode m."""
    states, index = fock_states(N, M)
    orbits = {}
    for r in ranks:
        images = frozenset(index[tuple(states[r][m] for m in p)] for p in perms)
        orbits[min(images)] = images
    U = np.zeros((len(states), len(orbits)))
    for o, lowest in enumerate(sorted(orbits)):
        U[sorted(orbits[lowest]), o] = 1.0 / np.sqrt(len(orbits[lowest]))
    return U


def orbit_hamiltonian(basis, tensor, N, fock):
    """U^T H U: the dense H of ``dense_hamiltonian`` on the orbit sums of
    ``fock``'s sector under the tensor's mode permutations (``orbit_sums``)."""
    H, _, _ = dense_hamiltonian(basis, tensor, N)
    U = orbit_sums(N, basis.size, fock.ranks, tensor.mode_perms)
    return U.T @ H @ U, U


def dense_hamiltonian(basis, tensor, N):
    """Dense H by literal application of the normal-ordered pair term."""
    fock = full_space(N, basis.size)
    states = [tuple(s) for s in fock.occupations.tolist()]   # Python ints, not uint8
    index = {s: i for i, s in enumerate(states)}
    M = basis.size
    eps = basis.energies
    B = tensor.pair_matrix
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
                            0.5 * tensor_entry(tensor, i, j, k, l, B)
                            * amp1 * amp2 * amp3 * amp4)
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
    modes = sampled_modes(basis)
    dens = np.zeros((len(pairs),) + npad)
    for p, (i, k) in enumerate(pairs):
        dens[p][: n[0], : n[1], : n[2]] = modes[i] * modes[k] * grid.weights
    hat = np.fft.fftn(dens, axes=(1, 2, 3)).reshape(len(pairs), -1)
    return ((hat * w) @ hat.conj().T).real


def dense_pair_fold(tensor):
    """The normal-ordered pair fold F over every pair at once, from the
    dense B (``InteractionTensor.pair_matrix``): F[(i,j),(k,l)] =
    (2-d_ij)(2-d_kl)/4 (B[p(i,k), p(j,l)] + B[p(i,l), p(j,k)]), one P x P
    array with its zeros across pair classes."""
    pi, B = tensor.pair_index, tensor.pair_matrix
    i, j = tensor.pairs[:, :1], tensor.pairs[:, 1:]
    k, l = tensor.pairs.T
    w = 2.0 - (k == l)
    return (w[:, None] * w) * 0.25 * (B[pi[i, k], pi[j, l]] + B[pi[i, l], pi[j, k]])


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


def gp_energy_components(state):
    """(kinetic, potential, interaction) of a mean-field state recomputed from
    its stored phi on the full interior (no mirror sector)."""
    from beclab.errors import InvalidParameterError
    from beclab.gp import _Workspace

    if state.norm_error() > 1e-8:
        raise InvalidParameterError("state is not normalized")
    ws = _Workspace(state.trap, state.grid)
    p = state.phi[tuple(slice(1, -1) for _ in state.grid.points)]
    b = ws.coefficients(p)
    kinetic = ws.kinetic(b)
    potential = ws.hd * float(np.sum(ws.V * p * p))
    interaction = state.g * ws.hd * float(np.sum(p**4))
    return kinetic, potential, interaction


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
    for idx, mode in enumerate(sampled_modes(basis)):
        t = np.tensordot(mode, waves[0], axes=(0, 0))
        t = np.tensordot(t, waves[1], axes=(0, 0))
        t = np.tensordot(t, waves[2], axes=(0, 0))
        out[idx] = t
    return out


def analytic_mode_transforms(basis, k_axes):
    """Closed-form transforms of harmonic modes, materialized on the 3D lattice.

    Each oscillator eigenfunction transforms to (-i)^(total quanta) times
    the eigenfunction of inverted stiffness, scaled by (2 pi)^(-3/2); a
    harmonic mode's quantum numbers are its table rows.
    """
    from beclab.manybody.basis import hermite_functions

    per_axis = [hermite_functions(basis.max_quanta, np.asarray(k), 1.0 / basis.trap.stiffness[ax])
                for ax, k in enumerate(k_axes)]
    out = np.empty((basis.size,) + tuple(len(k) for k in k_axes), dtype=complex)
    for idx, q in enumerate(basis.table_rows.tolist()):
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
    region edges, zero off K (f must be finite everywhere): the full-grid
    loop whose arithmetic, df = 0.5 * (d[i] + d[i-1]) with d = (f[i+1] -
    f[i]) / h, squared and summed over the axes in order, the flat passes of
    ``poincare.masked_gradient_sq`` repeat, so that they match it bit for bit.
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


def _sides(region, f, omega, w):
    """The left side and int_K f^2 w of the inequality, written out."""
    from beclab.poincare import masked_gradient_sq

    grad2 = masked_gradient_sq(f, region)
    vol_omega_c = float(np.sum(region.grid.weights[region.mask & ~omega]))
    lhs = (float(np.sum(grad2 * w * omega))
           + (vol_omega_c / region.volume) ** (2.0 / region.m) * float(np.sum(grad2 * w)))
    return lhs, float(np.sum(f**2 * w))


def _worse(worst, margin, desc):
    return {"margin": margin, **desc} if worst is None or margin < worst["margin"] else worst


def per_trial_weighted_estimate(region, weight, c_star, trials, seed):
    """``poincare.weighted_estimate`` written out per trial, with no
    ``PoincareInstance``: every trial checks and normalizes the raw weight,
    forms the measure node_weights * weight, projects f once so that
    int_K f dmu = 0 and takes the two sides in that measure."""
    from beclab.errors import InvalidParameterError
    from beclab.poincare import _random_field, _random_omega

    wk = weight[region.mask]
    ratio = float(wk.max() / max(wk.min(), 1e-300))
    c_prime = c_star * ratio**2
    rng = np.random.default_rng(seed)
    worst = None
    holds = True
    for _ in range(trials):
        f = _random_field(rng, region)
        omega, desc = _random_omega(rng, region)
        if wk.min() <= 0 or not np.isfinite(wk).all():
            raise InvalidParameterError("weight must be positive and finite on K")
        unit = weight * region.volume / float(np.sum(weight * region.node_weights))
        w = region.node_weights * unit
        f = np.where(region.mask, f, 0.0)
        f -= float(np.vdot(f, w)) / float(np.sum(w))
        f[~region.mask] = 0.0
        lhs, f2 = _sides(region, f, omega, w)
        rhs = f2 / c_prime
        holds &= bool(lhs >= rhs - 1e-12)
        worst = _worse(worst, lhs - rhs, desc)
    return {"C_prime": c_prime, "weight_ratio": ratio, "holds_all": bool(holds),
            "worst_trial": worst}


def _h_route_trials(region, trials, seed):
    """The trials of the route with a general weight h, at h = 1/|K| on K:
    h is an array, and f is projected so that int_K f h = 0."""
    from beclab.poincare import _random_field, _random_omega

    h = np.where(region.mask, 1.0 / region.volume, 0.0)
    w = region.node_weights
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = np.where(region.mask, _random_field(rng, region), 0.0)
        omega, desc = _random_omega(rng, region)
        f = f - float(np.sum(f * h * w)) / float(np.sum(h * w))
        f[~region.mask] = 0.0
        yield h, f, omega, desc


def h_route_estimate_constant(region, trials, seed):
    """``poincare.estimate_constant``'s C* and worst trial by the h route."""
    c_star, worst = 0.0, {}
    for t, (_, f, omega, desc) in enumerate(_h_route_trials(region, trials, seed)):
        lhs, f2 = _sides(region, f, omega, region.node_weights)
        if f2 >= 1e-18 and lhs > 0 and f2 / lhs > c_star:
            c_star = f2 / lhs
            worst = dict(desc, trial=t, ratio=c_star)
    return c_star, worst


def h_route_weighted_estimate(region, weight, c_star, trials, seed):
    """``poincare.weighted_estimate`` by the h route: each trial's f, projected
    in the unweighted measure, is projected again so that its weighted
    h-mean vanishes."""
    wk = weight[region.mask]
    ratio = float(wk.max() / wk.min())
    c_prime = c_star * ratio**2
    w = region.node_weights * (weight * region.volume / float(np.sum(weight * region.node_weights)))
    worst = None
    holds = True
    for h, f, omega, desc in _h_route_trials(region, trials, seed):
        f = f - float(np.sum(f * h * w)) / float(np.sum(h * w))
        f[~region.mask] = 0.0
        lhs, f2 = _sides(region, f, omega, w)
        rhs = f2 / c_prime
        holds &= bool(lhs >= rhs - 1e-12)
        worst = _worse(worst, lhs - rhs, desc)
    return {"C_prime": c_prime, "weight_ratio": ratio, "holds_all": bool(holds),
            "worst_trial": worst}


def materialized_localization(ground, gp, radii, samples, seed):
    """``localization_profile`` on the materialized 3D modes, one sample at a
    time: C comes from the full N = 2 basis (``full_space_pair_amplitudes``),
    the sample column and psi's slice read all M modes, f divides by
    phi, and each ball is a full-grid squared-distance mask.  Returns the
    fractions, the total energy and the sampled flat node indices."""
    from beclab.manybody.localization import _sample_indices
    from beclab.poincare import Region, masked_gradient_sq

    basis = ground.ham.basis
    grid = basis.grid
    C = full_space_pair_amplitudes(ground.ham.fock, ground.coefficients)
    flat = sampled_modes(basis).reshape(basis.size, -1)
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


def point_interpolate(table_grid, table, pts):
    """Multilinear interpolation at the points ``pts[..., ax]``, as the sum
    over the 2^d corners of each point's cell.  Raises OutOfDomainError for
    a point more than 1e-9 of a cell outside the table's extent."""
    from beclab.errors import OutOfDomainError

    tg = table_grid
    idx = []
    frac = []
    for ax in range(tg.dimension):
        x = (pts[..., ax] - tg.lo[ax]) / tg.spacing[ax]
        eps = 1e-9
        if np.any(x < -eps) or np.any(x > tg.points[ax] - 1 + eps):
            raise OutOfDomainError("point outside the tabulated extent", field="table")
        x = np.clip(x, 0.0, tg.points[ax] - 1)
        i0 = np.minimum(x.astype(int), tg.points[ax] - 2)
        idx.append(i0)
        frac.append(x - i0)
    out = np.zeros(pts.shape[:-1])
    for corner in range(2 ** tg.dimension):
        w = np.ones(pts.shape[:-1])
        sel = []
        for ax in range(tg.dimension):
            bit = (corner >> ax) & 1
            sel.append(idx[ax] + bit)
            w = w * (frac[ax] if bit else 1.0 - frac[ax])
        out += w * table[tuple(sel)]
    return out


def unfold_axis_by_axis(p, out, mirror):
    """``gp.unfold`` as a loop over the axes: p at the low corner of out,
    then, on the sector, out's unfolded part mirrored into the upper half
    of each axis in turn."""
    out[tuple(slice(0, n) for n in p.shape)] = p
    if not mirror:
        return
    for ax, n in enumerate(p.shape):
        # axes before ax are unfolded already, those from ax on are not
        done = tuple(slice(None) if a < ax else slice(0, m) for a, m in enumerate(p.shape))
        upper = done[:ax] + (slice(n, 2 * n),) + done[ax + 1:]
        out[upper] = np.flip(out[done], axis=ax)
