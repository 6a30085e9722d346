import inspect
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beclab as bl
from beclab.errors import CapacityError, ResolutionError
from beclab.manybody import basis as basis_module
from beclab.manybody import build_mode_basis
from beclab.manybody.basis import (FockBasis, _energy_check_error, _rank_table,
                                   _sector_states, separable_modes)
from beclab.model import MAX_FOCK_DIMENSION

from .oracles import (annihilator, fock_states, full_space, literal_annihilation,
                      literal_orbits, product_modes, rank, rayleigh_quotient_3d,
                      sampled_modes, sector)


def _gram_error(basis):
    # the quadrature Gram matrix of the modes sampled on the grid
    flat = sampled_modes(basis).reshape(basis.size, -1)
    return float(np.abs((flat * basis.grid.weights.ravel()) @ flat.T
                        - np.eye(basis.size)).max())


def test_single_mode_basis(trap, grid48):
    basis = build_mode_basis(trap, grid48, 0)
    assert basis.size == 1
    assert basis.energies[0] == pytest.approx(3.0)


def test_quanta_two_degeneracies(trap, grid48):
    basis = build_mode_basis(trap, grid48, 2)
    assert basis.size == 10
    np.testing.assert_allclose(np.sort(basis.energies), [3] + [5] * 3 + [7] * 6)
    assert _gram_error(basis) < 1e-8


def test_mode_ordering_ties_lexicographic(trap, grid48):
    basis = build_mode_basis(trap, grid48, 1)
    # a harmonic mode's quantum numbers are its table rows
    assert basis.table_rows.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_box_lowest_mode():
    trap = bl.TrapSpec.box(1.0, 3)
    basis = build_mode_basis(trap, bl.Grid.box(1.0, 48), 1)
    assert basis.energies[0] == pytest.approx(3 * np.pi**2, rel=1e-9)
    assert _gram_error(basis) < 1e-10


def test_axis_parity_from_sampled_modes(trap, grid48):
    basis = build_mode_basis(trap, grid48, 2)
    np.testing.assert_array_equal(basis.parity_codes, (basis.table_rows % 2) @ [1, 2, 4])


def test_axis_parity_of_tabulated_modes():
    # tabulated modes have no quantum numbers; their parity comes from the samples
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    basis = build_mode_basis(trap, grid, 1)
    np.testing.assert_array_equal(basis.parity_codes, [0, 1, 2, 4])


def test_no_definite_parity_gives_all_zero_codes(trap, grid48):
    # lo moved by half a cell: no mode is even or odd about the grid centre
    h = grid48.spacing[0]
    shifted = bl.Grid(tuple(lo + h / 2 for lo in grid48.lo), grid48.extent, grid48.points)
    basis = build_mode_basis(trap, shifted, 1)
    assert not basis.parity_codes.any()
    codes = basis.parity_codes
    assert codes.dtype == np.int64 and codes.shape == (basis.size,) and not codes.any()
    centred = build_mode_basis(trap, grid48, 1).parity_codes
    for N in (0, 1, 2, 3):
        # M is the number of codes; all-zero codes give every state, in order
        full, sector = (FockBasis.build(N, m, np.arange(basis.size)[None])
                        for m in (codes, centred))
        for fock in (full, sector):
            assert fock.mode_codes.dtype == np.int64 and fock.mode_codes.shape == (basis.size,)
            assert fock.M == basis.size
        assert full.size == full.full_size == math.comb(N + basis.size - 1, N) >= sector.size
        states, _ = fock_states(N, basis.size)
        assert np.array_equal(full.occupations, np.array(states).reshape(-1, basis.size))


def _symmetry_basis(name):
    harmonic = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
    grid = bl.Grid.centered((14.0,) * 3, (32,) * 3)
    h = grid.spacing[0]
    half_cell = bl.Grid(tuple(lo + h / 2 for lo in grid.lo), grid.extent, grid.points)
    if name.startswith("tabulated"):
        grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
        if name == "tabulated_off_centre":
            h = grid.spacing[0]
            grid = bl.Grid(tuple(lo + h / 2 for lo in grid.lo), grid.extent, grid.points)
        x, y, z = grid.meshgrid()
        table = (x**2 + y**2 + z**2 if name == "tabulated_isotropic"
                 else x**2 + 2 * y**2 + 3 * z**2)
        return build_mode_basis(bl.TrapSpec.tabulated(grid, table), grid, 2)
    return build_mode_basis(*{
        "isotropic_q3": (harmonic, grid, 3),
        "isotropic_q4": (harmonic, grid, 4),
        "anisotropic": (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), grid, 2),
        "stiffness_2": (bl.TrapSpec.harmonic((2.0,) * 3), grid, 3),
        "x_off_centre": (harmonic, bl.Grid((-7.1, -7.0, -7.0), grid.extent, grid.points), 3),
        "half_cell": (harmonic, half_cell, 3),
        "box": (bl.TrapSpec.box(1.0, 3), bl.Grid.box(1.0, 24), 3),
    }[name])


def _literal_parity(mode, axis):
    # 0 even, 1 odd, None neither: the mode against its mirror image on the
    # axis, at 1e-12 of its peak
    tol = 1e-12 * np.abs(mode).max()
    mirror = np.flip(mode, axis)
    if np.abs(mode - mirror).max() <= tol:
        return 0
    if np.abs(mode + mirror).max() <= tol:
        return 1
    return None


@pytest.mark.parametrize("name, coded, G", [
    ("isotropic_q3", True, 6), ("isotropic_q4", True, 6), ("anisotropic", True, 1),
    ("stiffness_2", True, 6), ("x_off_centre", False, 1), ("half_cell", False, 6),
    ("box", True, 6), ("tabulated_symmetric", True, 1), ("tabulated_isotropic", False, 1),
    ("tabulated_off_centre", False, 1)])
def test_mode_symmetry_matches_the_mirrored_and_permuted_3d_modes(name, coded, G):
    # every mode materialized in 3D and mirrored on each axis; the codes are
    # composed here, all zero when some mode has no parity on some axis.
    # Each mode permutation is an axis permutation of the table rows and of
    # the 3D modes, and keeps every energy (mixed degenerate tabulated modes
    # and off-centre grids have no parity; unequal axis tables no permutation)
    basis = _symmetry_basis(name)
    modes = sampled_modes(basis)
    parity = [[_literal_parity(mode, ax) for ax in range(3)] for mode in modes]
    want = (np.zeros(basis.size, dtype=np.int64) if any(None in p for p in parity)
            else np.array(parity) @ [1, 2, 4])
    codes = basis.parity_codes
    assert codes.dtype == np.int64 and np.array_equal(codes, want)
    assert codes.any() == coded
    perms = basis.mode_perms
    assert perms.shape == (G, basis.size) and len(np.unique(perms, axis=0)) == G
    assert np.array_equal(perms[0], np.arange(basis.size))
    relabels = set()
    for p in perms[1:]:
        assert np.array_equal(basis.energies[p], basis.energies)
        axes, = [a for a in permutations(range(3))
                 if np.array_equal(basis.table_rows[p], basis.table_rows[:, a])]
        moved = np.transpose(modes, (0, *(1 + np.array(axes))))
        assert np.abs(modes[p] - moved).max() <= 1e-12 * np.abs(modes).max()
        relabels.add(axes)
    assert len(relabels) == G - 1


FACTORED = {
    "isotropic": (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), bl.Grid.centered((14.0,) * 3, (32,) * 3), 3),
    "anisotropic": (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)),
                    bl.Grid((-7.1, -6.4, -8.0), (14.0, 13.0, 16.5), (34, 30, 36)), 2),
    "box": (bl.TrapSpec.box(1.0, 3), bl.Grid.box(1.0, 24), 3),
}


@pytest.fixture(scope="module", params=sorted(FACTORED))
def factored(request):
    return build_mode_basis(*FACTORED[request.param])


def test_factored_basis_matches_the_materialized_modes(factored):
    # the 3D route, built here: the basis keeps no 3D modes
    basis, grid = factored, factored.grid
    modes = product_modes(basis.axis_tables, basis.table_rows)
    flat = modes.reshape(basis.size, -1)
    rng = np.random.default_rng(3)
    b = rng.normal(size=basis.size)
    g = rng.normal(size=(basis.size,) * 2)
    g = g + g.T

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

    close(basis.field(b), (b @ flat).reshape(grid.shape))
    close(basis.density(g), ((g @ flat) * flat).sum(axis=0).reshape(grid.shape))
    v = basis.trap.sample(grid).ravel()
    close(basis.potential_matrix(), (flat * (v * grid.weights.ravel())) @ flat.T)
    for node in [(0, 0, 0), tuple(n // 2 for n in grid.shape), (3, grid.shape[1] - 1, 5)]:
        assert np.array_equal(basis.values_at(node), modes[(slice(None),) + node])
    assert basis.modes is None


def test_box_potential_matrix_is_positive_zero():
    # the box V vanishes on the grid; its per-axis route gives +0.0 entries
    u = build_mode_basis(*FACTORED["box"]).potential_matrix()
    assert u.shape == (20, 20) and not u.any() and not np.signbit(u).any()


def test_tabulated_basis_keeps_its_numeric_route():
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    basis = build_mode_basis(trap, grid, 1)
    assert basis.axis_tables is None and basis.modes.shape == (basis.size,) + grid.shape
    flat = basis.modes.reshape(basis.size, -1)
    assert _gram_error(basis) < 1e-8
    rng = np.random.default_rng(4)
    b = rng.normal(size=basis.size)
    g = rng.normal(size=(basis.size,) * 2)
    assert np.array_equal(basis.field(b).ravel(), b @ flat)
    assert np.array_equal(basis.density(g).ravel(), ((g @ flat) * flat).sum(axis=0))
    v = trap.sample(grid).ravel()
    assert np.array_equal(basis.potential_matrix(), (flat * (v * grid.weights.ravel())) @ flat.T)
    assert np.array_equal(basis.values_at((5, 12, 7)), basis.modes[:, 5, 12, 7])


def test_tabulated_eigensolve_above_the_cap_is_refused():
    # the cap the CLI checks at load: 78^3 interior nodes of an 80^3 grid
    table = bl.Grid.centered((10.0,) * 3, (4,) * 3)
    trap = bl.TrapSpec.tabulated(table, np.zeros(table.shape))
    with pytest.raises(CapacityError, match="above the cap 400000") as err:
        build_mode_basis(trap, bl.Grid.centered((10.0,) * 3, (80,) * 3), 1)
    assert err.value.field == "grid"


def test_resolution_error_on_coarse_grid(trap):
    with pytest.raises(ResolutionError):
        build_mode_basis(trap, bl.Grid.centered((14.0,) * 3, (8,) * 3), 3)


@pytest.mark.parametrize("trap, grid, max_quanta", [
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), bl.Grid.centered((12.0,) * 3, (32,) * 3), 2),
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), bl.Grid((-5.8, -6.1, -6.0), (12.0,) * 3, (32,) * 3), 2),
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), bl.Grid.centered((14.0,) * 3, (16,) * 3), 4),
    (bl.TrapSpec.box(1.0, 3), bl.Grid.box(1.0, 24), 3),
])
def test_energy_check_is_the_3d_rayleigh_quotient(monkeypatch, trap, grid, max_quanta):
    # per-axis 1D quotients against the 3D DST-I quotient of the materialized
    # mode, with both checks disarmed
    monkeypatch.setattr(basis_module, "_GRAM_TOL", np.inf)
    monkeypatch.setattr(basis_module, "_ENERGY_CHECK", np.inf)
    energies, tables, rows = separable_modes(trap, grid, max_quanta)
    mode = product_modes(tables, rows[-1:])[0]
    ref = abs(rayleigh_quotient_3d(trap, grid, mode) / energies[-1] - 1.0)
    assert _energy_check_error(trap, grid, tables, rows[-1], energies[-1]) == pytest.approx(
        ref, abs=1e-12)


def test_energy_check_fires_on_coarse_grid(monkeypatch, trap):
    # with the Gram check disarmed, the energy check alone refuses 16^3 at Q = 4
    monkeypatch.setattr(basis_module, "_GRAM_TOL", np.inf)
    with pytest.raises(ResolutionError, match="highest-mode energy"):
        separable_modes(trap, bl.Grid.centered((14.0,) * 3, (16,) * 3), 4)


def test_fock_enumeration_matches_rank():
    for (N, M) in [(2, 3), (3, 4), (4, 5), (1, 2), (0, 4)]:
        fock = full_space(N, M)
        np.testing.assert_array_equal(rank(fock, fock.occupations), np.arange(fock.size))
        assert np.all(fock.occupations.sum(axis=1) == N)


@given(st.integers(1, 6), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_fock_rank_bijection(N, M):
    fock = full_space(N, M)
    ranks = rank(fock, fock.occupations)
    assert sorted(ranks) == list(range(fock.size))


@given(st.integers(0, 6), st.integers(1, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_sector_enumeration_matches_the_filter_route(N, M, data):
    codes = np.array(data.draw(st.lists(st.integers(0, 7), min_size=M, max_size=M)))
    direct = FockBasis.build(N, codes, np.arange(M)[None])
    filtered = sector(full_space(N, M), codes, codes[0] * (N % 2))
    assert np.array_equal(direct.occupations, filtered.occupations)
    assert np.array_equal(direct.ranks, filtered.ranks)
    assert direct.code == filtered.code and np.array_equal(direct.mode_codes, codes)


@pytest.mark.parametrize("N", [2, 3, 6])
def test_sector_enumeration_at_the_sweep_size(basis_q3, N):
    codes = basis_q3.parity_codes
    direct = FockBasis.build(N, codes, np.arange(basis_q3.size)[None])
    filtered = sector(full_space(N, basis_q3.size), codes, codes[0] * (N % 2))
    assert np.array_equal(direct.occupations, filtered.occupations)
    assert np.array_equal(direct.ranks, filtered.ranks)


@pytest.fixture(scope="module")
def basis_q4(trap, grid48):
    return build_mode_basis(trap, grid48, 4)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("quanta", [3, 4])
def test_sector_states_of_a_code_set_are_the_union_of_one_code_sectors(quanta, n, basis_q3,
                                                                       basis_q4):
    # the (N-2)-particle states of a solve at M = 20 and M = 35: ranked with
    # a table sliced from the N-particle one, the states of several codes
    # are the one-code sectors merged in basis order, each with its code,
    # under the identity and under the six axis permutations (G = 6): a
    # state represents its orbit whatever codes are wanted
    basis = basis_q3 if quanta == 3 else basis_q4
    codes = basis.parity_codes
    M = len(codes)
    F = _rank_table(n + 2, M)[:, :n + 1]
    assert np.array_equal(F, _rank_table(n, M))
    class_codes = np.unique(codes[:, None] ^ codes[None, :])
    identity, perms = np.arange(M)[None], basis.mode_perms
    assert len(perms) == 6
    def rows(states):
        # occupations, ranks, codes, orbit sizes and the other images' ranks,
        # a row per state
        return (*states[:4], states[4].T)

    for mode_perms in (identity, perms):
        for wanted in (class_codes, class_codes[1::2], class_codes[-1:]):
            merged = rows(_sector_states(F, codes, set(wanted.tolist()), mode_perms))
            parts = [rows(_sector_states(F, codes, [c], mode_perms)) for c in wanted]
            assert all(np.all(part[2] == c) for c, part in zip(wanted, parts))
            order = np.argsort(np.concatenate([part[1] for part in parts]))
            for i, got in enumerate(merged):
                assert got.dtype == parts[0][i].dtype
                assert np.array_equal(got, np.concatenate([part[i] for part in parts])[order])
    # every code: the whole space, in rank order
    occ, ranks, _, sizes, images = _sector_states(F, codes, range(8), identity)
    assert np.array_equal(ranks, np.arange(math.comb(n + M - 1, n)))
    assert np.all(sizes == 1) and images.shape == (0, len(ranks))


@pytest.fixture(scope="module")
def basis_q2(trap, grid48):
    return build_mode_basis(trap, grid48, 2)


@pytest.fixture(scope="module")
def basis_anisotropic(grid48):
    return build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.3, 1.7)), grid48, 2)


@pytest.mark.parametrize("name, N_max, zero_codes, G", [
    ("basis_q2", 6, False, 6), ("basis_q3", 5, False, 6), ("basis_q4", 3, False, 6),
    ("basis_anisotropic", 5, False, 1), ("basis_q2", 5, True, 6)])
def test_orbit_representatives_match_the_literal_oracle(request, name, N_max, zero_codes, G):
    # the enumerated representatives against literal permutation of
    # occupation tuples: M = 10 and 20, M = 35 (five blocks of modes that
    # the permutations keep), an anisotropic trap (the identity alone) and
    # all-zero codes (the orbits of every state)
    basis = request.getfixturevalue(name)
    perms = basis.mode_perms
    assert len(perms) == G
    codes = np.zeros(basis.size, dtype=np.int64) if zero_codes else basis.parity_codes
    pair_codes = set(np.unique(codes[:, None] ^ codes[None, :]).tolist())
    for N in range(N_max + 1):
        fock = FockBasis.build(N, codes, perms)
        ranks, orbits, reps = literal_orbits(N, basis.size, codes, perms, {fock.code})
        occ, _, _, sizes = zip(*reps)
        assert fock.occupations.dtype == np.min_scalar_type(N)
        assert fock.occupations.tolist() == [list(s) for s in occ]
        assert fock.orbit_sizes.tolist() == list(sizes)
        assert fock.ranks.tolist() == ranks and fock.orbits.tolist() == orbits
        if N < 2:
            continue
        for wanted in ({fock.code}, pair_codes):
            got = fock.lower_states(sorted(wanted))
            _, _, reps = literal_orbits(N - 2, basis.size, codes, perms, wanted)
            occ, rep_ranks, rep_codes, sizes = zip(*reps)
            assert got[0].dtype == np.min_scalar_type(N - 2)
            assert got[0].tolist() == [list(s) for s in occ]
            for array, want in zip(got[1:], (rep_ranks, rep_codes, sizes)):
                assert array.tolist() == list(want)


def test_orbit_enumeration_peak_memory(monkeypatch, basis_q3):
    # q = 3, N = 8 (a 282,789-state sector, 48,498 orbits): only the
    # representatives are built, so the build peaks below 12 int64 arrays
    # of the sector's size, and lower_states below 12 of the enumerated
    # (N-2)-particle space's (every code: 177,100 states)
    monkeypatch.setattr(basis_module, "MAX_FOCK_DIMENSION", 10**7)
    codes, perms = basis_q3.parity_codes, basis_q3.mode_perms
    pair_codes = np.unique(codes[:, None] ^ codes[None, :]).tolist()
    tracemalloc.start()
    try:
        fock = FockBasis.build(8, codes, perms)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        lower = fock.lower_states(pair_codes)
        lower_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(fock.ranks) == 282_789 and fock.size == 48_498
    assert len(pair_codes) == 8 and len(lower[1]) < math.comb(6 + 19, 6) == 177_100
    assert build_peak < 12 * 8 * len(fock.ranks)
    assert lower_peak < 12 * 8 * 177_100


def test_capacity_cap():
    # one fixed ceiling on the full count, whatever the sector; a config's
    # lower cap is checked at load.  C(29, 10) = 20,030,010 states at N = 10,
    # M = 20 are refused, C(24, 5) = 42,504 built
    assert list(inspect.signature(FockBasis.build).parameters) == ["N", "mode_codes",
                                                                   "mode_perms"]
    codes = np.array([0, 1, 2, 4] * 5)
    for mode_codes in (np.zeros(20, dtype=np.int64), codes):
        with pytest.raises(CapacityError, match=f"above the cap {MAX_FOCK_DIMENSION}"):
            FockBasis.build(10, mode_codes, np.arange(20)[None])
    assert math.comb(10 + 20 - 1, 10) > MAX_FOCK_DIMENSION
    assert full_space(5, 20).size == math.comb(24, 5)


@pytest.mark.parametrize("N,M", [(0, 1), (0, 4), (1, 1), (1, 5), (3, 1), (2, 4), (4, 3),
                                 (6, 8), (5, 7)])
def test_fock_build_order_matches_combinations(N, M):
    states, _ = fock_states(N, M)
    fock = full_space(N, M)
    np.testing.assert_array_equal(fock.occupations, np.array(states).reshape(len(states), M))
    np.testing.assert_array_equal(fock.ranks, np.arange(len(states)))


@pytest.mark.parametrize("N,M", [(2, 84), (3, 30), (1, 5), (2, 1)])
def test_ladder_targets_and_rank_match_dict_oracle(N, M):
    # (2, 84): a full binomial table of this size overflows int64
    fock = full_space(N, M)
    _, lower = fock_states(N - 1, M)
    states = np.array(list(lower)).reshape(len(lower), M)
    np.testing.assert_array_equal(rank(full_space(N - 1, M), states),
                                  np.arange(len(lower)))
    np.testing.assert_array_equal(rank(fock, fock.occupations), np.arange(fock.size))
    rows, cols, amps = literal_annihilation(N, M)
    indices, data = annihilator(fock)
    assert indices.shape == data.shape == (len(lower) * M,)
    # the full space fills every row once: the literal rows are all of them
    np.testing.assert_array_equal(np.sort(rows), np.arange(indices.size))
    np.testing.assert_array_equal(indices[rows], cols)
    np.testing.assert_array_equal(data[rows], amps)


def test_annihilator_of_the_vacuum_is_empty():
    indices, data = annihilator(full_space(0, 4))
    assert indices.shape == data.shape == (0,)


@pytest.mark.parametrize("N,M", [(255, 2), (256, 2), (70_000, 1)])
def test_narrow_occupation_table_and_pair_sources(N, M):
    # the table takes the smallest unsigned type that holds N: uint8 at 255,
    # uint16 at 256 (whose (N-2)-particle table is uint8, where 254 + 2
    # wraps), uint32 at 70,000 with one mode.  The pair map's amplitudes
    # are float64 and match Python-int arithmetic, and each source state
    # is s + e_k + e_l
    fock = full_space(N, M)
    lower = full_space(N - 2, M)
    assert fock.occupations.dtype == np.min_scalar_type(N)
    assert lower.occupations.dtype == np.min_scalar_type(N - 2)
    k, l = np.triu_indices(M)
    cols, amps = fock.pair_sources(lower.occupations, lower.ranks, lower.orbit_sizes, k, l)
    assert amps.dtype == np.float64
    states = lower.occupations.tolist()
    want = [[math.sqrt((s[a] + 1) * (s[b] + 1 + (a == b))) for a, b in zip(k, l)]
            for s in states]
    np.testing.assert_allclose(amps, want, rtol=1e-15, atol=0)
    sources = fock.occupations[cols].astype(np.int64)
    added = np.zeros((len(k), M), dtype=np.int64)
    np.add.at(added, (np.arange(len(k)), k), 1)
    np.add.at(added, (np.arange(len(k)), l), 1)
    np.testing.assert_array_equal(sources, np.array(states)[:, None, :] + added)
