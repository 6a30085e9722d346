import inspect
import math

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
                      product_modes, rank, rayleigh_quotient_3d, sampled_modes, sector)


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
    np.testing.assert_array_equal(basis.axis_parity, basis.table_rows % 2)


def test_axis_parity_of_tabulated_modes():
    # tabulated modes have no quantum numbers; their parity comes from the samples
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    basis = build_mode_basis(trap, grid, 1)
    np.testing.assert_array_equal(basis.axis_parity,
                                  [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_no_definite_parity_gives_all_zero_codes(trap, grid48):
    # lo moved by half a cell: no mode is even or odd about the grid centre
    h = grid48.spacing[0]
    shifted = bl.Grid(tuple(lo + h / 2 for lo in grid48.lo), grid48.extent, grid48.points)
    basis = build_mode_basis(trap, shifted, 1)
    assert basis.axis_parity is None
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
    out = np.full(grid.shape, np.nan)
    assert basis.field(b, out=out) is out and np.array_equal(out, basis.field(b))
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
    out = np.full(grid.shape, np.nan)
    assert basis.field(b, out=out) is out and np.array_equal(out.ravel(), b @ flat)
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
    # are the one-code sectors merged in basis order, each with its code
    codes = (basis_q3 if quanta == 3 else basis_q4).parity_codes
    M = len(codes)
    F = _rank_table(n + 2, M)[:, :n + 1]
    assert np.array_equal(F, _rank_table(n, M))
    class_codes = np.unique(codes[:, None] ^ codes[None, :])
    for wanted in (class_codes, class_codes[1::2], class_codes[-1:]):
        occ, ranks, got = _sector_states(F, codes, set(wanted.tolist()))
        parts = [_sector_states(F, codes, [c]) for c in wanted]
        assert all(np.all(part[2] == c) for c, part in zip(wanted, parts))
        order = np.argsort(np.concatenate([part[1] for part in parts]))
        for i, merged in enumerate((occ, ranks, got)):
            assert merged.dtype == parts[0][i].dtype
            assert np.array_equal(merged, np.concatenate([part[i] for part in parts])[order])
    # every code: the whole space, in rank order
    assert np.array_equal(_sector_states(F, codes, range(8))[1], np.arange(math.comb(n + M - 1, n)))


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
