import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beclab as bl
from beclab.errors import CapacityError, ResolutionError
from beclab.manybody import build_mode_basis
from beclab.manybody.basis import (FockBasis, _energy_check_error, _product_modes,
                                   separable_modes)

from .oracles import fock_states, literal_annihilation, rayleigh_quotient_3d


def test_single_mode_basis(trap, grid48):
    basis = build_mode_basis(trap, grid48, 0)
    assert basis.size == 1
    assert basis.energies[0] == pytest.approx(3.0)


def test_quanta_two_degeneracies(trap, grid48):
    basis = build_mode_basis(trap, grid48, 2)
    assert basis.size == 10
    np.testing.assert_allclose(np.sort(basis.energies), [3] + [5] * 3 + [7] * 6)
    assert basis.gram_error < 1e-8


def test_mode_ordering_ties_lexicographic(trap, grid48):
    basis = build_mode_basis(trap, grid48, 1)
    assert basis.quantum_numbers == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_box_lowest_mode():
    trap = bl.TrapSpec.box(1.0, 3)
    basis = build_mode_basis(trap, bl.Grid.box(1.0, 48), 1)
    assert basis.energies[0] == pytest.approx(3 * np.pi**2, rel=1e-9)
    assert basis.gram_error < 1e-10


def test_axis_parity_from_sampled_modes(trap, grid48):
    basis = build_mode_basis(trap, grid48, 2)
    np.testing.assert_array_equal(basis.axis_parity, np.array(basis.quantum_numbers) % 2)


def test_axis_parity_of_tabulated_modes():
    # tabulated modes are labelled (i, 0, 0); their parity comes from the samples
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    basis = build_mode_basis(trap, grid, 1)
    np.testing.assert_array_equal(basis.axis_parity,
                                  [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


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
    # the 3D route, built here so the basis's own modes stay unbuilt
    basis, grid = factored, factored.grid
    modes = _product_modes(basis.axis_tables, basis.table_rows)
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
    assert "modes" not in basis.__dict__
    assert np.array_equal(basis.modes, modes)


def test_box_potential_matrix_is_positive_zero():
    # the box V vanishes on the grid; its per-axis route gives +0.0 entries
    u = build_mode_basis(*FACTORED["box"]).potential_matrix()
    assert u.shape == (20, 20) and not u.any() and not np.signbit(u).any()


def test_tabulated_basis_keeps_its_numeric_route():
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    basis = build_mode_basis(trap, grid, 1)
    assert basis.axis_tables is None and basis.modes is basis.numeric_modes
    flat = basis.numeric_modes.reshape(basis.size, -1)
    rng = np.random.default_rng(4)
    b = rng.normal(size=basis.size)
    g = rng.normal(size=(basis.size,) * 2)
    assert np.array_equal(basis.field(b).ravel(), b @ flat)
    assert np.array_equal(basis.density(g).ravel(), ((g @ flat) * flat).sum(axis=0))
    v = trap.sample(grid).ravel()
    assert np.array_equal(basis.potential_matrix(), (flat * (v * grid.weights.ravel())) @ flat.T)
    assert np.array_equal(basis.values_at((5, 12, 7)), basis.modes[:, 5, 12, 7])


def test_kinetic_plus_potential_matches_energies(trap, grid48):
    basis = build_mode_basis(trap, grid48, 2)
    total = basis.kinetic_matrix() + basis.potential_matrix()
    np.testing.assert_allclose(total, np.diag(basis.energies), atol=1e-8)


def test_resolution_error_on_coarse_grid(trap):
    with pytest.raises(ResolutionError):
        build_mode_basis(trap, bl.Grid.centered((14.0,) * 3, (8,) * 3), 3)


@pytest.mark.parametrize("trap, grid, max_quanta", [
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), bl.Grid.centered((12.0,) * 3, (32,) * 3), 2),
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), bl.Grid((-5.8, -6.1, -6.0), (12.0,) * 3, (32,) * 3), 2),
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), bl.Grid.centered((14.0,) * 3, (16,) * 3), 4),
    (bl.TrapSpec.box(1.0, 3), bl.Grid.box(1.0, 24), 3),
])
def test_energy_check_is_the_3d_rayleigh_quotient(trap, grid, max_quanta):
    # per-axis 1D quotients against the 3D DST-I quotient of the materialized mode
    _, energies, tables, rows = separable_modes(trap, grid, max_quanta,
                                                gram_tol=np.inf, energy_check=np.inf)
    mode = _product_modes(tables, rows[-1:])[0]
    ref = abs(rayleigh_quotient_3d(trap, grid, mode) / energies[-1] - 1.0)
    assert _energy_check_error(trap, grid, tables, rows[-1], energies[-1]) == pytest.approx(
        ref, abs=1e-12)


def test_energy_check_fires_on_coarse_grid(trap):
    # with the Gram check disarmed, the energy check alone refuses 16^3 at Q = 4
    with pytest.raises(ResolutionError, match="highest-mode energy"):
        separable_modes(trap, bl.Grid.centered((14.0,) * 3, (16,) * 3), 4, gram_tol=np.inf)


def test_fock_enumeration_matches_rank():
    for (N, M) in [(2, 3), (3, 4), (4, 5), (1, 2), (0, 4)]:
        fock = FockBasis.build(N, M)
        np.testing.assert_array_equal(fock.rank(fock.occupations), np.arange(fock.size))
        assert np.all(fock.occupations.sum(axis=1) == N)


@given(st.integers(1, 6), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_fock_rank_bijection(N, M):
    fock = FockBasis.build(N, M)
    ranks = fock.rank(fock.occupations)
    assert sorted(ranks) == list(range(fock.size))


@given(st.integers(0, 6), st.integers(1, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_sector_enumeration_matches_the_filter_route(N, M, data):
    codes = np.array(data.draw(st.lists(st.integers(0, 7), min_size=M, max_size=M)))
    direct = FockBasis.build(N, M, mode_codes=codes)
    filtered = FockBasis.build(N, M).sector(codes, codes[0] * (N % 2))
    assert np.array_equal(direct.occupations, filtered.occupations)
    assert np.array_equal(direct.ranks, filtered.ranks)
    assert direct.code == filtered.code and np.array_equal(direct.mode_codes, codes)


@pytest.mark.parametrize("N", [2, 3, 6])
def test_sector_enumeration_at_the_sweep_size(basis_q3, N):
    codes = basis_q3.parity_codes
    direct = FockBasis.build(N, basis_q3.size, mode_codes=codes)
    filtered = FockBasis.build(N, basis_q3.size).sector(codes, codes[0] * (N % 2))
    assert np.array_equal(direct.occupations, filtered.occupations)
    assert np.array_equal(direct.ranks, filtered.ranks)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        FockBasis.build(12, 20, dimension_cap=200_000)


@pytest.mark.parametrize("N,M", [(0, 1), (0, 4), (1, 1), (1, 5), (3, 1), (2, 4), (4, 3)])
def test_fock_build_order_matches_combinations(N, M):
    states, _ = fock_states(N, M)
    fock = FockBasis.build(N, M)
    np.testing.assert_array_equal(fock.occupations, np.array(states).reshape(len(states), M))


@pytest.mark.parametrize("N,M", [(2, 84), (3, 30), (1, 5), (2, 1)])
def test_ladder_targets_and_rank_match_dict_oracle(N, M):
    # (2, 84): a full binomial table of this size overflows int64
    fock = FockBasis.build(N, M)
    _, lower = fock_states(N - 1, M)
    states = np.array(list(lower)).reshape(len(lower), M)
    np.testing.assert_array_equal(FockBasis.build(N - 1, M).rank(states),
                                  np.arange(len(lower)))
    np.testing.assert_array_equal(fock.rank(fock.occupations), np.arange(fock.size))
    rows, cols, amps = literal_annihilation(N, M)
    a = fock.annihilator()
    assert a.shape == (len(lower) * M, fock.size)
    assert a.nnz == len(rows) == a.shape[0]
    dense = a.tocoo()
    order = np.argsort(dense.row)
    ref = np.argsort(rows)
    np.testing.assert_array_equal(dense.row[order], rows[ref])
    np.testing.assert_array_equal(dense.col[order], cols[ref])
    np.testing.assert_array_equal(dense.data[order], amps[ref])


def test_annihilator_of_the_vacuum_is_empty():
    a = FockBasis.build(0, 4).annihilator()
    assert a.shape == (0, 1)
