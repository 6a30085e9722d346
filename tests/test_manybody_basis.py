import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beclab as bl
from beclab.errors import CapacityError, ResolutionError
from beclab.manybody import build_mode_basis
from beclab.manybody.basis import FockBasis


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


def test_kinetic_plus_potential_matches_energies(trap, grid48):
    basis = build_mode_basis(trap, grid48, 2)
    total = basis.kinetic_matrix() + basis.potential_matrix()
    np.testing.assert_allclose(total, np.diag(basis.energies), atol=1e-8)


def test_resolution_error_on_coarse_grid(trap):
    with pytest.raises(ResolutionError):
        build_mode_basis(trap, bl.Grid.centered((14.0,) * 3, (8,) * 3), 3)


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


def test_capacity_cap():
    with pytest.raises(CapacityError):
        FockBasis.build(12, 20, dimension_cap=200_000)
