from itertools import permutations

import numpy as np
import pytest

import beclab as bl
from beclab.errors import ConfigError, ResolutionError
from beclab.manybody import build_mode_basis
from beclab.manybody import tensor as tensor_module
from beclab.manybody.ground import PairOpHamiltonian
from beclab.manybody.tensor import _pair_table, interaction_tensor, pair_classes
from .oracles import (dense_pair_fold, dense_pair_matrix, identity_only, one_class,
                      sampled_modes, sampled_pair_matrix, tensor_entry)

GRID = bl.Grid.centered((12.0,) * 3, (32,) * 3)


@pytest.fixture(scope="module")
def small_basis():
    return build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), GRID, 1)


def _assert_matches_dense(basis, pot):
    t = interaction_tensor(basis, pot)
    ref = dense_pair_matrix(basis, pot)
    assert np.abs(t.pair_matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    return t


def _assert_off_class_zero(basis, t):
    codes = basis.parity_codes
    assert codes.any()
    cls = codes[t.pairs[:, 0]] ^ codes[t.pairs[:, 1]]
    off_class = cls[:, None] != cls[None, :]
    assert off_class.mean() > 0.5
    assert np.all(t.pair_matrix[off_class] == 0.0)


@pytest.mark.parametrize("stiffness", [(1.0, 1.0, 1.0), (1.0, 1.7, 0.6)])
def test_factored_harmonic_matches_dense_oracle(stiffness):
    basis = build_mode_basis(bl.TrapSpec.harmonic(stiffness), GRID, 2)
    assert basis.axis_tables is not None
    t = _assert_matches_dense(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    _assert_off_class_zero(basis, t)


def test_factored_box_matches_dense_oracle():
    basis = build_mode_basis(bl.TrapSpec.box(6.0), bl.Grid.box(6.0, 32), 2)
    assert basis.axis_tables is not None
    t = _assert_matches_dense(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    _assert_off_class_zero(basis, t)


def test_factored_off_centre_grid_matches_dense_oracle():
    # lo shifted by half a cell: no mode has a mirror partner on the grid
    h = GRID.spacing[0]
    shifted = bl.Grid(tuple(lo + h / 2 for lo in GRID.lo), GRID.extent, GRID.points)
    basis = build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), shifted, 2)
    assert not basis.parity_codes.any()
    _assert_matches_dense(basis, bl.PairPotential.soft_sphere(5.0, 1.1))


def _tabulated_basis(grid):
    # distinct stiffnesses: no degenerate eigenvectors, so on a centred grid
    # every mode keeps a definite parity on every axis
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    return build_mode_basis(trap, grid, 2)


@pytest.fixture(scope="module")
def tabulated_basis():
    return _tabulated_basis(GRID)


@pytest.fixture(scope="module")
def tabulated_off_centre_basis():
    h = GRID.spacing[0]
    return _tabulated_basis(bl.Grid(tuple(lo + h / 2 for lo in GRID.lo), GRID.extent,
                                    GRID.points))


@pytest.mark.parametrize("block_bytes", [tensor_module._BLOCK_BYTES, 1.0])
def test_parity_blocks_match_dense_oracle(monkeypatch, tabulated_basis, block_bytes):
    # block_bytes = 1.0 forces 16-pair blocks, so classes span several blocks
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", block_bytes)
    assert tabulated_basis.axis_tables is None
    t = _assert_matches_dense(tabulated_basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    _assert_off_class_zero(tabulated_basis, t)


@pytest.mark.parametrize("block_bytes", [tensor_module._BLOCK_BYTES, 1.0])
def test_off_centre_grid_single_class_matches_dense_oracle(monkeypatch, block_bytes,
                                                           tabulated_off_centre_basis):
    # the trap is centred half a cell off the grid centre: no mode has a
    # mirror partner, so the block loop runs over one class
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", block_bytes)
    assert tabulated_off_centre_basis.axis_tables is None
    assert not tabulated_off_centre_basis.parity_codes.any()
    _assert_matches_dense(tabulated_off_centre_basis, bl.PairPotential.soft_sphere(5.0, 1.1))


@pytest.mark.parametrize("name", ["small_basis", "tabulated_basis", "tabulated_off_centre_basis"])
def test_pair_classes_match_the_axis_parity_grouping(request, name):
    # expected: (code, members) from the mode codes, in increasing code
    basis = request.getfixturevalue(name)
    pairs = _pair_table(basis.size)
    code = basis.parity_codes
    if not code.any():
        expected = [(0, np.arange(len(pairs)))]
    else:
        label = code[pairs[:, 0]] ^ code[pairs[:, 1]]
        expected = [(c, np.flatnonzero(label == c)) for c in np.unique(label)]
    assert (not code.any()) == (name == "tabulated_off_centre_basis")
    classes = pair_classes(basis.parity_codes, pairs)
    assert [c for c, _ in classes] == [c for c, _ in expected]
    assert all(np.array_equal(m, e) for (_, m), (_, e) in zip(classes, expected))


def _symmetry_basis(request, name):
    harmonic = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
    if name == "isotropic":
        return build_mode_basis(harmonic, GRID, 2)
    if name == "off_centre":
        # the same half-cell shift on every axis: no parity, equal tables
        h = GRID.spacing[0]
        return build_mode_basis(harmonic, bl.Grid(tuple(lo + h / 2 for lo in GRID.lo),
                                                  GRID.extent, GRID.points), 2)
    if name == "anisotropic":
        return build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), GRID, 2)
    if name == "unequal_axes":
        # equal spacing, one longer axis
        grid = bl.Grid.centered((12.0, 12.0, 12.0 * 35 / 31), (32, 32, 36))
        return build_mode_basis(harmonic, grid, 2)
    return request.getfixturevalue("tabulated_basis")


@pytest.mark.parametrize("name", ["isotropic", "off_centre", "anisotropic", "unequal_axes",
                                  "tabulated"])
def test_axis_permutations_only_on_equal_axis_tables(request, name):
    # the six axis permutations, each relabeling the modes' table rows and
    # keeping every energy, when the three axis tables are equal bit for
    # bit; otherwise the identity alone (G = 1), and a solve over the
    # tensor is the parity sector's
    basis = _symmetry_basis(request, name)
    perms = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)).mode_perms
    assert perms.shape[1] == basis.size
    assert np.array_equal(perms[0], np.arange(basis.size))
    if name not in ("isotropic", "off_centre"):
        assert perms.shape[0] == 1
        return
    assert perms.shape[0] == 6
    rows = basis.table_rows
    relabels = {axes for p in perms for axes in permutations(range(3))
                if np.array_equal(rows[p], rows[:, axes])}
    assert relabels == set(permutations(range(3)))
    assert all(np.array_equal(basis.energies[p], basis.energies) for p in perms)


@pytest.mark.parametrize("trap, grid, q", [
    (bl.TrapSpec.box(6.0), bl.Grid.box(6.0, 32), 2),
    (bl.TrapSpec.box(6.0), bl.Grid.box(6.0, 32), 4),
    (bl.TrapSpec.harmonic((2.0,) * 3), GRID, 4),
    (bl.TrapSpec.harmonic((1.3,) * 3), GRID, 4),
], ids=["box_q2", "box_q4", "stiffness_2", "stiffness_1.3"])
def test_axis_permutations_keep_box_and_stiff_isotropic_traps(trap, grid, q):
    # their per-axis energies are not integers: summed in axis order, a
    # permuted mode's energy moved by an ulp and the identity was kept alone
    basis = build_mode_basis(trap, grid, q)
    perms = basis.mode_perms
    assert perms.shape == (6, basis.size)
    assert all(np.array_equal(basis.energies[p], basis.energies) for p in perms)


def _parity_basis(request, name):
    if name == "tabulated":
        return request.getfixturevalue("tabulated_basis")
    if name == "box":
        return build_mode_basis(bl.TrapSpec.box(6.0), bl.Grid.box(6.0, 32), 2)
    return build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), GRID, 2)


@pytest.mark.parametrize("name", ["harmonic", "box", "tabulated"])
def test_class_folds_are_the_dense_fold_blocks(request, name):
    # each class folds only its own pairs: the same numbers, bit for bit, as
    # the block of that class cut out of the fold over all pairs.  N = 4:
    # every class reaches a 2-particle state, so every class is kept (at
    # N = 2 only the class that reaches the vacuum is)
    # (in the parity sector: in the orbit space a class may own no row)
    basis = _parity_basis(request, name)
    t = identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)))
    dense = dense_pair_fold(t)
    classes = PairOpHamiltonian(basis, t, 4).pair_classes
    assert len(classes) == len(t.classes) > 1
    for cls in classes:
        assert np.array_equal(cls.fold, dense[np.ix_(cls.pairs, cls.pairs)])


@pytest.mark.parametrize("name", ["tabulated_off_centre_basis", "small_basis"])
def test_single_class_fold_is_the_dense_fold(request, name):
    # no parity (off-centre): the tensor is one class.  Over a parity basis
    # the full space takes the same tensor as one class (oracles.one_class):
    # either way the Hamiltonian folds all pairs as one class, zeros across
    # the parity classes included
    basis = request.getfixturevalue(name)
    t = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    parity = name == "small_basis"
    assert (len(t.classes) > 1) == parity
    one = one_class(t) if parity else t
    (cls,) = PairOpHamiltonian(basis, one, 2).pair_classes
    assert np.array_equal(cls.fold, dense_pair_fold(t))


def test_zero_potential_gives_zero_tensor(small_basis, tabulated_off_centre_basis):
    # the general route: both block builders transform a zero vhat, of a
    # zero-height sphere or an all-zero table, to exact zeros
    for basis in (small_basis, tabulated_off_centre_basis):
        for pot in (bl.PairPotential.soft_sphere(0.0, 1.0),
                    bl.PairPotential.tabulated_radial([0.0, 0.5, 1.0], [0.0] * 3)):
            assert np.all(interaction_tensor(basis, pot).pair_matrix == 0.0)


def test_single_mode_positive(trap, grid48):
    basis = build_mode_basis(trap, grid48, 0)
    t = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    assert tensor_entry(t, 0, 0, 0, 0) > 0.0


def test_bosonic_symmetries(small_basis):
    t = interaction_tensor(small_basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    assert t.symmetry_error() <= 1e-10
    M = small_basis.size
    rng = np.random.default_rng(0)
    for _ in range(40):
        i, j, k, l = rng.integers(0, M, 4)
        v = tensor_entry(t, i, j, k, l)
        assert v == pytest.approx(tensor_entry(t, j, i, l, k), abs=1e-14)
        assert v == pytest.approx(tensor_entry(t, k, l, i, j), abs=1e-14)
        assert v == pytest.approx(tensor_entry(t, k, j, i, l), abs=1e-14)


def test_reference_value_semi_analytic(small_basis):
    # ground-ground element of a soft sphere via 1D momentum quadrature
    from scipy.integrate import quad

    V0, R = 5.0, 1.1
    t = interaction_tensor(small_basis, bl.PairPotential.soft_sphere(V0, R))

    def vhat(q):
        if q * R < 1e-8:
            return 4 * np.pi * V0 * R**3 / 3
        return 4 * np.pi * V0 * (np.sin(q * R) - q * R * np.cos(q * R)) / q**3

    ref, _ = quad(lambda q: vhat(q) * np.exp(-q * q / 2) * q * q / (2 * np.pi**2), 0, 80,
                  limit=400)
    assert tensor_entry(t, 0, 0, 0, 0) == pytest.approx(ref, rel=1e-10)


def test_contact_limit_oracle(small_basis):
    # range far below the trap length: entries approach (int v) * quartic overlap
    V0, R = 2.0e4, 0.05
    pot = bl.PairPotential.soft_sphere(V0, R)
    t = interaction_tensor(small_basis, pot)
    strength = 4 * np.pi * V0 * R**3 / 3        # int v d^3r
    w = GRID.weights
    m = sampled_modes(small_basis)
    for (i, j, k, l) in [(0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1)]:
        quartic = float(np.sum(m[i] * m[j] * m[k] * m[l] * w))
        assert tensor_entry(t, i, j, k, l) == pytest.approx(strength * quartic, rel=0.05)


def test_sampled_route_agrees_when_resolved(small_basis):
    # smooth tabulated profile spanning many cells: the sampled-kernel
    # oracle and the spectral route coincide
    r = np.linspace(0.0, 2.5, 600)
    v = 3.0 * np.clip(1 - (r / 2.5) ** 2, 0, None) ** 2
    v[-1] = 0.0
    pot = bl.PairPotential.tabulated_radial(r, v)
    spectral = interaction_tensor(small_basis, pot)
    sampled = sampled_pair_matrix(small_basis, pot)
    np.testing.assert_allclose(sampled, spectral.pair_matrix, rtol=5e-3, atol=1e-9)


def test_sampled_route_refuses_contact_scale(small_basis):
    with pytest.raises(ResolutionError, match="two grid spacings"):
        sampled_pair_matrix(small_basis, bl.PairPotential.soft_sphere(100.0, 0.05))


def test_hard_core_rejected(small_basis):
    with pytest.raises(ConfigError):
        interaction_tensor(small_basis, bl.PairPotential.hard_sphere(0.5))


def test_unequal_spacing_rejected():
    # library callers get the check the CLI makes at load on problem.grid
    basis = build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)),
                             bl.Grid.centered((12.0, 12.0, 12.0), (32, 32, 28)), 1)
    with pytest.raises(ConfigError, match="equal spacing") as err:
        interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    assert err.value.field == "grid"
