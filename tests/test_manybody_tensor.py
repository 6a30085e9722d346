import numpy as np
import pytest

import beclab as bl
from beclab.errors import ConfigError, UnderResolvedInteractionError
from beclab.manybody import build_mode_basis
from beclab.manybody import tensor as tensor_module
from beclab.manybody.tensor import interaction_tensor
from .oracles import dense_pair_matrix

GRID = bl.Grid.centered((12.0,) * 3, (32,) * 3)


@pytest.fixture(scope="module")
def small_basis():
    return build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), GRID, 1)


def _assert_matches_dense(basis, pot):
    t = interaction_tensor(basis, pot)
    ref = dense_pair_matrix(basis, pot)
    assert np.abs(t.pair_matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    return t


@pytest.mark.parametrize("block_bytes", [tensor_module._BLOCK_BYTES, 1.0])
def test_parity_blocks_match_dense_oracle(monkeypatch, block_bytes):
    # block_bytes = 1.0 forces 16-pair blocks, so classes span several blocks
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", block_bytes)
    basis = build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), GRID, 2)
    par = basis.axis_parity
    assert par is not None
    t = _assert_matches_dense(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    cls = par[t.pairs[:, 0]] ^ par[t.pairs[:, 1]]
    off_class = np.any(cls[:, None, :] != cls[None, :, :], axis=2)
    assert off_class.mean() > 0.5
    assert np.all(t.pair_matrix[off_class] == 0.0)


@pytest.mark.parametrize("block_bytes", [tensor_module._BLOCK_BYTES, 1.0])
def test_off_centre_grid_single_class_matches_dense_oracle(monkeypatch, block_bytes):
    # lo shifted by half a cell: no mode has a mirror partner on the grid
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", block_bytes)
    h = GRID.spacing[0]
    shifted = bl.Grid(tuple(lo + h / 2 for lo in GRID.lo), GRID.extent, GRID.points)
    basis = build_mode_basis(bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), shifted, 2)
    assert basis.axis_parity is None
    _assert_matches_dense(basis, bl.PairPotential.soft_sphere(5.0, 1.1))


def test_zero_potential_gives_zero_tensor(small_basis):
    t = interaction_tensor(small_basis, bl.PairPotential.soft_sphere(0.0, 1.0))
    assert np.all(t.pair_matrix == 0.0)


def test_single_mode_positive(trap, grid48):
    basis = build_mode_basis(trap, grid48, 0)
    t = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    assert t[0, 0, 0, 0] > 0.0


def test_bosonic_symmetries(small_basis):
    t = interaction_tensor(small_basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    assert t.symmetry_error() <= 1e-10
    M = small_basis.size
    rng = np.random.default_rng(0)
    for _ in range(40):
        i, j, k, l = rng.integers(0, M, 4)
        v = t[i, j, k, l]
        assert v == pytest.approx(t[j, i, l, k], abs=1e-14)
        assert v == pytest.approx(t[k, l, i, j], abs=1e-14)
        assert v == pytest.approx(t[k, j, i, l], abs=1e-14)


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
    assert t[0, 0, 0, 0] == pytest.approx(ref, rel=1e-10)


def test_contact_limit_oracle(small_basis):
    # range far below the trap length: entries approach (int v) * quartic overlap
    V0, R = 2.0e4, 0.05
    pot = bl.PairPotential.soft_sphere(V0, R)
    t = interaction_tensor(small_basis, pot)
    strength = pot.integral()
    w = GRID.weights
    m = small_basis.modes
    for (i, j, k, l) in [(0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1)]:
        quartic = float(np.sum(m[i] * m[j] * m[k] * m[l] * w))
        assert t[i, j, k, l] == pytest.approx(strength * quartic, rel=0.05)


def test_sampled_route_agrees_when_resolved(small_basis):
    # smooth tabulated profile spanning many cells: both routes coincide
    r = np.linspace(0.0, 2.5, 600)
    v = 3.0 * np.clip(1 - (r / 2.5) ** 2, 0, None) ** 2
    v[-1] = 0.0
    pot = bl.PairPotential.tabulated_radial(r, v)
    spectral = interaction_tensor(small_basis, pot, method="spectral")
    sampled = interaction_tensor(small_basis, pot, method="sampled")
    np.testing.assert_allclose(sampled.pair_matrix, spectral.pair_matrix, rtol=5e-3, atol=1e-9)


def test_sampled_route_refuses_contact_scale(small_basis):
    with pytest.raises(UnderResolvedInteractionError):
        interaction_tensor(small_basis, bl.PairPotential.soft_sphere(100.0, 0.05),
                           method="sampled")


def test_hard_core_rejected(small_basis):
    with pytest.raises(ConfigError):
        interaction_tensor(small_basis, bl.PairPotential.hard_sphere(0.5))
