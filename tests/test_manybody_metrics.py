import numpy as np
import pytest

import beclab as bl
from beclab.errors import BasisInsufficientError
from beclab.manybody import (build_mode_basis, condensate_metrics,
                             expand_reference, ground_state,
                             localization_profile, momentum_distribution)
from beclab.manybody.metrics import default_momentum_axes
from beclab.manybody.tensor import interaction_tensor

from .oracles import quadrature_momentum_l1

TRAP = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
GRID = bl.Grid.centered((14.0,) * 3, (32,) * 3)


@pytest.fixture(scope="module")
def basis_q2():
    return build_mode_basis(TRAP, GRID, 2)


@pytest.fixture(scope="module")
def zero_tensor(basis_q2):
    return interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(0.0, 1.0))


@pytest.fixture(scope="module")
def interacting(basis_q2):
    tensor = interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(5.0, 1.1))
    return tensor, ground_state(basis_q2, tensor, 2, a=0.42, g=8 * np.pi * 0.42)


@pytest.fixture(scope="module")
def analytic_reference():
    mesh = GRID.meshgrid()
    phi = np.ones(GRID.shape)
    for x in mesh:
        phi = phi * np.exp(-x**2 / 2.0)
    phi /= np.sqrt(GRID.integrate(phi**2))
    return bl.GPState(phi=phi, grid=GRID, trap=TRAP, g=0.0, energy_total=3.0,
                      energy_kinetic=1.5, energy_potential=1.5,
                      energy_interaction=0.0, mu=3.0, residual=0.0, iterations=0,
                      energy_trace=(3.0,), boundary_ratio=0.0)


def test_noninteracting_metrics_exact(basis_q2, zero_tensor, analytic_reference):
    gr = ground_state(basis_q2, zero_tensor, 2)
    rep = condensate_metrics(gr, analytic_reference, basis_q2, tensor=zero_tensor)
    assert rep.condensate_fraction == pytest.approx(1.0, abs=1e-10)
    assert rep.trace_distance <= 1e-8
    assert rep.gp_overlap == pytest.approx(1.0, abs=1e-8)
    assert rep.pair_moment == pytest.approx(0.5, abs=1e-10)   # N(N-1)/N^2 at N=2
    assert rep.momentum_coverage == pytest.approx(1.0, abs=1e-6)


def test_weak_coupling_metrics_regression(basis_q2, interacting, analytic_reference):
    _, gr = interacting
    rep = condensate_metrics(gr, analytic_reference, basis_q2,
                             tensor=interacting[0])
    assert 0.9 < rep.gp_overlap <= 1.0
    assert rep.trace_distance < 0.5
    assert rep.momentum_l1 <= rep.trace_distance + 1e-6
    assert rep.pair_moment <= 1 + 1e-10
    assert rep.pair_moment >= rep.gp_overlap**2 - 1.0 - 1e-10  # 2/N at N=2


def test_momentum_distribution_noninteracting(basis_q2, zero_tensor):
    gr = ground_state(basis_q2, zero_tensor, 2)
    k_axes = default_momentum_axes(basis_q2)
    rho, coverage = momentum_distribution(gr, basis_q2, k_axes)
    assert coverage == pytest.approx(1.0, abs=1e-6)
    assert rho.min() >= -1e-10
    center = tuple(len(k) // 2 for k in k_axes)
    assert rho[center] == rho.max()
    # gaussian transform of the ground mode
    kk = np.asarray(k_axes[0])
    ref = np.exp(-kk**2) / np.pi ** 1.5
    mid = len(kk) // 2
    np.testing.assert_allclose(rho[:, mid, mid], ref, atol=1e-10)


def test_momentum_parity_symmetry(basis_q2, interacting):
    _, gr = interacting
    rho, _ = momentum_distribution(gr, basis_q2)
    np.testing.assert_allclose(rho, rho[::-1, ::-1, ::-1], atol=1e-10)


def test_momentum_l1_independent_quadrature(basis_q2, interacting, analytic_reference):
    tensor, gr = interacting
    k_axes = tuple(np.linspace(-8.0, 8.0, 33) for _ in range(3))
    rep = condensate_metrics(gr, analytic_reference, basis_q2, tensor=tensor,
                             k_axes=k_axes)
    reference = expand_reference(analytic_reference, basis_q2)
    assert condensate_metrics(gr, analytic_reference, basis_q2, tensor=tensor,
                              k_axes=k_axes, reference=reference) == rep
    oracle = quadrature_momentum_l1(gr.gamma / gr.N, reference[0], basis_q2, k_axes)
    assert rep.momentum_l1 == pytest.approx(oracle, abs=1e-6)


def test_truncation_weight_guard(basis_q2, analytic_reference):
    # a reference state orthogonal-ish to the basis span must be refused
    mesh = GRID.meshgrid()
    phi = np.ones(GRID.shape)
    for x in mesh:
        phi = phi * np.exp(-((x - 2.5) ** 2))
    phi /= np.sqrt(GRID.integrate(phi**2))
    displaced = bl.GPState(phi=phi, grid=GRID, trap=TRAP, g=0.0, energy_total=3.0,
                           energy_kinetic=1.5, energy_potential=1.5,
                           energy_interaction=0.0, mu=3.0, residual=0.0,
                           iterations=0, energy_trace=(3.0,), boundary_ratio=0.0)
    with pytest.raises(BasisInsufficientError):
        expand_reference(displaced, basis_q2)


def test_localization_noninteracting_not_applicable(basis_q2, zero_tensor,
                                                    analytic_reference):
    gr = ground_state(basis_q2, zero_tensor, 2)
    prof = localization_profile(gr, analytic_reference, basis_q2,
                                radii=(0.5, 1.0, 2.0), samples=8, seed=1)
    assert prof.not_applicable


def test_localization_monotone_fractions(basis_q2, interacting):
    tensor, gr = interacting
    gp = bl.minimize_gp(TRAP, gr.g, GRID)
    prof = localization_profile(gr, gp, basis_q2, radii=(0.5, 1.0, 2.0, 4.0),
                                samples=16, seed=5)
    assert not prof.not_applicable
    fr = prof.fractions
    assert all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1))
    assert 0.0 <= fr[0] and fr[-1] <= 1.0 + 1e-12
