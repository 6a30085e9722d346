import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import beclab as bl
from beclab.errors import BasisInsufficientError, ResolutionError
from beclab.manybody import (build_mode_basis, condensate_metrics,
                             expand_reference, ground_state,
                             localization_profile, momentum_distribution)
from beclab.manybody import localization
from beclab.manybody.localization import _ball_box, _scrambled_sobol
from beclab.manybody.metrics import default_momentum_axes
from beclab.manybody.tensor import interaction_tensor

from .oracles import (analytic_mode_transforms, materialized_localization,
                      materialized_momentum_metrics, quadrature_mode_transforms,
                      quadrature_momentum_l1)

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
    empty = localization_profile(gr, analytic_reference, basis_q2, radii=(1.0,), samples=0)
    assert empty.not_applicable and empty.total_energy == 0.0


def test_localization_monotone_fractions(basis_q2, interacting):
    tensor, gr = interacting
    gp = bl.minimize_gp(TRAP, gr.g, GRID)
    prof = localization_profile(gr, gp, basis_q2, radii=(0.5, 1.0, 2.0, 4.0),
                                samples=16, seed=5)
    assert not prof.not_applicable
    fr = prof.fractions
    assert all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1))
    assert 0.0 <= fr[0] and fr[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("grid", [GRID, bl.Grid((-3.0, 0.5, -8.0), (9.0, 4.0, 11.0), (20, 9, 27)),
                                  bl.Grid((-3.0, 0.5), (9.0, 4.0), (20, 9))],
                         ids=["cube", "uneven", "planar"])
def test_ball_box_selects_the_full_grid_ball(grid):
    nodes = [(0, 0, 0), tuple(n // 2 for n in grid.shape), tuple(n - 1 for n in grid.shape),
             (3, grid.shape[1] - 2, 1)]
    radii = [0.1, min(grid.spacing), 0.5, 1.0, 2.0, 3.0, 5.0, 40.0]
    for node in (node[:grid.dimension] for node in nodes):
        sq = [(x - x[i]) ** 2 for x, i in zip(grid.axes, node)]
        for d in radii:
            full = sum((x - x.flat[i]) ** 2 for x, i in zip(grid.meshgrid(), node)) <= d * d
            box, inside = _ball_box(sq, d * d)
            embedded = np.zeros(grid.shape, dtype=bool)
            embedded[box] = inside
            assert np.array_equal(embedded, full)


def test_localization_matches_the_materialized_route(monkeypatch, interacting):
    tensor, gr = interacting
    gp = bl.minimize_gp(TRAP, gr.g, GRID)
    basis = build_mode_basis(TRAP, GRID, 2)
    drawn = []
    draw = localization._sample_indices
    monkeypatch.setattr(localization, "_sample_indices",
                        lambda *args: drawn.append(draw(*args)) or drawn[-1])
    radii = (0.5, 1.0, 2.0, 4.0)
    prof = localization_profile(gr, gp, basis, radii=radii, samples=16, seed=5)
    assert "modes" not in basis.__dict__
    fractions, total, idx = materialized_localization(gr, gp, basis, radii, 16, 5)
    assert np.array_equal(drawn[0], idx)
    np.testing.assert_allclose(prof.fractions, fractions, rtol=1e-12, atol=0)
    assert prof.total_energy == pytest.approx(total, rel=1e-12)


def test_threaded_profile_equals_one_worker(monkeypatch, basis_q2, interacting):
    # more workers than samples' worth of cores, with frequent thread switches
    tensor, gr = interacting
    gp = bl.minimize_gp(TRAP, gr.g, GRID)
    args = (gr, gp, basis_q2, (0.5, 1.0, 2.0, 4.0), 24, 9)
    monkeypatch.setattr(localization, "_cpu_count", lambda: 1)
    serial = localization_profile(*args)
    monkeypatch.setattr(localization, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        threaded = localization_profile(*args)
        assert time.perf_counter() - start < 60.0
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial and not serial.not_applicable


@pytest.mark.parametrize("seed", [0, 1, 7, 20260810, 2**40])
@pytest.mark.parametrize("count", [1, 2, 3, 64, 100, 513])
def test_scrambled_sobol_matches_scipy(seed, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # scipy warns on counts that are not 2^k
        ref = qmc.Sobol(d=1, scramble=True, seed=seed).random(count).ravel()
    assert np.array_equal(_scrambled_sobol(count, seed), ref)


def test_scrambled_sobol_matches_stored_draws():
    # pinned draws: a future scipy cannot move the localization samples
    doc = json.loads((Path(__file__).parent / "data" / "sobol_draws.json").read_text())
    for draw in doc["draws"]:
        want = np.array(draw["numerators"]) / 2.0**30
        assert np.array_equal(_scrambled_sobol(draw["count"], draw["seed"]), want), draw["seed"]


def test_no_module_imports_scipy_stats():
    code = ("import importlib, pkgutil, sys, beclab\n"
            "for m in pkgutil.walk_packages(beclab.__path__, 'beclab.'):\n"
            "    importlib.import_module(m.name)\n"
            "assert 'beclab.manybody.localization' in sys.modules\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy.stats')))\n")
    src = str(Path(bl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def _state(phi, grid, trap):
    return bl.GPState(phi=phi, grid=grid, trap=trap, g=0.0, energy_total=3.0,
                      energy_kinetic=1.5, energy_potential=1.5, energy_interaction=0.0,
                      mu=3.0, residual=0.0, iterations=0, energy_trace=(3.0,),
                      boundary_ratio=0.0)


def _case(kind):
    """(trap, interaction grid, finer mean-field grid, a function outside the q <= 2 span)."""
    if kind == "harmonic":
        return (TRAP, GRID, bl.Grid.centered((14.0,) * 3, (40,) * 3),
                lambda x, y, z: x * y * z * np.exp(-(x * x + y * y + z * z) / 2))
    return (bl.TrapSpec.box(1.0, 3), bl.Grid.box(1.0, 24), bl.Grid.box(1.0, 40),
            lambda x, y, z: np.sin(4 * np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z))


@pytest.mark.parametrize("kind", ["harmonic", "box"])
def test_factored_reference_expansion_matches_sampled_modes(kind):
    trap, grid, gp_grid, outside = _case(kind)
    basis = build_mode_basis(trap, grid, 2)
    sampled = build_mode_basis(trap, gp_grid, 2)      # the modes as 3D arrays
    a = np.random.default_rng(7).standard_normal(basis.size)
    phi = np.tensordot(a / np.linalg.norm(a), sampled.modes, axes=(0, 0))
    phi = phi + 0.05 * outside(*gp_grid.meshgrid())
    phi /= np.sqrt(gp_grid.integrate(phi**2))
    flat = sampled.modes.reshape(basis.size, -1)
    c_ref = (flat * gp_grid.weights.ravel()) @ phi.ravel()
    c, weight = expand_reference(_state(phi, gp_grid, trap), basis)
    assert 0.99 < weight < 0.9999
    assert weight == pytest.approx(c_ref @ c_ref, rel=1e-13)
    np.testing.assert_allclose(c, c_ref / np.sqrt(c_ref @ c_ref), rtol=0, atol=1e-13)


def test_reference_on_too_coarse_grid_refused(basis_q2):
    coarse = bl.Grid.centered((14.0,) * 3, (8,) * 3)
    phi = np.exp(-sum(x**2 for x in coarse.meshgrid()) / 2)
    phi /= np.sqrt(coarse.integrate(phi**2))
    with pytest.raises(ResolutionError):
        expand_reference(_state(phi, coarse, TRAP), basis_q2)


@pytest.mark.parametrize("kind", ["harmonic", "box"])
def test_factored_momentum_metrics_match_materialized_transforms(kind, basis_q2, interacting):
    if kind == "harmonic":
        basis, (tensor, gr) = basis_q2, interacting
        k_axes = default_momentum_axes(basis)
        transforms = analytic_mode_transforms(basis, k_axes)
    else:
        trap, grid, _, _ = _case(kind)
        basis = build_mode_basis(trap, grid, 1)
        tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(50.0, 0.3))
        gr = ground_state(basis, tensor, 2)
        k_axes = tuple(np.linspace(-30.0, 30.0, 41) for _ in range(3))
        transforms = quadrature_mode_transforms(basis, k_axes)
    c = np.random.default_rng(3).standard_normal(basis.size)
    c /= np.linalg.norm(c)
    rep = condensate_metrics(gr, None, basis, tensor=tensor, k_axes=k_axes,
                             reference=(c, 1.0))
    l1, coverage = materialized_momentum_metrics(gr.gamma / gr.N, c, transforms, k_axes)
    assert rep.momentum_l1 == pytest.approx(l1, rel=1e-13)
    assert rep.momentum_coverage == pytest.approx(coverage, rel=1e-13)
    rho, cov = momentum_distribution(gr, basis, k_axes)
    ref = np.einsum("ij,i...,j...->...", gr.gamma / gr.N, transforms, np.conj(transforms)).real
    assert np.abs(rho - ref).max() <= 1e-13 * np.abs(ref).max()
    assert cov == pytest.approx(coverage, rel=1e-13)
