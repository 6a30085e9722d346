import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import beclab as bl
from beclab.errors import (BasisInsufficientError, ConfigError, ResolutionError,
                           SolverFailureError)
from beclab.manybody import (CondensateReport, build_mode_basis, condensate_metrics,
                             expand_reference, ground_state, localization_profile,
                             prepare_pipeline)
from beclab.manybody import localization, metrics, sweep
from beclab.manybody.localization import _ball_boxes, _scrambled_sobol
from beclab.manybody.metrics import _K_POINTS, default_momentum_axes, momentum_density
from beclab.manybody.tensor import interaction_tensor
from beclab.model import axis_apply

from .oracles import (analytic_mode_transforms, materialized_localization,
                      materialized_momentum_metrics, quadrature_mode_transforms,
                      quadrature_momentum_l1, sampled_modes)

TRAP = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
GRID = bl.Grid.centered((14.0,) * 3, (32,) * 3)
# the coupling 8 pi a of the ``interacting`` two-boson solve at a = 0.42
G_INTERACTING = 8 * np.pi * 0.42


@pytest.fixture(scope="module")
def basis_q2():
    return build_mode_basis(TRAP, GRID, 2)


@pytest.fixture(scope="module")
def zero_tensor(basis_q2):
    return interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(0.0, 1.0))


@pytest.fixture(scope="module")
def interacting(basis_q2):
    tensor = interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(5.0, 1.1))
    return ground_state(basis_q2, tensor, 2)


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
    rep = condensate_metrics(gr, expand_reference(analytic_reference, basis_q2))
    assert rep.condensate_fraction == pytest.approx(1.0, abs=1e-10)
    assert rep.trace_distance <= 1e-8
    assert rep.gp_overlap == pytest.approx(1.0, abs=1e-8)
    assert rep.pair_moment == pytest.approx(0.5, abs=1e-10)   # N(N-1)/N^2 at N=2
    assert rep.momentum_coverage == pytest.approx(1.0, abs=1e-6)


def test_weak_coupling_metrics_regression(basis_q2, interacting, analytic_reference):
    gr = interacting
    rep = condensate_metrics(gr, expand_reference(analytic_reference, basis_q2))
    assert 0.9 < rep.gp_overlap <= 1.0
    assert rep.trace_distance < 0.5
    assert rep.momentum_l1 <= rep.trace_distance + 1e-6
    assert rep.pair_moment <= 1 + 1e-10
    assert rep.pair_moment >= rep.gp_overlap**2 - 1.0 - 1e-10  # 2/N at N=2


def test_momentum_distribution_noninteracting(basis_q2, zero_tensor):
    gr = ground_state(basis_q2, zero_tensor, 2)
    k_axes = default_momentum_axes(basis_q2)
    rho = momentum_density(basis_q2, k_axes)(gr.gamma / gr.N)
    c = np.eye(basis_q2.size)[0]
    coverage = condensate_metrics(gr, (c, 1.0), k_axes=k_axes).momentum_coverage
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
    gr = interacting
    rho = momentum_density(basis_q2, default_momentum_axes(basis_q2))(gr.gamma / gr.N)
    np.testing.assert_allclose(rho, rho[::-1, ::-1, ::-1], atol=1e-10)


def test_momentum_l1_independent_quadrature(basis_q2, interacting, analytic_reference):
    gr = interacting
    k_axes = tuple(np.linspace(-8.0, 8.0, 33) for _ in range(3))
    reference = expand_reference(analytic_reference, basis_q2)
    rep = condensate_metrics(gr, reference, k_axes=k_axes)
    assert condensate_metrics(gr, expand_reference(analytic_reference, gr.ham.basis),
                              k_axes=k_axes) == rep
    assert rep.truncation_weight == reference[1]
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
    prof = localization_profile(gr, analytic_reference, radii=(0.5, 1.0, 2.0), samples=8,
                                seed=1)
    assert prof.fractions is None
    empty = localization_profile(gr, analytic_reference, radii=(1.0,), samples=0)
    assert empty.fractions is None and empty.total_energy == 0.0


def test_localization_monotone_fractions(basis_q2, interacting):
    gr = interacting
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    prof = localization_profile(gr, gp, radii=(0.5, 1.0, 2.0, 4.0), samples=16, seed=5)
    assert prof.fractions is not None
    fr = prof.fractions
    assert all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1))
    assert 0.0 <= fr[0] and fr[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("grid", [GRID, bl.Grid((-3.0, 0.5, -8.0), (9.0, 4.0, 11.0), (20, 9, 27)),
                                  bl.Grid((-3.0, 0.5), (9.0, 4.0), (20, 9))],
                         ids=["cube", "uneven", "planar"])
def test_ball_box_selects_the_full_grid_ball(grid):
    nodes = [(0, 0, 0), tuple(n // 2 for n in grid.shape), tuple(n - 1 for n in grid.shape),
             (3, grid.shape[1] - 2, 1)]
    # unsorted, so that the largest radius is not the last one
    radii = [0.5, 0.1, min(grid.spacing), 40.0, 1.0, 2.0, 3.0, 5.0]
    for node in (node[:grid.dimension] for node in nodes):
        sq = [(x - x[i]) ** 2 for x, i in zip(grid.axes, node)]
        boxes = list(_ball_boxes(sq, [d * d for d in radii]))
        assert len(boxes) == len(radii)
        for d, (box, inside) in zip(radii, boxes):
            full = sum((x - x.flat[i]) ** 2 for x, i in zip(grid.meshgrid(), node)) <= d * d
            embedded = np.zeros(grid.shape, dtype=bool)
            embedded[box] = inside
            assert np.array_equal(embedded, full)


def test_localization_matches_the_materialized_route(monkeypatch):
    # the profile reads the product modes' tables; the basis holds no 3D modes
    basis = build_mode_basis(TRAP, GRID, 2)
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    gr = ground_state(basis, tensor, 2)
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    drawn = []
    draw = localization._sample_indices
    monkeypatch.setattr(localization, "_sample_indices",
                        lambda *args: drawn.append(draw(*args)) or drawn[-1])
    radii = (0.5, 1.0, 2.0, 4.0)
    prof = localization_profile(gr, gp, radii=radii, samples=16, seed=5)
    assert basis.modes is None
    fractions, total, idx = materialized_localization(gr, gp, radii, 16, 5)
    assert np.array_equal(drawn[0], idx)
    np.testing.assert_allclose(prof.fractions, fractions, rtol=1e-12, atol=0)
    assert prof.total_energy == pytest.approx(total, rel=1e-12)


def test_localization_memory_stays_flat_across_calls(interacting):
    # the scratch is the call's own: nothing grid-sized outlives it
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    after = []
    tracemalloc.start()
    try:
        for _ in range(4):
            localization_profile(interacting, gp, (0.5, 1.0, 2.0), 8, 3)
            gc.collect()
            after.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert abs(after[3] - after[1]) < 2**20, after


def _profile_peak(ground, gp, radii):
    """One profile's tracemalloc peak, in grid-sized float64 arrays."""
    GRID.__dict__.pop("weights", None)
    localization_profile(ground, gp, (0.5,), 2, 3)      # imports done once
    gc.collect()
    tracemalloc.start()
    try:
        localization_profile(ground, gp, radii, 8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "weights" not in GRID.__dict__
    return peak / (8 * np.prod(GRID.shape))


def test_localization_scratch_is_the_gradient_buffers(interacting):
    # a sample's field and the three buffers of masked_gradient_sq, plus
    # 1/phi and phi^2 dV: six grid-sized arrays, the support's edge tables
    # and the per-sample temporaries, 6.65 measured on this grid (6.9 when
    # the profile kept four gradient buffers of its own, 7.4 when the draws
    # built their density, weights and cdf in arrays of their own).  The
    # mode grid caches no weight array
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    peak = _profile_peak(interacting, gp, (0.5, 1.0, 2.0))
    assert peak <= 7.0, peak


def test_localization_ball_sums_allocate_no_float_box(interacting):
    # the infinite ball's box is the whole grid.  Its sums are the one float
    # box a sample allocates for all its radii, formed after the field and
    # the gradient's other buffers are gone, so that the energy density,
    # the sums, the mask and the gathered energy densities stay under the
    # gradient's own peak: 6.77 grid arrays measured (7.8 when the sums
    # filled a gradient buffer kept for the whole profile)
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    peak = _profile_peak(interacting, gp, (0.5, 4.0, float("inf")))
    assert peak <= 7.0, peak


def test_localization_starts_no_thread(monkeypatch, interacting):
    # every sample runs on the calling thread
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    threads = threading.active_count()
    seen = []
    gradient = localization.masked_gradient_sq
    monkeypatch.setattr(localization, "masked_gradient_sq",
                        lambda *a, **k: seen.append((threading.active_count(),
                                                     threading.get_ident())) or gradient(*a, **k))
    localization_profile(interacting, gp, (0.5, 1.0), 25, 9)
    assert seen == [(threads, threading.get_ident())] * 25


@pytest.mark.parametrize("radii, samples, field", [((float("nan"),), 4, "radii"),
                                                   ((1.0, float("nan")), 4, "radii"),
                                                   ((1.0,), -1, "samples")])
def test_localization_refuses_nan_radii_and_negative_sample_counts(interacting,
                                                                  analytic_reference,
                                                                  radii, samples, field):
    with pytest.raises(ConfigError) as err:
        localization_profile(interacting, analytic_reference, radii=radii, samples=samples)
    assert err.value.field == field


def test_localization_infinite_radius_is_the_whole_grid(interacting):
    gp = bl.minimize_gp(TRAP, G_INTERACTING, GRID)
    prof = localization_profile(interacting, gp, radii=(1.0, float("inf")), samples=4, seed=2)
    assert prof.fractions[-1] == pytest.approx(1.0, rel=1e-15)


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


def test_no_module_imports_scipy():
    # importing the package loads numpy only; scipy is imported inside the
    # two functions that call it (the radial oracle, tabulated-trap modes)
    code = ("import importlib, pkgutil, sys, beclab\n"
            "for m in pkgutil.walk_packages(beclab.__path__, 'beclab.'):\n"
            "    importlib.import_module(m.name)\n"
            "assert 'beclab.manybody.localization' in sys.modules\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
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
    sampled = sampled_modes(build_mode_basis(trap, gp_grid, 2))      # the modes as 3D arrays
    a = np.random.default_rng(7).standard_normal(basis.size)
    phi = np.tensordot(a / np.linalg.norm(a), sampled, axes=(0, 0))
    phi = phi + 0.05 * outside(*gp_grid.meshgrid())
    phi /= np.sqrt(gp_grid.integrate(phi**2))
    flat = sampled.reshape(basis.size, -1)
    c_ref = (flat * gp_grid.weights.ravel()) @ phi.ravel()
    c, weight = expand_reference(_state(phi, gp_grid, trap), basis)
    assert 0.99 < weight < 0.9999
    assert weight == pytest.approx(c_ref @ c_ref, rel=1e-13)
    np.testing.assert_allclose(c, c_ref / np.sqrt(c_ref @ c_ref), rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ["harmonic", "box"])
def test_reference_on_the_mode_grid_reads_the_basis_tables(monkeypatch, kind):
    # no second set of modes: the basis's own tables, which are the bits
    # separable_modes gives on that grid, so c is the factored contraction
    # on them, bit for bit
    trap, grid, _, outside = _case(kind)
    basis = build_mode_basis(trap, grid, 2)
    tables = metrics.separable_modes(trap, grid, 2)[1]
    assert all(np.array_equal(t, u) for t, u in zip(tables, basis.axis_tables))
    phi = sampled_modes(basis)[0] + 0.05 * outside(*grid.meshgrid())
    phi /= np.sqrt(grid.integrate(phi**2))
    monkeypatch.setattr(metrics, "separable_modes", lambda *args: pytest.fail("modes rebuilt"))
    c, weight = expand_reference(_state(phi, grid, trap), basis)
    a = axis_apply(phi, [t * w for t, w in zip(tables, grid.axis_weights)])
    c_ref = a[tuple(basis.table_rows.T)]
    assert weight == float(c_ref @ c_ref)
    assert np.array_equal(c, c_ref / np.sqrt(weight))


def test_reference_on_too_coarse_grid_refused(basis_q2):
    coarse = bl.Grid.centered((14.0,) * 3, (8,) * 3)
    phi = np.exp(-sum(x**2 for x in coarse.meshgrid()) / 2)
    phi /= np.sqrt(coarse.integrate(phi**2))
    with pytest.raises(ResolutionError):
        expand_reference(_state(phi, coarse, TRAP), basis_q2)


@pytest.mark.parametrize("kind", ["harmonic", "box"])
def test_factored_momentum_metrics_match_materialized_transforms(kind, basis_q2, interacting):
    if kind == "harmonic":
        basis, gr = basis_q2, interacting
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
    rep = condensate_metrics(gr, (c, 1.0), k_axes=k_axes)
    l1, coverage = materialized_momentum_metrics(gr.gamma / gr.N, c, transforms, k_axes)
    assert rep.momentum_l1 == pytest.approx(l1, rel=1e-13)
    assert rep.momentum_coverage == pytest.approx(coverage, rel=1e-13)
    rho = momentum_density(basis, k_axes)(gr.gamma / gr.N)
    ref = np.einsum("ij,i...,j...->...", gr.gamma / gr.N, transforms, np.conj(transforms)).real
    assert np.abs(rho - ref).max() <= 1e-13 * np.abs(ref).max()


def _shifted(grid):
    # the same points and extent, lo moved by 0.3 on every axis
    return bl.Grid(tuple(lo + 0.3 for lo in grid.lo), grid.extent, grid.points)


def test_reference_on_a_shifted_grid_is_read_on_its_nodes():
    # a mean-field grid that matches the mode grid in points and extent but
    # not in lo: the modes are sampled on the mean-field grid's own nodes
    trap, grid, _, outside = _case("harmonic")
    gp_grid = _shifted(grid)
    basis = build_mode_basis(trap, grid, 2)
    sampled = sampled_modes(build_mode_basis(trap, gp_grid, 2))
    a = np.random.default_rng(11).standard_normal(basis.size)
    phi = np.tensordot(a / np.linalg.norm(a), sampled, axes=(0, 0))
    phi = phi + 0.05 * outside(*gp_grid.meshgrid())
    phi /= np.sqrt(gp_grid.integrate(phi**2))
    flat = sampled.reshape(basis.size, -1)
    c_ref = (flat * gp_grid.weights.ravel()) @ phi.ravel()
    c, weight = expand_reference(_state(phi, gp_grid, trap), basis)
    assert weight == pytest.approx(c_ref @ c_ref, rel=1e-13)
    np.testing.assert_allclose(c, c_ref / np.sqrt(c_ref @ c_ref), rtol=0, atol=1e-13)


def test_localization_refuses_a_shifted_mean_field_grid(interacting):
    gp_grid = _shifted(GRID)
    phi = np.exp(-sum(x**2 for x in gp_grid.meshgrid()) / 2)
    phi /= np.sqrt(gp_grid.integrate(phi**2))
    with pytest.raises(ConfigError, match="mode grid"):
        localization_profile(interacting, _state(phi, gp_grid, TRAP), radii=(1.0,), samples=4)


@pytest.fixture(scope="module")
def tabulated_ground():
    # distinct stiffnesses: no degenerate eigenvectors; the modes are sampled
    # 3D arrays, so every metric takes its tabulated route
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    basis = build_mode_basis(bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2), grid, 1)
    assert basis.axis_tables is None
    return ground_state(basis, interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)),
                        2)


def test_sampled_momentum_metrics_match_materialized_transforms(tabulated_ground):
    gr = tabulated_ground
    k_axes = default_momentum_axes(gr.ham.basis)
    transforms = quadrature_mode_transforms(gr.ham.basis, k_axes)
    c = np.random.default_rng(3).standard_normal(gr.ham.basis.size)
    c /= np.linalg.norm(c)
    rep = condensate_metrics(gr, (c, 1.0), k_axes=k_axes)
    l1, coverage = materialized_momentum_metrics(gr.gamma / gr.N, c, transforms, k_axes)
    assert rep.momentum_l1 == pytest.approx(l1, rel=1e-13)
    assert rep.momentum_coverage == pytest.approx(coverage, rel=1e-13)


# three axes of different lengths and ranges: a mix-up between axes fails
_UNEVEN_LATTICE = (np.linspace(-8.0, 8.0, 31), np.linspace(-10.0, 10.0, 45),
                   np.linspace(-12.0, 12.0, 61))


@pytest.mark.parametrize("lattice", ["default", "uneven"])
@pytest.mark.parametrize("planes", [1, 7, "whole"])
@pytest.mark.parametrize("route", ["product", "tabulated"])
def test_momentum_slabs_match_materialized_transforms(monkeypatch, route, planes, lattice,
                                                      interacting, tabulated_ground):
    gr = interacting if route == "product" else tabulated_ground
    basis = gr.ham.basis
    k_axes = default_momentum_axes(basis) if lattice == "default" else _UNEVEN_LATTICE
    n0 = len(k_axes[0])
    planes = n0 if planes == "whole" else planes
    rows = basis.size if route == "tabulated" else 1
    monkeypatch.setattr(metrics, "_SLAB_NODES",
                        planes * rows * len(k_axes[1]) * len(k_axes[2]))
    slabs = []
    density = metrics.momentum_density
    monkeypatch.setattr(metrics, "momentum_density",
                        lambda b, k: slabs.append(len(k[0])) or density(b, k))
    transforms = (analytic_mode_transforms if route == "product"
                  else quadrature_mode_transforms)(basis, k_axes)
    c = np.random.default_rng(3).standard_normal(basis.size)
    c /= np.linalg.norm(c)
    rep = condensate_metrics(gr, (c, 1.0), k_axes=k_axes)
    assert slabs == [planes] * (n0 // planes) + [n0 % planes] * (n0 % planes > 0)
    l1, coverage = materialized_momentum_metrics(gr.gamma / gr.N, c, transforms, k_axes)
    assert rep.momentum_l1 == pytest.approx(l1, rel=1e-13)
    assert rep.momentum_coverage == pytest.approx(coverage, rel=1e-13)


def _metrics_peak(gr):
    c = np.random.default_rng(3).standard_normal(gr.ham.basis.size)
    c /= np.linalg.norm(c)
    tracemalloc.start()
    try:
        condensate_metrics(gr, (c, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * _K_POINTS**3)       # in complex arrays of the default lattice


def test_product_metrics_build_no_lattice_array():
    # the sweep's M = 20 harmonic basis at N = 4: the momentum sums run slab
    # by slab, so no complex array of the whole lattice is made
    basis = build_mode_basis(TRAP, bl.Grid.centered((14.0,) * 3, (48,) * 3), 3)
    assert basis.size == 20
    gr = ground_state(basis, interaction_tensor(basis, bl.PairPotential.soft_sphere(0.01, 8.85)),
                      4)
    assert _metrics_peak(gr) <= 0.75


def test_tabulated_metrics_hold_one_slab_of_transforms(tabulated_ground):
    # the sampled modes' transforms are built for one slab of k-planes at a time
    assert _metrics_peak(tabulated_ground) <= 2.0


def test_tabulated_reference_on_another_grid_is_refused(tabulated_ground):
    # tabulated modes exist on the mode grid only: a finer or shifted
    # mean-field grid is refused, not solved for a second set of modes
    basis = tabulated_ground.ham.basis
    finer = bl.Grid.centered(basis.grid.extent, (30,) * 3)
    for grid in (finer, _shifted(basis.grid)):
        phi = np.exp(-sum(x**2 for x in grid.meshgrid()) / 2)
        with pytest.raises(ConfigError, match="mode grid") as err:
            expand_reference(_state(phi, grid, basis.trap), basis)
        assert err.value.field == "gp_grid"


def test_pipeline_refuses_a_tabulated_reference_grid_before_any_solve(monkeypatch):
    # the scattering, GP and mode solves never run: the refusal comes first,
    # with expand_reference's message and field
    solved = []
    for name in ("solve_zero_energy", "minimize_gp", "build_mode_basis"):
        monkeypatch.setattr(sweep, name, lambda *a, _name=name, **k: solved.append(_name))
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    trap = bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2)
    for gp_grid in (bl.Grid.centered(grid.extent, (30,) * 3), _shifted(grid)):
        with pytest.raises(ConfigError, match="mode grid") as err:
            prepare_pipeline(trap, bl.PairPotential.soft_sphere(5.0, 1.1), 1.0, grid, 1, gp_grid,
                             a_max=0.1)
        assert err.value.field == "gp_grid"
    assert solved == []


def test_sampled_reference_expansion_matches_direct_quadrature(tabulated_ground):
    basis = tabulated_ground.ham.basis
    grid = basis.grid
    a = np.random.default_rng(7).standard_normal(basis.size)
    phi = np.tensordot(a / np.linalg.norm(a), basis.modes, axes=(0, 0))
    x, y, z = grid.meshgrid()
    phi = phi + 0.05 * x * y * z * np.exp(-(x * x + y * y + z * z) / 2)
    phi /= np.sqrt(grid.integrate(phi**2))
    flat = basis.modes.reshape(basis.size, -1)
    c_ref = (flat * grid.weights.ravel()) @ phi.ravel()
    c, weight = expand_reference(_state(phi, grid, basis.trap), basis)
    assert 0.99 < weight < 0.9999
    assert weight == pytest.approx(c_ref @ c_ref, rel=1e-13)
    np.testing.assert_allclose(c, c_ref / np.sqrt(c_ref @ c_ref), rtol=0, atol=1e-13)


_IN_RANGE = dict(condensate_fraction=0.9, gp_overlap=0.8, trace_distance=0.1, momentum_l1=0.05,
                 pair_moment=0.7, truncation_weight=1.0, momentum_coverage=1.0)


@pytest.mark.parametrize("field, value", [("condensate_fraction", 1.5), ("gp_overlap", 0.95),
                                          ("trace_distance", 2.5), ("pair_moment", 1.5)])
def test_out_of_range_result_is_a_solver_failure(field, value):
    # a solved value outside its range: exit 3 with the value as a diagnostic
    with pytest.raises(SolverFailureError) as info:
        CondensateReport(**(_IN_RANGE | {field: value}))
    assert info.value.diagnostics[field] == value
