import json
import warnings

import numpy as np
import pytest

import beclab as bl
from beclab.cli import main
from beclab.errors import ConfigError, SolverFailureError
from beclab.scattering import (soft_sphere_kinetic_fraction,
                               soft_sphere_scattering_length,
                               soft_sphere_with_scattering_length)


def test_hard_sphere_exact():
    sol = bl.solve_zero_energy(bl.PairPotential.hard_sphere(1.0), r_max=50.0)
    assert sol.a == pytest.approx(1.0, abs=1e-6)
    assert sol.s == pytest.approx(1.0, abs=1e-4)
    # phi1 = 1 - 1/r outside the core, zero inside
    outside = sol.r_grid >= 1.0
    np.testing.assert_allclose(sol.phi1[outside], 1 - 1 / sol.r_grid[outside], atol=1e-12)
    assert np.all(sol.phi1[~outside] == 0.0)


def test_zero_potential():
    sol = bl.solve_zero_energy(bl.PairPotential.soft_sphere(0.0, 1.0))
    assert sol.a == 0.0 and sol.s is None
    np.testing.assert_array_equal(sol.phi1, 1.0)


def test_soft_sphere_against_closed_form():
    sol = bl.solve_zero_energy(bl.PairPotential.soft_sphere(10.0, 1.0), tol=1e-10)
    a_ref = soft_sphere_scattering_length(10.0, 1.0)
    s_ref = soft_sphere_kinetic_fraction(10.0, 1.0)
    assert sol.a == pytest.approx(a_ref, rel=1e-6)
    assert sol.s == pytest.approx(s_ref, rel=1e-5)


def test_closed_form_against_crude_integration():
    from .oracles import pinned_soft_sphere_length

    assert soft_sphere_scattering_length(10.0, 1.0) == pytest.approx(
        pinned_soft_sphere_length(10.0, 1.0), rel=1e-4)


@pytest.mark.parametrize("potential", [
    bl.PairPotential.soft_sphere(10.0, 1.0),
    bl.PairPotential.soft_sphere(0.5, 2.0),
    bl.PairPotential.soft_sphere(120.0, 0.7),
    bl.PairPotential.hard_sphere(1.0),
    bl.PairPotential.tabulated_radial(
        np.linspace(0, 1.5, 400), 6.0 * np.clip(1 - np.linspace(0, 1.5, 400) / 1.5, 0, None) ** 2),
])
@pytest.mark.parametrize("a0", [0.35, 2.7])
def test_scaling_covariance(potential, a0):
    base = bl.solve_zero_energy(potential, r_max=60.0)
    scaled = bl.solve_zero_energy(bl.scale_pair_potential(potential, a0),
                                  r_max=60.0 * max(a0, 1.0))
    assert scaled.a == pytest.approx(a0 * base.a, rel=1e-6)


def test_kinetic_fraction_monotone_in_height():
    s_soft = bl.solve_zero_energy(bl.PairPotential.soft_sphere(10.0, 1.0)).s
    s_hard = bl.solve_zero_energy(bl.PairPotential.soft_sphere(1000.0, 1.0)).s
    assert s_hard > s_soft
    # approaching the hard-wall value from below
    assert s_hard / bl.solve_zero_energy(bl.PairPotential.soft_sphere(1000.0, 1.0)).a > 0.9


@pytest.mark.parametrize("height,radius", [(0.3, 1.0), (10.0, 1.0), (300.0, 0.5)])
def test_kinetic_fraction_bound_unit_length(height, radius):
    # normalize the profile to unit scattering length, then 0 < s <= 1
    pot = bl.PairPotential.soft_sphere(height, radius)
    a0 = bl.solve_zero_energy(pot).a
    unit = bl.scale_pair_potential(pot, 1.0 / a0)
    sol = bl.solve_zero_energy(unit, r_max=60.0)
    assert sol.a == pytest.approx(1.0, rel=1e-6)
    assert 0.0 < sol.s <= 1.0 + 1e-8


def test_refinement_convergence_reported():
    sol = bl.solve_zero_energy(bl.PairPotential.soft_sphere(10.0, 1.0), tol=1e-9)
    finer = bl.solve_zero_energy(bl.PairPotential.soft_sphere(10.0, 1.0), tol=1e-12)
    assert abs(sol.a - finer.a) < 1e-9 * max(1.0, abs(sol.a))


def test_range_must_fit_matching_radius():
    with pytest.raises(ConfigError):
        bl.solve_zero_energy(bl.PairPotential.soft_sphere(1.0, 30.0), r_max=50.0)


def test_soft_sphere_inverse_design():
    pot = soft_sphere_with_scattering_length(0.3, 1.0)
    assert soft_sphere_scattering_length(pot.height, pot.radius) == pytest.approx(0.3, abs=1e-10)


def test_hard_sphere_substitute_properties():
    sub = bl.hard_sphere_substitute(0.5)
    sol = bl.solve_zero_energy(sub)
    assert sol.a == pytest.approx(0.5, rel=1e-6)
    assert sol.s >= 0.99 * sol.a


@pytest.mark.parametrize("radius", [1e-4, 1e-5, 1e-6, 1e-160])
def test_scattering_length_at_the_fit_floor_is_refused(tmp_path, radius):
    # a = r_max - u/alpha rounds at about eps r_max: at radius 1e-4 (a = 1.67e-12)
    # the fit read 1.6556e-12, at 1e-6 it read 0, and at 1e-160 s was NaN
    pot = bl.PairPotential.soft_sphere(10.0, radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailureError) as info:
            bl.solve_zero_energy(pot, r_max=50.0, tol=1e-9)
        diagnostics = info.value.diagnostics
        assert diagnostics["floor"] >= 1e-9 * abs(diagnostics["a"])
        assert soft_sphere_scattering_length(10.0, radius) < diagnostics["floor"] / 1e-9
        cfg = {"experiment": "scattering",
               "problem": {"pair_potential": {"shape": "soft_sphere", "height": 10.0,
                                              "radius": radius}},
               "solver": {"r_max": 50.0, "tol": 1e-9}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["scattering", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    [failure] = (tmp_path / "o").rglob("failure.json")
    assert set(json.loads(failure.read_text())["diagnostics"]) == {"a", "floor", "tol"}


def test_overflowing_radial_solution_is_refused_at_once():
    # u grows like exp(sqrt(h/2) r) and overflows; the step used to halve to 2^21 on NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailureError, match="asymptotic slope"):
            bl.solve_zero_energy(bl.PairPotential.soft_sphere(5e6, 1.1), r_max=80.0)
