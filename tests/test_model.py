import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beclab as bl
from beclab.errors import ConfigError, InvalidParameterError, OutOfDomainError
from beclab.model import mirror_parity, multilinear_interpolate, problem_from_config

from . import oracles


def _at(trap, point) -> float:
    """V at one point: ``sample_axes`` on one-point axes."""
    return float(trap.sample_axes([np.array([x]) for x in point]).item())


def test_harmonic_trap_examples():
    trap = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
    assert _at(trap, (0.0, 0.0, 0.0)) == 0.0
    assert _at(trap, (1.0, 0.0, 0.0)) == 1.0
    aniso = bl.TrapSpec.harmonic((2.0, 1.0, 0.5))
    assert _at(aniso, (1.0, 1.0, 2.0)) == pytest.approx(2 + 1 + 2)


def test_box_trap_inside_and_wall():
    trap = bl.TrapSpec.box(1.0, 3)
    assert _at(trap, (0.5, 0.5, 0.5)) == 0.0


def test_trap_evaluation_is_pure():
    trap = bl.TrapSpec.harmonic((1.3, 0.7, 2.2))
    pt = (0.37, -1.41, 0.9)
    values = {_at(trap, pt) for _ in range(16)}
    assert len(values) == 1


def test_tabulated_trap_interpolation_and_domain():
    g = bl.Grid.centered((4.0, 4.0), (5, 5))
    mesh = g.meshgrid()
    vals = (mesh[0] ** 2 + mesh[1] ** 2) * np.ones(g.shape)
    trap = bl.TrapSpec.tabulated(g, vals)
    # linear interpolation reproduces values at nodes and midpoints linearly
    assert _at(trap, (0.0, 0.0)) == pytest.approx(0.0)
    assert _at(trap, (1.0, 1.0)) == pytest.approx(2.0)
    with pytest.raises(OutOfDomainError):
        _at(trap, (3.0, 0.0))


def _table_case(seed, points):
    """A random table on a grid with random lo and extent per axis."""
    rng = np.random.default_rng(seed)
    d = len(points)
    grid = bl.Grid(tuple(rng.uniform(-4.0, 1.0, d)), tuple(rng.uniform(2.0, 9.0, d)), points)
    return rng, grid, 10.0 * rng.standard_normal(points)


def _edges(grid, ax, cells):
    """The coordinates ``cells`` of a cell below the first node and above the
    last node of axis ``ax``."""
    h = grid.spacing[ax]
    return np.array([grid.lo[ax] - cells * h, grid.lo[ax] + grid.extent[ax] + cells * h])


def _corner_sum(grid, table, axes):
    """The oracle on the tensor grid of ``axes``."""
    return oracles.point_interpolate(grid, table,
                                     np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


@pytest.mark.parametrize("points", [(7, 11), (13, 4), (5, 9, 6), (12, 4, 7)])
@pytest.mark.parametrize("seed", [0, 1])
def test_separable_interpolation_matches_the_corner_sum(points, seed):
    # per axis, unsorted: random interior coordinates, every node, both ends
    # and the 0.5e-9-cell edges just outside them, which clip onto the ends
    rng, grid, table = _table_case(seed, points)
    axes = [rng.permutation(np.concatenate([
        rng.uniform(lo, lo + e, 2 * n), x, [lo, lo + e], _edges(grid, ax, 0.5e-9)]))
        for ax, (lo, e, n, x) in enumerate(zip(grid.lo, grid.extent, points, grid.axes))]
    got = multilinear_interpolate(grid, table, axes)
    want = _corner_sum(grid, table, axes)
    assert got.shape == want.shape == tuple(len(x) for x in axes)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(table).max()


@pytest.mark.parametrize("points", [(7, 11), (5, 9, 6)])
def test_one_point_axes_match_the_corner_sum(points):
    # single points, the table's corners among them, and lines through them
    rng, grid, table = _table_case(2, points)
    corners = [list(c) for c in itertools.product(*[(x[0], x[-1]) for x in grid.axes])]
    inner = [[rng.uniform(lo, lo + e) for lo, e in zip(grid.lo, grid.extent)] for _ in range(8)]
    for point in corners + inner:
        for axes in ([[x] for x in point], [grid.axes[0]] + [[x] for x in point[1:]]):
            got = multilinear_interpolate(grid, table, axes)
            want = _corner_sum(grid, table, axes)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(table).max()


@pytest.mark.parametrize("points", [(7, 11), (5, 9, 6)])
@pytest.mark.parametrize("cells,outside", [(0.5e-9, False), (2e-9, True), (0.5, True)])
def test_both_routes_refuse_the_same_coordinates(points, cells, outside):
    _, grid, table = _table_case(3, points)

    def raises(route, axes):
        try:
            route(grid, table, axes)
        except OutOfDomainError:
            return True
        return False

    for ax in range(len(points)):
        for side in (0, 1):
            axes = list(grid.axes)
            axes[ax] = np.append(grid.axes[ax], _edges(grid, ax, cells)[side])
            assert (raises(multilinear_interpolate, axes) == raises(_corner_sum, axes)
                    == outside)


def test_nan_coordinate_is_out_of_domain():
    _, grid, table = _table_case(5, (7, 11))
    with pytest.raises(OutOfDomainError):
        multilinear_interpolate(grid, table, [np.array([np.nan]), np.array([grid.lo[1]])])
    with pytest.raises(OutOfDomainError):
        multilinear_interpolate(grid, table, [grid.axes[0], np.append(grid.axes[1], np.nan)])


def test_interpolation_refuses_points_of_another_dimension():
    _, grid, table = _table_case(4, (5, 9, 6))
    with pytest.raises(ConfigError, match="2-dimensional points on a 3-dimensional table"):
        multilinear_interpolate(grid, table, grid.axes[:2])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_tabulated_trap_refuses_non_finite_values(value):
    g = bl.Grid.centered((4.0, 4.0), (5, 5))
    vals = np.ones(g.shape)
    vals[2, 3] = value
    with pytest.raises(ConfigError, match="finite"):
        bl.TrapSpec.tabulated(g, vals)


def test_quadrature_exactness():
    g = bl.Grid.box(1.0, 17, 3)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(1.0, rel=1e-12)
    g2 = bl.Grid.centered((3.0, 5.0, 7.0), (9, 11, 13))
    assert g2.integrate(np.ones(g2.shape)) == pytest.approx(105.0, rel=1e-12)


def test_scaling_examples():
    soft = bl.PairPotential.soft_sphere(10.0, 1.0)
    scaled = bl.scale_pair_potential(soft, 0.5)
    assert scaled.height == pytest.approx(40.0) and scaled.radius == pytest.approx(0.5)
    hard = bl.scale_pair_potential(bl.PairPotential.hard_sphere(1.0), 0.01)
    assert hard.core == pytest.approx(0.01)
    tab = bl.PairPotential.tabulated_radial([0.0, 0.5, 1.0], [2.0, 1.0, 0.0])
    same = bl.scale_pair_potential(tab, 1.0)
    assert same.r_table == tab.r_table and same.v_table == tab.v_table


@given(a=st.floats(0.05, 20), b=st.floats(0.05, 20))
@settings(max_examples=60, deadline=None)
def test_scaling_composition(a, b):
    base = bl.PairPotential.soft_sphere(3.0, 1.2)
    once = bl.scale_pair_potential(bl.scale_pair_potential(base, a), b)
    direct = bl.scale_pair_potential(base, a * b)
    r = np.linspace(0.0, 2.0 * a * b * 1.2, 64)
    np.testing.assert_allclose(once.evaluate(r), direct.evaluate(r), rtol=1e-12)


def test_scale_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        bl.scale_pair_potential(bl.PairPotential.soft_sphere(1.0, 1.0), 0.0)


def test_potential_validation():
    with pytest.raises(InvalidParameterError):
        bl.PairPotential.soft_sphere(-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        bl.PairPotential.tabulated_radial([0.0, 1.0], [1.0, 0.5])  # nonzero tail
    with pytest.raises(InvalidParameterError):
        bl.PairPotential.tabulated_radial([0.0, 1.0], [-1.0, 0.0])


def test_soft_sphere_transform_matches_integral():
    v = bl.PairPotential.soft_sphere(7.0, 0.8)
    integral = 4 * np.pi * 7.0 * 0.8**3 / 3        # int v d^3r
    assert v.fourier_radial(np.array([0.0]))[0] == pytest.approx(integral, rel=1e-12)
    # tabulated route agrees with the closed form on a dense table; the
    # table linearizes the sharp edge, so compare against the q=0 scale
    r = np.linspace(0, 0.8, 2001)
    tab = bl.PairPotential.tabulated_radial(r, np.where(r < 0.8, 7.0, 0.0))
    q = np.linspace(0.0, 12.0, 7)
    np.testing.assert_allclose(tab.fourier_radial(q), v.fourier_radial(q),
                               atol=3e-3 * integral)


def test_problem_config_strict_parsing():
    doc = {
        "trap": {"kind": "harmonic", "stiffness": [1, 1, 1]},
        "pair_potential": {"shape": "soft_sphere", "height": 1.0, "radius": 1.0},
        "grid": {"extent": [10, 10, 10], "points": [16, 16, 16]},
    }
    prob = problem_from_config(doc)
    assert prob.trap.kind == "harmonic" and prob.grid.points == (16, 16, 16)
    with pytest.raises(ConfigError):
        problem_from_config({**doc, "extra": 1})
    bad = json.loads(json.dumps(doc))
    bad["trap"]["typo"] = 2
    with pytest.raises(ConfigError):
        problem_from_config(bad)
    bad2 = json.loads(json.dumps(doc))
    bad2["pair_potential"] = {"shape": "soft_sphere", "height": 1.0}
    with pytest.raises(ConfigError):
        problem_from_config(bad2)


def test_box_grid_mismatch_rejected():
    trap = bl.TrapSpec.box(1.0, 3)
    with pytest.raises(ConfigError):
        trap.sample(bl.Grid.centered((2.0,) * 3, (8,) * 3))
    with pytest.raises(ConfigError, match="dimension"):
        trap.check_grid(bl.Grid.box(1.0, 8, 2))
    doc = {"trap": {"kind": "box", "side": 1.0}, "grid": {"extent": [2.0] * 3, "points": [8] * 3}}
    with pytest.raises(ConfigError, match=r"problem\.grid"):
        problem_from_config(doc)


@pytest.mark.parametrize("trap, grid", [
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)),
     bl.Grid((-7.1, -6.4, -8.0), (14.0, 13.0, 16.5), (34, 30, 36))),
    (bl.TrapSpec.harmonic((2.0, 0.5)), bl.Grid.centered((9.0, 11.0), (40, 27))),
    (bl.TrapSpec.box(1.5, 3), bl.Grid.box(1.5, 24)),
    (bl.TrapSpec.box(2.0, 2), bl.Grid.box(2.0, 31, 2)),
], ids=["harmonic3d", "harmonic2d", "box3d", "box2d"])
def test_sample_matches_the_loop_oracle(trap, grid):
    v = trap.sample(grid)
    assert np.array_equal(v, oracles.trap_sample(trap, grid))
    assert not np.signbit(v).any()


def test_tabulated_trap_has_no_axis_potential():
    grid = bl.Grid.centered((4.0,) * 3, (5,) * 3)
    with pytest.raises(InvalidParameterError):
        bl.TrapSpec.tabulated(grid, np.ones(grid.shape)).axis_potential(0, grid.axes[0])


@pytest.mark.parametrize("n", [7, 8])
def test_mirror_parity(n):
    x = np.linspace(-1.0, 1.0, n)
    y = np.linspace(-2.0, 2.0, 5)
    assert mirror_parity(np.add.outer(x**2, y), 0) == 0
    assert mirror_parity(np.multiply.outer(x**3, y**2), 0) == 1
    assert mirror_parity(np.multiply.outer(x**3, y**2), 1) == 0
    assert mirror_parity(np.add.outer(x**2, y), 1) is None
    assert mirror_parity(x + 0.1, 0) is None
    assert mirror_parity(x**2 * (1 + 1e-13 * x), 0) == 0       # within 1e-12 of max |f|
    centre = np.where(np.abs(x) < 1e-12, 0.5, x**3)              # odd but for the centre node
    assert mirror_parity(centre, 0) == (None if n % 2 else 1)
