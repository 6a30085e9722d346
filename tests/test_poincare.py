import gc
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import beclab as bl
from beclab import poincare
from beclab.cli import execute, load_config, run_poincare, validate
from beclab.errors import InvalidParameterError
from beclab.model import Grid
from beclab.poincare import (PoincareInstance, Region, _random_field, estimate_constant,
                             masked_gradient_sq, omega_x_mask, weighted_check,
                             weighted_estimate)

from . import oracles

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def box3():
    return Region.box(1.0, 32, 3)


@pytest.fixture(scope="module")
def ball3():
    return Region.ball(1.0, 32, 3)


def _smooth_field(region, seed=0):
    rng = np.random.default_rng(seed)
    mesh = region.grid.meshgrid()
    f = np.zeros(region.grid.shape)
    for _ in range(5):
        c = [lo + rng.random() * e for lo, e in zip(region.grid.lo, region.grid.extent)]
        rr = np.zeros(region.grid.shape)
        for ax, x in enumerate(mesh):
            rr = rr + (x - c[ax]) ** 2
        f += rng.normal() * np.exp(-rr / 0.08)
    return f


def test_zero_field_holds(box3):
    inst = PoincareInstance.build(box3, box3.mask.copy(), np.zeros(box3.grid.shape))
    res = weighted_check(inst, 2.0)
    assert res["holds"] and res["lhs"] == 0.0 and res["rhs"] == 0.0


def test_full_omega_reduces_to_classical(box3):
    f = _smooth_field(box3)
    inst = PoincareInstance.build(box3, box3.mask.copy(), f)
    res = weighted_check(inst, 1.0)
    grad = float(np.sum(masked_gradient_sq(inst.f, box3) * box3.grid.weights))
    assert res["lhs"] == pytest.approx(grad, rel=1e-12)


def test_empty_omega_unit_coefficient(box3):
    f = _smooth_field(box3, seed=1)
    inst = PoincareInstance.build(box3, np.zeros_like(box3.mask), f)
    res = weighted_check(inst, 1.0)
    grad = float(np.sum(masked_gradient_sq(inst.f, box3) * box3.grid.weights))
    assert res["lhs"] == pytest.approx(grad, rel=1e-12)


def test_mean_zero_enforced(box3, ball3):
    # int_K f dmu = 0 in the instance's own measure, unweighted and weighted
    for region in (box3, ball3):
        f = _smooth_field(region, seed=2) + 3.0
        w = 0.5 + sum(x**2 for x in region.grid.meshgrid())
        for weight in (None, w):
            inst = PoincareInstance.build(region, region.mask.copy(), f, weight=weight)
            mu = region.grid.weights * region.mask
            if weight is not None:
                mu = mu * w * region.volume / float(np.sum(mu * w))
            assert abs(float(np.sum(inst.f * mu))) < 1e-10


def test_neumann_eigenvalue_oracle():
    for (m, n) in [(3, 48), (2, 128)]:
        region = Region.box(1.0, n, m)
        mesh = region.grid.meshgrid()
        f = np.cos(np.pi * mesh[0]) * np.ones(region.grid.shape)
        inst = PoincareInstance.build(region, region.mask.copy(), f)
        res = weighted_check(inst, 1.0)
        c_star = res["rhs"] / res["lhs"]
        assert c_star == pytest.approx(1.0 / np.pi**2, rel=0.02)


def test_estimate_constant_self_consistent(ball3):
    est = estimate_constant(ball3, trials=60, seed=4)
    assert est.holds_all
    assert est.c_star > 0 and np.isfinite(est.c_star)
    assert "omega" in est.worst_trial or "trial" in est.worst_trial


def test_more_trials_never_shrink_constant(box3):
    few = estimate_constant(box3, trials=30, seed=9)
    more = estimate_constant(box3, trials=60, seed=9)
    assert more.c_star >= few.c_star - 1e-15


def test_complement_transfer_inequality(ball3):
    # moving mass out of Omega costs at most the moved gradient energy:
    # lhs(Omega2) + int_{Omega1 - Omega2} |grad f|^2 >= lhs(Omega1)
    rng = np.random.default_rng(21)
    f = _smooth_field(ball3, seed=21)
    omega1 = ball3.mask & (rng.random(ball3.grid.shape) < 0.8)
    omega2 = omega1 & (rng.random(ball3.grid.shape) < 0.6)
    i1 = PoincareInstance.build(ball3, omega1, f)
    i2 = PoincareInstance.build(ball3, omega2, f)
    r1 = weighted_check(i1, 1.0)
    r2 = weighted_check(i2, 1.0)
    grad = masked_gradient_sq(i1.f, ball3) * ball3.grid.weights
    moved = float(np.sum(grad * (omega1 & ~omega2)))
    assert r2["lhs"] + moved >= r1["lhs"] - 1e-12


def test_scale_covariance():
    # identical relative trials on a doubled region: constant scales by 4
    small = estimate_constant(Region.box(1.0, 32, 3), trials=40, seed=12)
    large = estimate_constant(Region.box(2.0, 32, 3), trials=40, seed=12)
    assert large.c_star / small.c_star == pytest.approx(4.0, rel=0.05)


def test_weighted_constant_weight_matches_plain(box3):
    f = _smooth_field(box3, seed=6)
    omega = box3.mask & (np.random.default_rng(7).random(box3.grid.shape) < 0.5)
    inst = PoincareInstance.build(box3, omega, f)
    plain = weighted_check(inst, 3.0)
    w = np.full(box3.grid.shape, 1.0 / box3.volume)
    weighted = weighted_check(PoincareInstance.build(box3, omega, f, weight=w), 3.0)
    assert weighted["lhs"] == pytest.approx(plain["lhs"], rel=1e-12)
    assert weighted["rhs"] == pytest.approx(plain["rhs"], rel=1e-12)


def test_weighted_rejects_vanishing_weight(box3):
    f = _smooth_field(box3, seed=8)
    w = np.zeros(box3.grid.shape)
    with pytest.raises(InvalidParameterError):
        weighted_check(PoincareInstance.build(box3, box3.mask.copy(), f, weight=w), 1.0)


def test_weighted_estimate_matches_per_trial_normalization(ball3):
    # one check, normalization and weighted measure per estimate gives the
    # same dict, bit for bit, as forming them from the raw weight on every trial
    # and projecting f once in that measure
    mesh = ball3.grid.meshgrid()
    w = 0.2 + np.exp(-sum((x - 0.1 * ax) ** 2 for ax, x in enumerate(mesh)) / 0.3)
    got = weighted_estimate(ball3, w, 0.4, trials=24, seed=5)
    want = oracles.per_trial_weighted_estimate(ball3, w, 0.4, trials=24, seed=5)
    assert got == want


def test_weighted_estimate_rejects_vanishing_weight(ball3):
    w = np.where(ball3.mask, 1.0, 0.0)
    w[tuple(n // 2 for n in ball3.grid.shape)] = 0.0
    with pytest.raises(InvalidParameterError):
        weighted_estimate(ball3, w, 0.4, trials=3, seed=1)


def test_weight_must_have_the_grid_shape(ball3):
    # a weight that only broadcasts to the grid is refused, not indexed
    w = 0.5 + ball3.grid.meshgrid()[0] ** 2
    assert w.shape != ball3.grid.shape
    with pytest.raises(InvalidParameterError, match="shape"):
        PoincareInstance.build(ball3, ball3.mask.copy(), _smooth_field(ball3, seed=8), weight=w)
    with pytest.raises(InvalidParameterError, match="shape"):
        weighted_estimate(ball3, w, 0.4, trials=3, seed=1)


def test_weight_is_read_on_k_only():
    # NaN off K neither trips the on-K check nor reaches the measure
    region = Region.ball(1.0, 16, 3)
    w = 1.0 + sum(x**2 for x in region.grid.meshgrid())
    want = weighted_estimate(region, w, 0.4, trials=5, seed=2)
    got = weighted_estimate(region, np.where(region.mask, w, np.nan), 0.4, trials=5, seed=2)
    assert got == want
    assert got["holds_all"] and np.isfinite(got["worst_trial"]["margin"])


def test_omega_x_mask_geometry(ball3):
    assert np.array_equal(omega_x_mask([], 0.2, ball3), ball3.mask)
    mask = omega_x_mask([(0.0, 0.0, 0.0)], 0.3, ball3)
    excluded = float(np.sum(ball3.grid.weights[ball3.mask & ~mask]))
    ball_vol = 4 * np.pi * 0.3**3 / 3
    cell = max(ball3.grid.spacing)
    shell = 4 * np.pi * 0.3**2 * 2 * cell
    assert abs(excluded - ball_vol) < shell
    with pytest.raises(InvalidParameterError):
        omega_x_mask([(0, 0, 0)], 0.5 * cell, ball3)


def test_omega_x_scaling_volume_bound():
    # excluded volume of n exclusion balls at the n^(-7/17) radius obeys
    # the n^(-4/17) roof (up to one cell layer) on the unit ball
    region = Region.ball(1.0, 48, 3)
    rng = np.random.default_rng(3)
    for n_pts in (4, 12, 30):
        radius = float(n_pts) ** (-7.0 / 17.0)
        pts = rng.uniform(-0.6, 0.6, size=(n_pts, 3))
        mask = omega_x_mask(pts, radius, region)
        excluded = float(np.sum(region.grid.weights[region.mask & ~mask]))
        roof = n_pts * (4 * np.pi / 3) * radius**3
        cell = max(region.grid.spacing)
        slack = n_pts * 4 * np.pi * radius**2 * 2 * cell
        assert excluded <= roof + slack
        assert roof == pytest.approx((4 * np.pi / 3) * float(n_pts) ** (-4.0 / 17.0))


def _support_region():
    # an irregular node set like localization's support: a thresholded
    # positive field with random holes, on a 48^3 box
    grid = Grid.centered((6.0,) * 3, (48,) * 3)
    rng = np.random.default_rng(17)
    rr = sum(x**2 for x in grid.meshgrid())
    mask = (np.exp(-rr / 4.0) > 1e-3) & (rng.random(grid.shape) < 0.9)
    return Region(grid=grid, mask=mask, kind="support")


def _node_set_region(extent, points, mask_of):
    """A region of the centred grid ``extent`` x ``points`` whose mask is
    ``mask_of(grid)``."""
    grid = Grid.centered(extent, points)
    return Region(grid=grid, mask=mask_of(grid), kind="support")


def _ellipsoid(semi_axes):
    return lambda grid: sum((x / a) ** 2 for x, a in zip(grid.meshgrid(), semi_axes)) <= 1.0


def _index_box(*ranges):
    def mask_of(grid):
        mask = np.zeros(grid.shape, dtype=bool)
        mask[tuple(slice(*r) for r in ranges)] = True
        return mask
    return mask_of


ORACLE_REGIONS = {
    "box32": lambda: Region.box(1.0, 32, 3),
    "ball32": lambda: Region.ball(1.0, 32, 3),
    "ball96_2d": lambda: Region.ball(1.0, 96, 2),
    "ball24": lambda: Region.ball(1.0, 24, 3),
    "support48": _support_region,
}

# more regions for the gradient stencil: anisotropic grids, and thin, tiny
# and ragged node sets
STENCIL_REGIONS = {
    **ORACLE_REGIONS,
    # anisotropic grids: a stride and a spacing of their own per axis, and
    # an ellipse or ellipsoid cut by some faces of the grid but not others
    "ellipsoid_9x33x14": lambda: _node_set_region((2.0, 3.0, 1.6), (9, 33, 14),
                                                  _ellipsoid((1.1, 1.4, 0.9))),
    "ellipse_40x7_2d": lambda: _node_set_region((3.0, 1.2), (40, 7), _ellipsoid((1.3, 0.7))),
    "one_node_thick": lambda: _node_set_region((1.0, 1.0, 1.0), (12, 10, 11),
                                               _index_box((2, 9), (4, 5), (1, 10))),
    "single_node": lambda: _node_set_region((1.0, 1.0, 1.0), (6, 7, 5),
                                            _index_box((3, 4), (2, 3), (4, 5))),
    "one_face": lambda: _node_set_region((1.0, 1.0, 1.0), (10, 12, 9),
                                         _index_box((0, 4), (3, 8), (2, 6))),
    "cells50": lambda: _node_set_region(
        (1.0, 1.6, 1.2), (11, 17, 13),
        lambda grid: np.random.default_rng(11).random(grid.shape) < 0.5),
}


def _oracle_fields(region):
    """Three smooth random fields, a rough one nonzero off K as well, and the
    first one restricted to K."""
    rng = np.random.default_rng(3)
    fields = [_random_field(rng, region) for _ in range(3)]
    fields.append(rng.normal(size=region.grid.shape))       # nonzero off K as well
    fields.append(np.where(region.mask, fields[0], 0.0))
    return fields


@pytest.mark.parametrize("name", STENCIL_REGIONS)
def test_masked_gradient_matches_full_grid_oracle(name):
    region = STENCIL_REGIONS[name]()
    for f in _oracle_fields(region):
        assert np.array_equal(masked_gradient_sq(f, region),
                              oracles.masked_gradient_sq(f, region))


@pytest.mark.parametrize("scale", [1e-160, 1e154])
@pytest.mark.parametrize("name", STENCIL_REGIONS)
def test_masked_gradient_matches_the_oracle_at_extreme_scales(name, scale):
    # near the ends of the float range, forms equal at unit scale, such as
    # (d[i] + d[i-1])^2 / 4, round (1e-160) or overflow (1e154) otherwise
    # than the oracle's 0.5 * (d[i] + d[i-1]); at 1e154 the largest squares
    # reach inf in the oracle too
    region = STENCIL_REGIONS[name]()
    for f in _oracle_fields(region):
        f = f * scale
        with np.errstate(over="ignore"):
            assert np.array_equal(masked_gradient_sq(f, region),
                                  oracles.masked_gradient_sq(f, region))


def _other_layouts(f):
    """f as a Fortran-ordered copy, as a view with permuted axes and as a
    strided slice of a larger array: the same values, none C-contiguous."""
    roll = tuple(range(1, f.ndim)) + (0,)
    permuted = np.ascontiguousarray(f.transpose(roll)).transpose(np.argsort(roll))
    every_other = (slice(None, None, 2),) * f.ndim
    big = np.zeros(tuple(2 * n for n in f.shape))
    big[every_other] = f
    return [np.asfortranarray(f), permuted, big[every_other]]


@pytest.mark.parametrize("name", STENCIL_REGIONS)
def test_masked_gradient_reads_any_memory_layout_and_leaves_f_alone(name):
    region = STENCIL_REGIONS[name]()
    f = np.random.default_rng(5).normal(size=region.grid.shape)
    ref = oracles.masked_gradient_sq(f, region)
    for g in [f] + _other_layouts(f):
        assert np.array_equal(g, f) and (g is f or not g.flags.c_contiguous)
        kept = g.copy()
        g.flags.writeable = False
        assert np.array_equal(masked_gradient_sq(g, region), ref)
        assert np.array_equal(g, kept)


def test_masked_gradient_refuses_a_field_off_the_grid_shape():
    region = STENCIL_REGIONS["ellipsoid_9x33x14"]()
    f = np.ones(region.grid.shape)
    # the flat array, the axes permuted (same size) and a node short
    for bad in (f.reshape(-1), f.transpose(1, 0, 2), f[:, :, :-1], np.float64(1.0)):
        with pytest.raises(InvalidParameterError, match="shape"):
            masked_gradient_sq(bad, region)


@pytest.mark.parametrize("name", STENCIL_REGIONS)
def test_masked_gradient_on_reused_scratch_matches_the_oracle(name):
    # NaN-filled scratch, then the same scratch for a second field: every
    # element the result reads is written first, whatever the buffers held
    region = STENCIL_REGIONS[name]()
    work = [np.full(region.mask.size, np.nan) for _ in range(4)]
    for f in _oracle_fields(region)[:2]:
        kept = f.copy()
        got = masked_gradient_sq(f, region, work=work)
        assert got.shape == region.grid.shape and any(np.shares_memory(got, w) for w in work)
        assert np.array_equal(got, oracles.masked_gradient_sq(f, region))
        assert np.array_equal(f, kept)


def test_masked_gradient_refuses_scratch_it_cannot_write_exactly():
    region = STENCIL_REGIONS["ellipsoid_9x33x14"]()
    f = np.ones(region.grid.shape)
    n = region.mask.size
    good = [np.empty(n) for _ in range(3)]
    read_only = np.empty(n)
    read_only.flags.writeable = False
    bad = {"short": np.empty(n - 1), "grid_shaped": np.empty(region.grid.shape),
           "float32": np.empty(n, dtype=np.float32), "strided": np.empty(2 * n)[::2],
           "read_only": read_only, "a_list": [0.0] * n}
    for w in bad.values():
        with pytest.raises(InvalidParameterError, match="work"):
            masked_gradient_sq(f, region, work=good + [w])
    # overlapping f or one another, or not four of them
    buf = np.empty(2 * n)
    for work in (good + [f.reshape(-1)], good + [good[0]],
                 [buf[:n], buf[n // 2:n // 2 + n]] + good[:2], good, good + good[:2]):
        with pytest.raises(InvalidParameterError, match="work"):
            masked_gradient_sq(f, region, work=work)


@pytest.mark.parametrize("name", STENCIL_REGIONS)
def test_masked_gradient_masks_f_in_place_as_its_first_buffer(name):
    # f itself as work[0]: no fifth buffer, the oracle's result to the bit,
    # and f left as f times the float indicator of K (signed zeros included)
    region = STENCIL_REGIONS[name]()
    n = region.mask.size
    for g in _oracle_fields(region):
        f = g.copy()
        work = [f] + [np.full(n, np.nan) for _ in range(3)]
        got = masked_gradient_sq(f, region, work=work)
        assert np.array_equal(got, oracles.masked_gradient_sq(g, region))
        indicator = region.mask.astype(float)
        assert np.array_equal(f.view(np.int64), (g * indicator).view(np.int64))


def test_masked_gradient_takes_f_as_a_buffer_only_first_and_writeable():
    # f may be work[0] itself; a view or copy of it there, f later in the
    # list, or an f that cannot be written in place is still refused
    region = STENCIL_REGIONS["ellipsoid_9x33x14"]()
    n = region.mask.size
    good = [np.empty(n) for _ in range(3)]
    f = np.ones(region.grid.shape)
    fortran, reversed_ = np.asfortranarray(f), f[:, :, ::-1]
    read_only = f.copy()
    read_only.flags.writeable = False
    cases = [(f, [f.reshape(-1)] + good), (f, [f.copy()] + good),
             (f, good[:1] + [f] + good[1:]), (f, [f, f.reshape(-1)] + good[:2]),
             (f, [f, good[0], good[0], good[1]]), (fortran, [fortran] + good),
             (reversed_, [reversed_] + good), (read_only, [read_only] + good)]
    for g, work in cases:
        with pytest.raises(InvalidParameterError, match="work"):
            masked_gradient_sq(g, region, work=work)
    assert np.all(f == 1.0)


def test_stencil_holds_read_only_edge_indices():
    counts = {}
    for points in (32, 64):
        region = Region.ball(1.0, points, 3)
        arrays = [a for axis in region._stencil for a in axis if isinstance(a, np.ndarray)]
        assert arrays
        assert all(a.dtype.kind == "i" and not a.flags.writeable for a in arrays)
        # less than one float array of the grid for all axes together
        assert sum(a.nbytes for a in arrays) < 8 * region.mask.size
        counts[points] = sum(a.size for a in arrays)
    # edge nodes grow with the surface, 4x per doubling, where the grid grows 8x
    assert counts[64] < 5 * counts[32]


@pytest.mark.parametrize("radius, points, dimension", [
    (1.0, 32, 3), (2.0, 24, 3), (0.7, 33, 3), (1.0, 96, 2), (3.0, 41, 2)])
def test_ball_mask_matches_the_loop_oracle(radius, points, dimension):
    region = Region.ball(radius, points, dimension)
    assert np.array_equal(region.mask, oracles.ball_mask(region.grid, radius))


@pytest.mark.parametrize("name", ["ball32", "box32", "ball96_2d"])
def test_random_field_matches_full_grid_oracle(name):
    region = ORACLE_REGIONS[name]()
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(5):
        f, ref = _random_field(rng, region), oracles.random_field(ref_rng, region)
        assert f.shape == region.grid.shape
        assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _assert_close(got, want, key=None):
    # floats at 1e-12 relative; integers, strings and booleans exact
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_close(got[key], want[key], key)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12), key
    else:
        assert type(got) is type(want) and got == want, key


@pytest.mark.parametrize("name", ["box32", "ball32", "ball96_2d"])
def test_estimates_match_the_h_route_oracle(name):
    # one projection in the check's own measure gives the constant, the worst
    # trial and the weighted block of the route with an h array and a
    # weighted re-projection
    region = ORACLE_REGIONS[name]()
    mesh = region.grid.meshgrid()
    w = 0.2 + np.exp(-sum((x - 0.1 * ax) ** 2 for ax, x in enumerate(mesh)) / 0.3)
    est = estimate_constant(region, trials=60, seed=20260810)
    c_star, worst = oracles.h_route_estimate_constant(region, trials=60, seed=20260810)
    _assert_close(est.c_star, c_star)
    _assert_close(est.worst_trial, worst)
    _assert_close(weighted_estimate(region, w, c_star, trials=60, seed=11),
                  oracles.h_route_weighted_estimate(region, w, c_star, trials=60, seed=11))


@pytest.mark.parametrize("name", ORACLE_REGIONS)
def test_omega_x_mask_matches_full_grid_oracle(name):
    region = ORACLE_REGIONS[name]()
    g = region.grid
    lo, hi = np.array(g.lo), np.array(g.lo) + np.array(g.extent)
    rng = np.random.default_rng(5)
    radius = 1.01 * max(g.spacing) + 0.05 * max(g.extent)
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(region.m, -1).T
    faces = np.array([np.where(np.arange(region.m) == ax, side, (lo + hi) / 2)
                      for ax in range(region.m) for side in (lo[ax], hi[ax])])
    cases = {
        "inside": lo + rng.random((40, region.m)) * (hi - lo),
        "straddling": lo - 0.3 * (hi - lo) + rng.random((60, region.m)) * 1.6 * (hi - lo),
        "corners": corners,
        "faces": faces,
        "far_outside": hi + 2.0 * radius + rng.random((5, region.m)),
        # inside the ball's bounding box on every axis, yet nearer no node
        "diagonal_miss": np.array([hi + 0.65 * radius, lo - 0.65 * radius]),
        "holes_120": lo + rng.random((120, region.m)) * (hi - lo),     # the most a trial draws
    }
    for label, pts in cases.items():
        got = omega_x_mask(pts, radius, region)
        assert np.array_equal(got, oracles.omega_x_mask(pts, radius, region)), label
    # balls that cover no node leave K as it is
    for label in ("far_outside", "diagonal_miss"):
        assert np.array_equal(omega_x_mask(cases[label], radius, region), region.mask)
    # a node at exactly the radius (offset along one axis only) stays in Omega
    centre = tuple(x[len(x) // 2] for x in g.axes)
    edge = g.axes[0][len(g.axes[0]) // 2 + 3] - centre[0]
    exact = omega_x_mask([centre], edge, region)
    assert np.array_equal(exact, oracles.omega_x_mask([centre], edge, region))
    node = (len(g.axes[0]) // 2 + 3,) + tuple(len(x) // 2 for x in g.axes[1:])
    assert exact[node] == region.mask[node]
    tiny = 1.01 * max(g.spacing)
    pts = np.concatenate([cases["straddling"], cases["corners"]])
    assert np.array_equal(omega_x_mask(pts, tiny, region),
                          oracles.omega_x_mask(pts, tiny, region))
    # a radius just above the spacing around nodes: each clears its axis neighbours
    nodes = np.array([[x[i] for x, i in zip(g.axes, rng.integers(0, g.points))]
                      for _ in range(120)])
    just = max(g.spacing) * (1 + 1e-9)
    assert np.array_equal(omega_x_mask(nodes, just, region),
                          oracles.omega_x_mask(nodes, just, region))


def test_poincare_keeps_no_state_between_regions(monkeypatch):
    # once the caller drops a region, neither it nor a measure of it lives on
    measures = []
    unit_measure = poincare.unit_measure

    def spy(*args):
        measure = unit_measure(*args)
        measures.append(weakref.ref(measure))
        return measure

    monkeypatch.setattr(poincare, "unit_measure", spy)
    region = Region.ball(1.0, 16, 3)
    w = 1.0 + sum(x**2 for x in region.grid.meshgrid())
    est = estimate_constant(region, trials=20, seed=2)
    weighted_estimate(region, w, est.c_star, trials=20, seed=2)
    # the one float grid the region caches is its node weights; the
    # projection multiplies by the boolean mask
    assert [name for name, value in vars(region).items()
            if isinstance(value, np.ndarray) and value.dtype == np.float64] == ["node_weights"]
    refs = [weakref.ref(region), weakref.ref(region.node_weights)] + measures
    assert len(refs) == 4
    del region, w
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_execute_memory_stays_flat_across_passes(tmp_path):
    # a cache that outlives its region grows the traced memory on every pass
    config = load_config(ROOT / "configs" / "poincare_ball3d.json", "poincare", {})
    after = []
    tracemalloc.start()
    try:
        for _ in range(6):
            execute(config, tmp_path / "out", force=True)
            gc.collect()
            after.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert abs(after[5] - after[1]) < 2**20, after


def test_region_mask_is_read_only():
    mask = np.ones((8, 8, 8), dtype=bool)
    region = Region(grid=Grid.centered((1.0,) * 3, (8,) * 3), mask=mask, kind="support")
    with pytest.raises(ValueError):
        region.mask[0, 0, 0] = False
    mask[0, 0, 0] = False           # the caller's array stays the caller's
    assert region.mask.all()
    for built in (Region.box(1.0, 8, 3), Region.ball(1.0, 8, 2)):
        with pytest.raises(ValueError):
            built.mask[...] = False
        copy = built.mask.copy()
        copy[...] = False
        assert built.mask.any()


def test_poincare_report_matches_pinned_values():
    config = load_config(ROOT / "configs" / "poincare_ball3d.json", "poincare", {})
    report, _ = run_poincare(validate(config))
    pinned = json.loads((Path(__file__).parent / "data" / "poincare_regression.json").read_text())
    got = dict(report["worst_trial"], C_star=report["C_star"], holds_all=report["holds_all"],
               trials=report["trials"])
    want = dict(pinned["worst_trial"], C_star=pinned["C_star"], holds_all=pinned["holds_all"],
                trials=pinned["trials"])
    _assert_close(got, want)


def test_weighted_check_rechecks_weight_of_another_region(box3, ball3):
    # a weight checked and normalized on the ball is checked again on the box,
    # where it vanishes outside the ball
    w = np.where(ball3.mask, 1.0, 0.0)
    checked = w * ball3.volume / float(np.sum(w * ball3.node_weights))
    f = _smooth_field(box3, seed=9)
    with pytest.raises(InvalidParameterError):
        weighted_check(PoincareInstance.build(box3, box3.mask.copy(), f, weight=checked), 1.0)
