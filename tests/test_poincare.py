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


ORACLE_REGIONS = {
    "box32": lambda: Region.box(1.0, 32, 3),
    "ball32": lambda: Region.ball(1.0, 32, 3),
    "ball96_2d": lambda: Region.ball(1.0, 96, 2),
    "ball24": lambda: Region.ball(1.0, 24, 3),
    "support48": _support_region,
}


@pytest.mark.parametrize("name", ORACLE_REGIONS)
def test_masked_gradient_matches_full_grid_oracle(name):
    region = ORACLE_REGIONS[name]()
    rng = np.random.default_rng(3)
    fields = [_random_field(rng, region) for _ in range(3)]
    fields.append(rng.normal(size=region.grid.shape))       # nonzero off K as well
    fields.append(np.where(region.mask, fields[0], 0.0))
    for f in fields:
        assert np.array_equal(masked_gradient_sq(f, region),
                              oracles.masked_gradient_sq(f, region))


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
    refs = [weakref.ref(region), weakref.ref(region.indicator)] + measures
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
