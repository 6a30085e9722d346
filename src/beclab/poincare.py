"""Property testing of the subset-gradient Poincare inequality.

For a nice bounded region K in dimension m, any subset Omega of K (no
regularity or connectivity asked of it), and any f with int_K f = 0,
there is a constant C with

    int_Omega |grad f|^2 + (|Omega^c|/|K|)^(2/m) int_K |grad f|^2
        >= (1/C) int_K |f|^2.

The mean-zero weight h of the general statement is taken as h = 1/|K|,
where it cancels from every formula.  This module evaluates both sides on
grid-discretized regions, estimates the smallest validating constant over
adversarial (f, Omega) ensembles, and checks the weighted variant where
all integrals carry a positive weight bounded above and below.  Either
way an instance carries its measure dmu and f is projected once so that
int_K f dmu = 0; one trial generator feeds both estimates, and one check
(``weighted_check``) evaluates both sides in the instance's measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .model import Grid

_MEAN_ZERO_TOL = 1e-10
# window nodes per batch of excluded balls in ``omega_x_mask`` (32 MiB of
# d^2), so that many balls about the grid's size are not all held at once
_WINDOW_NODES = 1 << 22


@dataclass(frozen=True)
class Region:
    """Box, ball or other node set in dimension 2 or 3, node-discretized.

    ``mask`` marks the nodes belonging to K inside the bounding grid; a
    node stands for the cell around it, so set volumes are quadrature
    sums of node weights.  Balls and boxes both satisfy the cone property
    the inequality needs.
    """

    grid: Grid
    mask: np.ndarray
    kind: str

    def __post_init__(self):
        # a private read-only copy: the cached arrays below derive from it
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        if self.grid.dimension not in (2, 3):
            raise ConfigError("region dimension must be 2 or 3", field="region")
        if self.mask.shape != self.grid.shape:
            raise ConfigError("mask shape must match the grid", field="region")
        if not self.mask.any():
            raise ConfigError("region contains no nodes", field="region")

    @property
    def m(self) -> int:
        return self.grid.dimension

    @cached_property
    def volume(self) -> float:
        return float(np.sum(self.grid.weights[self.mask]))

    @cached_property
    def indicator(self) -> np.ndarray:
        """1.0 on the nodes of K, 0.0 off K (read-only)."""
        ind = self.mask.astype(float)
        ind.flags.writeable = False
        return ind

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Quadrature weights of the nodes of K, zero off K (read-only)."""
        w = np.where(self.mask, self.grid.weights, 0.0)
        w.flags.writeable = False
        return w

    @cached_property
    def _stencil(self) -> tuple:
        """Per axis, the weights of the difference d[i] = (f[i+1] - f[i]) / h
        at node i (forward) and at node i + 1 (backward), on the n - 1
        difference positions.

        A difference exists where both its nodes lie in K; a node averages
        the ones it has (0.5/0.5 inside K, 1/0 or 0/1 at an edge of K, 0/0
        for a node with neither, which includes every node off K).
        """
        out = []
        for ax in range(self.m):
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            has = np.zeros((2,) + self.mask.shape)  # forward, backward difference exists
            has[0][lo] = has[1][hi] = self.mask[lo] & self.mask[hi]
            share = 1.0 / np.maximum(has.sum(axis=0), 1.0)
            out.append((lo, hi, np.ascontiguousarray((has[0] * share)[lo]),
                        np.ascontiguousarray((has[1] * share)[hi])))
        return tuple(out)

    @classmethod
    def box(cls, side, points: int, dimension: int = 3) -> "Region":
        sides = np.broadcast_to(np.atleast_1d(np.asarray(side, dtype=float)), (dimension,))
        grid = Grid((0.0,) * dimension, tuple(sides), (int(points),) * dimension)
        return cls(grid=grid, mask=np.ones(grid.shape, dtype=bool), kind="box")

    @classmethod
    def ball(cls, radius: float, points: int, dimension: int = 3) -> "Region":
        grid = Grid.centered((2.0 * radius,) * dimension, (int(points),) * dimension)
        rr = reduce(np.add.outer, [x**2 for x in grid.axes])
        return cls(grid=grid, mask=rr <= radius**2 * (1 + 1e-12), kind="ball")


def masked_gradient_sq(f: np.ndarray, region: Region) -> np.ndarray:
    """|grad f|^2 per node, differences restricted to nodes of K.

    Central differences where both axis neighbors lie in K, one-sided at
    region edges, zero off K (f must be finite everywhere); the half-order
    boundary error this carries is covered by the module tolerances.
    Each axis works in place on its two arrays, d and df, with the
    arithmetic df[i] = fwd[i] d[i] + bwd[i] d[i-1], squared.
    """
    out = np.zeros(region.grid.shape)
    for ax, ((lo, hi, fwd, bwd), h) in enumerate(zip(region._stencil, region.grid.spacing)):
        d = np.diff(f, axis=ax)
        d /= h
        df = np.zeros(region.grid.shape)
        np.multiply(fwd, d, out=df[lo])
        d *= bwd
        df[hi] += d
        df *= df
        out += df
    return out


def unit_measure(region: Region, weight: np.ndarray | None = None) -> np.ndarray:
    """The node weights of dmu on K: ``region.node_weights``, or those times
    ``weight`` (an array of the grid's shape, read on K only), checked
    positive and finite on K and scaled to unit mean there."""
    if weight is None:
        return region.node_weights
    if np.shape(weight) != region.grid.shape:
        raise InvalidParameterError(f"weight must have the grid's shape {region.grid.shape}")
    weight = np.where(region.mask, weight, 0.0)
    wvals = weight[region.mask]
    if wvals.min() <= 0 or not np.isfinite(wvals).all():
        raise InvalidParameterError("weight must be positive and finite on K")
    unit = weight * region.volume / float(np.sum(weight * region.node_weights))
    return region.node_weights * unit


def project_mean_zero(f: np.ndarray, region: Region, measure: np.ndarray) -> np.ndarray:
    """f on K shifted so that int_K f dmu = 0, zero off K (f finite)."""
    out = f * region.indicator
    out -= float(np.vdot(out, measure)) / float(np.sum(measure))
    out *= region.indicator
    return out


@dataclass(frozen=True)
class PoincareInstance:
    """One (region, Omega, f) tuple in the measure dmu, with int_K f dmu = 0."""

    region: Region
    omega: np.ndarray
    f: np.ndarray
    measure: np.ndarray
    description: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.omega & ~self.region.mask):
            raise ConfigError("Omega must be a subset of K", field="omega")
        mean = float(np.vdot(self.f, self.measure)) / self.region.volume
        if abs(mean) > _MEAN_ZERO_TOL:
            raise ConfigError(f"int_K f dmu / |K| = {mean}, must vanish", field="f")

    @classmethod
    def build(cls, region: Region, omega: np.ndarray, f: np.ndarray,
              weight: np.ndarray | None = None,
              description: dict | None = None) -> "PoincareInstance":
        """f restricted to K and projected once in ``unit_measure(region, weight)``."""
        measure = unit_measure(region, weight)
        return cls(region=region, omega=omega & region.mask,
                   f=project_mean_zero(f, region, measure), measure=measure,
                   description=description or {})


def _sides(inst: PoincareInstance) -> tuple[float, float]:
    """The left side and int_K f^2 dmu, both in the instance's measure."""
    region, w, omega = inst.region, inst.measure, inst.omega
    g = masked_gradient_sq(inst.f, region)
    g *= w
    grad_k = float(np.sum(g))
    g *= omega
    grad_omega = float(np.sum(g))
    # set volumes are unweighted geometry, as in the inequality itself; K
    # minus Omega is K xor Omega, since Omega lies in K
    vol_omega_c = float(np.sum(region.grid.weights[region.mask ^ omega]))
    coeff = (vol_omega_c / region.volume) ** (2.0 / region.m)
    lhs = grad_omega + coeff * grad_k
    np.multiply(inst.f, inst.f, out=g)
    g *= w
    f2 = float(np.sum(g))
    return lhs, f2


def weighted_check(inst: PoincareInstance, C: float) -> dict:
    """Both sides at constant C in the instance's measure (the unweighted one
    or a weight's, see ``PoincareInstance.build``); f = 0 trivially holds."""
    if C <= 0:
        raise InvalidParameterError("constant C must be positive")
    lhs, f2 = _sides(inst)
    rhs = f2 / C
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs >= rhs - 1e-12)}


def _row_mesh(parts):
    """The (rows, n_ax) arrays ``parts`` as an open mesh per row: part ax
    viewed with shape (rows, 1, ..., n_ax, ..., 1)."""
    return [p.reshape((len(p),) + (1,) * ax + (-1,) + (1,) * (len(parts) - 1 - ax))
            for ax, p in enumerate(parts)]


def omega_x_mask(points, radius: float, region: Region) -> np.ndarray:
    """Nodes of K at distance >= radius from every point of X.

    An empty X keeps all of K.  The radius must exceed the grid spacing
    so the excluded balls are actually resolved.
    """
    g = region.grid
    if radius <= max(g.spacing):
        raise InvalidParameterError("radius must exceed the grid spacing")
    mask = region.mask.copy()
    pts = np.asarray(points, dtype=float).reshape(-1, region.m)
    r2 = radius**2
    # squared offsets per axis (points x nodes); off the bounding box of its
    # ball one axis term alone reaches r2, so a point changes only its box
    sq = [(x - pts[:, [ax]]) ** 2 for ax, x in enumerate(g.axes)]
    near = [s < r2 for s in sq]
    hit = np.logical_and.reduce([a.any(1) for a in near])
    if not hit.any():
        return mask
    # each box widened to a common window per axis (shifted to stay on the
    # grid): per point the window's node indices and squared offsets
    start = [a[hit].argmax(1) for a in near]
    stop = [a.shape[1] - a[hit, ::-1].argmax(1) for a in near]
    width = [int((e - b).max()) for b, e in zip(start, stop)]
    idx = [np.minimum(b, n - w)[:, None] + np.arange(w)
           for b, n, w in zip(start, g.points, width)]
    sq = [np.take_along_axis(s[hit], i, axis=1) for s, i in zip(sq, idx)]
    # per point the window's squared distances, summed in the order of
    # reduce(np.add.outer, ...), and flat node indices; in batches of points,
    # then one scatter of the nodes inside a ball
    step = max(1, _WINDOW_NODES // int(np.prod(width)))
    out = mask.reshape(-1)
    for b in range(0, len(idx[0]), step):
        d2 = reduce(np.add, _row_mesh([s[b:b + step] for s in sq]))
        at = np.ravel_multi_index(_row_mesh([i[b:b + step] for i in idx]), g.shape)
        out[at[d2 < r2]] = False
    return mask


# ---------------------------------------------------------------------------
# adversarial ensemble
# ---------------------------------------------------------------------------

def _random_field(rng, region: Region) -> np.ndarray:
    """Smooth random field built from Gaussian bumps in relative coordinates.

    Each bump is separable, one 1D Gaussian per axis, so the field is a CP
    tensor of rank <= 7: the amplitude-scaled first-axis factors times the
    middle axes' factors row by row (Khatri-Rao), one GEMM with the last
    axis's factors.
    """
    g = region.grid
    diam = max(g.extent)
    draws = []                      # per bump: centre, width, amplitude
    for _ in range(rng.integers(3, 8)):
        center = [lo + rng.random() * e for lo, e in zip(g.lo, g.extent)]
        width = (0.08 + 0.25 * rng.random()) * diam
        draws.append((*center, width, rng.normal()))
    *centers, width, amp = np.array(draws).T
    first, *middle, last = (np.exp(-(x - c[:, None]) ** 2 / (2 * width[:, None] ** 2))
                            for x, c in zip(g.axes, centers))     # (bumps, points)
    rows = first * amp[:, None]
    for fac in middle:
        rows = (rows[:, :, None] * fac[:, None, :]).reshape(len(amp), -1)
    return (rows.T @ last).reshape(g.shape)


def _random_points(rng, grid: Grid, count: int) -> np.ndarray:
    """``count`` uniform points of the grid's box, drawn point by point (the
    draws of a loop over the points and, within one, over the axes)."""
    return np.array(grid.lo) + rng.random((count, grid.dimension)) * np.array(grid.extent)


def _random_omega(rng, region: Region) -> tuple[np.ndarray, dict]:
    g = region.grid
    kind = rng.choice(["cells", "stripes", "checkerboard", "holes", "omega_x", "full", "empty"],
                      p=[0.22, 0.16, 0.16, 0.16, 0.16, 0.07, 0.07])
    mask = region.mask
    if kind == "full":
        return mask.copy(), {"omega": "full"}
    if kind == "empty":
        return np.zeros_like(mask), {"omega": "empty"}
    if kind == "cells":
        p = 0.1 + 0.8 * rng.random()
        keep = rng.random(g.shape) < p
        return mask & keep, {"omega": "cells", "keep_fraction": float(p)}
    if kind == "stripes":
        ax = int(rng.integers(0, region.m))
        period = max(2, int(rng.integers(2, max(3, g.points[ax] // 4))))
        duty = max(1, int(rng.integers(1, period)))
        idx = np.arange(g.points[ax]) % period < duty
        shape = [1] * region.m
        shape[ax] = g.points[ax]
        return mask & idx.reshape(shape), {"omega": "stripes", "axis": ax,
                                           "period": period, "duty": duty}
    if kind == "checkerboard":
        block = max(1, int(rng.integers(1, max(2, min(g.points) // 4))))
        odd = reduce(np.logical_xor.outer, [np.arange(n) // block % 2 == 1 for n in g.points])
        return mask & ~odd, {"omega": "checkerboard", "block": block}
    if kind == "holes":
        count = int(rng.integers(1, 120))
        frac = 0.02 + 0.06 * rng.random()
        radius = max(frac * max(g.extent), 1.01 * max(g.spacing) + 1e-12)
        pts = _random_points(rng, g, count)
        return omega_x_mask(pts, radius, region), {"omega": "holes", "count": count,
                                                   "radius": float(radius)}
    # omega_x: particle-like exclusion, radius labeled by the N^(-7/17) rule
    n_pts = int(rng.integers(2, 40))
    radius = max(float(n_pts) ** (-7.0 / 17.0) * max(g.extent) / 4.0,
                 1.01 * max(g.spacing) + 1e-12)
    pts = _random_points(rng, g, n_pts)
    return omega_x_mask(pts, radius, region), {"omega": "omega_x", "points": n_pts,
                                               "radius": float(radius)}


def _ensemble(region: Region, trials: int, seed: int, measure: np.ndarray):
    """The adversarial trials of both estimates: per trial a random field,
    then a random Omega, projected in ``measure``."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = _random_field(rng, region)
        omega, desc = _random_omega(rng, region)
        yield PoincareInstance(region=region, omega=omega, measure=measure,
                               f=project_mean_zero(f, region, measure), description=desc)


@dataclass(frozen=True)
class ConstantEstimate:
    c_star: float
    trials: int
    worst_trial: dict
    holds_all: bool


def estimate_constant(region: Region, trials: int = 200, seed: int = 0) -> ConstantEstimate:
    """Smallest constant validating every observed (f, Omega) trial.

    Random smooth fields are paired with adversarial subsets (random cell
    unions, stripes, checkerboards, complements of many tiny balls,
    particle-style exclusions) and C* = max over trials of
    int f^2 / lhs.  The inequality then holds with C = C* for each trial
    by construction, which is re-asserted (``weighted_check``'s test, on
    each trial's stored sides) before returning.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    c_star = 0.0
    worst = {}
    sides = []
    for t, inst in enumerate(_ensemble(region, trials, seed, unit_measure(region))):
        lhs, f2 = _sides(inst)
        if f2 < 1e-18 or lhs <= 0:
            continue
        ratio = f2 / lhs
        sides.append((lhs, f2))
        if ratio > c_star:
            c_star = ratio
            worst = dict(inst.description, trial=t, ratio=float(ratio))
    if c_star <= 0:
        raise InvalidParameterError("all trials degenerated; enlarge the ensemble")
    # weighted_check's predicate at C = C*, on the sides evaluated above
    holds = all(lhs >= f2 / c_star - 1e-12 for lhs, f2 in sides)
    return ConstantEstimate(c_star=float(c_star), trials=trials,
                            worst_trial=worst, holds_all=bool(holds))


def weighted_estimate(region: Region, weight: np.ndarray, c_star: float, trials: int = 200,
                      seed: int = 0) -> dict:
    """``weighted_check`` at C' = C* (max w / min w)^2 on K over random trials.

    ``c_star`` is the region's unweighted constant; the trials come from the
    ensemble of ``estimate_constant``, here in the weight's measure, and the
    worst one has the smallest margin lhs - rhs.
    """
    measure = unit_measure(region, weight)
    wk = weight[region.mask]
    ratio = float(wk.max() / max(wk.min(), 1e-300))
    c_prime = c_star * ratio**2
    worst = None
    holds = True
    for inst in _ensemble(region, trials, seed, measure):
        res = weighted_check(inst, c_prime)
        holds &= res["holds"]
        margin = res["lhs"] - res["rhs"]
        if worst is None or margin < worst["margin"]:
            worst = {"margin": margin, **inst.description}
    return {"C_prime": c_prime, "weight_ratio": ratio, "holds_all": bool(holds),
            "worst_trial": worst}
