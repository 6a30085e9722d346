"""Property testing of the subset-gradient Poincare inequality.

For a nice bounded region K in dimension m, a bounded weight h with
int_K h = 1, any subset Omega of K (no regularity or connectivity asked
of it), and any f with int_K f h = 0, there is a constant C with

    int_Omega |grad f|^2 + (|Omega^c|/|K|)^(2/m) int_K |grad f|^2
        >= (1/C) int_K |f|^2.

This module evaluates both sides on grid-discretized regions, estimates
the smallest validating constant over adversarial (f, Omega) ensembles,
and checks the weighted variant where all integrals carry a positive
weight bounded above and below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .model import Grid

_MEAN_ZERO_TOL = 1e-10


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


def project_mean_zero(f: np.ndarray, h: np.ndarray, region: Region,
                      weight: np.ndarray | None = None) -> np.ndarray:
    """Shift f so that int f h (dmu) = 0 over K, dmu carrying ``weight``."""
    w = region.node_weights if weight is None else region.node_weights * weight
    denom = float(np.sum(h * w))
    if denom <= 0:
        raise InvalidParameterError("weight h must have positive mass on K")
    out = f - float(np.sum(f * h * w)) / denom
    out[~region.mask] = 0.0
    return out


@dataclass(frozen=True)
class PoincareInstance:
    """One (region, h, Omega, f) tuple with the mean-zero constraint enforced."""

    region: Region
    h: np.ndarray
    omega: np.ndarray
    f: np.ndarray
    description: dict = field(default_factory=dict)

    def __post_init__(self):
        w = self.region.node_weights
        if np.any(self.omega & ~self.region.mask):
            raise ConfigError("Omega must be a subset of K", field="omega")
        hw = float(np.sum(self.h * w))
        if abs(hw - 1.0) > 1e-8:
            raise ConfigError(f"int_K h = {hw}, must be 1", field="h")
        fh = float(np.sum(self.f * self.h * w))
        if abs(fh) > _MEAN_ZERO_TOL:
            raise ConfigError(f"int_K f h = {fh}, must vanish", field="f")

    @classmethod
    def build(cls, region: Region, omega: np.ndarray, f: np.ndarray,
              h: np.ndarray | None = None, description: dict | None = None) -> "PoincareInstance":
        g = region.grid
        if h is None:
            h = np.where(region.mask, 1.0 / region.volume, 0.0)
        else:
            h = np.where(region.mask, h, 0.0)
            h = h / float(np.sum(h * g.weights))
        f = project_mean_zero(np.where(region.mask, f, 0.0), h, region)
        omega = omega & region.mask
        return cls(region=region, h=h, omega=omega, f=f,
                   description=description or {})


def _sides_arrays(region: Region, omega: np.ndarray, f: np.ndarray,
                  weight: np.ndarray | None = None):
    g = region.grid
    w = region.node_weights if weight is None else region.node_weights * weight
    grad2 = masked_gradient_sq(f, region)
    grad_k = float(np.sum(grad2 * w))
    grad_omega = float(np.sum(grad2 * w * omega))
    # set volumes are unweighted geometry, as in the inequality itself
    vol_k = region.volume
    vol_omega_c = float(np.sum(g.weights[region.mask & ~omega]))
    coeff = (vol_omega_c / vol_k) ** (2.0 / region.m)
    lhs = grad_omega + coeff * grad_k
    f2 = float(np.sum(f**2 * w))
    return lhs, f2


def _sides(inst: PoincareInstance, weight: np.ndarray | None = None):
    return _sides_arrays(inst.region, inst.omega, inst.f, weight=weight)


def check_inequality(inst: PoincareInstance, C: float) -> dict:
    """Evaluate both sides at constant C; degenerate f = 0 trivially holds."""
    if C <= 0:
        raise InvalidParameterError("constant C must be positive")
    lhs, f2 = _sides(inst)
    rhs = f2 / C
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs >= rhs - 1e-12)}


@dataclass(frozen=True)
class _UnitMeanWeight:
    """A weight checked positive and finite on ``region``'s K, scaled to unit mean there."""

    region: Region
    values: np.ndarray


def _unit_mean_weight(weight: np.ndarray, region: Region) -> _UnitMeanWeight:
    wvals = weight[region.mask]
    if wvals.min() <= 0 or not np.isfinite(wvals).all():
        raise InvalidParameterError("weight must be positive and finite on K")
    return _UnitMeanWeight(region, weight * region.volume
                           / float(np.sum(weight * region.node_weights)))


def weighted_check(inst: PoincareInstance, weight: np.ndarray | _UnitMeanWeight,
                   C: float) -> dict:
    """The same functional with all three integrals carrying ``weight``.

    The weight must be bounded above and below by positive constants on K;
    it is normalized to unit mean over K, and f is re-projected so its
    weighted h-mean vanishes.  ``weighted_estimate`` does the check and the
    normalization once and passes the resulting ``_UnitMeanWeight`` of the
    same region to every trial.
    """
    if C <= 0:
        raise InvalidParameterError("constant C must be positive")
    region = inst.region
    if isinstance(weight, _UnitMeanWeight) and weight.region is not region:
        weight = weight.values
    if not isinstance(weight, _UnitMeanWeight):
        weight = _unit_mean_weight(weight, region)
    f = project_mean_zero(inst.f.copy(), inst.h, region, weight=weight.values)
    lhs, f2 = _sides_arrays(region, inst.omega, f, weight=weight.values)
    rhs = f2 / C
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs >= rhs - 1e-12)}


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
    start = [a.argmax(1) for a in near]
    stop = [a.shape[1] - a[:, ::-1].argmax(1) for a in near]
    for k in np.flatnonzero(np.logical_and.reduce([a.any(1) for a in near])):
        box = tuple(slice(a[k], b[k]) for a, b in zip(start, stop))
        mask[box] &= reduce(np.add.outer, [s[k, b] for s, b in zip(sq, box)]) >= r2
    return mask


# ---------------------------------------------------------------------------
# adversarial ensemble
# ---------------------------------------------------------------------------

def _random_field(rng, region: Region) -> np.ndarray:
    """Smooth random field built from Gaussian bumps in relative coordinates.

    Each bump is separable: the outer product of one 1D Gaussian per axis.
    """
    g = region.grid
    diam = max(g.extent)
    f = 0.0
    for _ in range(rng.integers(3, 8)):
        center = [lo + rng.random() * e for lo, e in zip(g.lo, g.extent)]
        width = (0.08 + 0.25 * rng.random()) * diam
        amp = rng.normal()
        f += amp * reduce(np.multiply.outer, [np.exp(-(x - c) ** 2 / (2 * width**2))
                                              for x, c in zip(g.axes, center)])
    return f


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
        parity = reduce(np.add.outer, [np.arange(n) // block for n in g.points])
        return mask & (parity % 2 == 0), {"omega": "checkerboard", "block": block}
    if kind == "holes":
        count = int(rng.integers(1, 120))
        frac = 0.02 + 0.06 * rng.random()
        radius = max(frac * max(g.extent), 1.01 * max(g.spacing) + 1e-12)
        pts = np.array([[lo + rng.random() * e for lo, e in zip(g.lo, g.extent)]
                        for _ in range(count)])
        return omega_x_mask(pts, radius, region), {"omega": "holes", "count": count,
                                                   "radius": float(radius)}
    # omega_x: particle-like exclusion, radius labeled by the N^(-7/17) rule
    n_pts = int(rng.integers(2, 40))
    radius = max(float(n_pts) ** (-7.0 / 17.0) * max(g.extent) / 4.0,
                 1.01 * max(g.spacing) + 1e-12)
    pts = np.array([[lo + rng.random() * e for lo, e in zip(g.lo, g.extent)]
                    for _ in range(n_pts)])
    return omega_x_mask(pts, radius, region), {"omega": "omega_x", "points": n_pts,
                                               "radius": float(radius)}


@dataclass(frozen=True)
class ConstantEstimate:
    c_star: float
    trials: int
    worst_trial: dict
    holds_all: bool


def estimate_constant(region: Region, h: np.ndarray | None = None, trials: int = 200,
                      seed: int = 0) -> ConstantEstimate:
    """Smallest constant validating every observed (f, Omega) trial.

    Random smooth fields are paired with adversarial subsets (random cell
    unions, stripes, checkerboards, complements of many tiny balls,
    particle-style exclusions) and C* = max over trials of
    int f^2 / lhs.  The inequality then holds with C = C* for each trial
    by construction, which is re-asserted (``check_inequality``'s test, on
    each trial's stored sides) before returning.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    rng = np.random.default_rng(seed)
    c_star = 0.0
    worst = {}
    sides = []
    for t in range(trials):
        f = _random_field(rng, region)
        omega, desc = _random_omega(rng, region)
        inst = PoincareInstance.build(region, omega, f, h=h, description=desc)
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
    # check_inequality's predicate at C = C*, on the sides evaluated above
    holds = all(lhs >= f2 / c_star - 1e-12 for lhs, f2 in sides)
    return ConstantEstimate(c_star=float(c_star), trials=trials,
                            worst_trial=worst, holds_all=bool(holds))


def weighted_estimate(region: Region, weight: np.ndarray, c_star: float, trials: int = 200,
                      seed: int = 0) -> dict:
    """``weighted_check`` at C' = C* (max w / min w)^2 on K over random trials.

    ``c_star`` is the region's unweighted constant; the trials come from the
    ensemble of ``estimate_constant``, and the worst one has the smallest
    margin lhs - rhs.
    """
    wnorm = _unit_mean_weight(weight, region)
    wk = weight[region.mask]
    ratio = float(wk.max() / max(wk.min(), 1e-300))
    c_prime = c_star * ratio**2
    rng = np.random.default_rng(seed)
    worst = None
    holds = True
    for _ in range(trials):
        f = _random_field(rng, region)
        omega, desc = _random_omega(rng, region)
        res = weighted_check(PoincareInstance.build(region, omega, f, description=desc),
                             wnorm, c_prime)
        holds &= res["holds"]
        margin = res["lhs"] - res["rhs"]
        if worst is None or margin < worst["margin"]:
            worst = {"margin": margin, **desc}
    return {"C_prime": c_prime, "weight_ratio": ratio, "holds_all": bool(holds),
            "worst_trial": worst}
