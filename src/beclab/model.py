"""Problem definitions shared by every solver: traps, pair potentials, grids.

Units: hbar^2/2m = 1 throughout, so energies are inverse lengths squared.
All types are immutable after construction; every operation here is a pure
function, safe to share across parallel workers.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import CapacityError, ConfigError, InvalidParameterError, OutOfDomainError

# Largest grid a config may ask for: 2^23 nodes (about 203^3, 64 MiB per
# field), far above the 96^3 committed grids and refused before allocation.
MAX_GRID_NODES = 2**23

# Largest count of random draws a config may ask for, Poincare trials and
# localization samples alike: far above the committed 250 trials and 64
# samples, and refused before any work starts.
MAX_SAMPLES = 100_000

# Largest many-body truncation a config may ask for: M = C(q+3, 3) modes give
# a pair matrix of (M(M+1)/2)^2 doubles, 3.2 MB at the committed q = 4 and
# 102 MB at q = 6.
MAX_QUANTA = 6

# Largest grid interior (the nodes off the boundary) on which a tabulated
# trap's modes are a sparse eigensolve: a 75^3 grid's 73^3 fits, 76^3's not.
MAX_EIGENSOLVE_NODES = 400_000

# Ceiling on solver.dimension_cap and on N (M >= 2 modes give more than N
# states; this bounds M = 1), and the one cap FockBasis.build checks, on the
# full count: a Fock build holds 0.4-0.8 KB a state (measured for M = 20 to
# 84), so 10^6 states bound it near 0.4-0.8 GB.
MAX_FOCK_DIMENSION = 1_000_000
FOCK_DIMENSION_CAP = 200_000      # the default solver.dimension_cap


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid with trapezoidal quadrature.

    Nodes along axis ``i`` run from ``lo[i]`` to ``lo[i] + extent[i]``
    inclusive, so ``spacing[i] = extent[i] / (points[i] - 1)``.  Trapezoid
    weights (half weight on the end nodes) make the quadrature of the
    constant 1 equal to the domain volume exactly.
    """

    lo: tuple[float, ...]
    extent: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lo) == len(self.extent) == len(self.points)):
            raise ConfigError("lo, extent, points must have equal length", field="grid")
        if self.dimension not in (1, 2, 3):
            raise ConfigError(f"unsupported dimension {self.dimension}", field="grid")
        for e, n in zip(self.extent, self.points):
            if e <= 0:
                raise ConfigError("extent must be positive", field="grid.extent")
            if n < 4:
                raise ConfigError("need at least 4 points per axis", field="grid.points")

    @property
    def dimension(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / (n - 1) for e, n in zip(self.extent, self.points))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            lo + np.arange(n) * (e / (n - 1))
            for lo, e, n in zip(self.lo, self.extent, self.points)
        )

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        return tuple(trapezoid_weights(n, h) for h, n in zip(self.spacing, self.points))

    @cached_property
    def weights(self) -> np.ndarray:
        """Full tensor quadrature weight array (same shape as the grid)."""
        return reduce(np.multiply.outer, self.axis_weights)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    @property
    def min_weight(self) -> float:
        """The smallest node weight, a corner's."""
        return math.prod(h / 2 for h in self.spacing)

    @property
    def kinetic_scale(self) -> float:
        """The largest over the axes of the sum of the squared interior sine
        wavenumbers (pi k / extent)^2, which bounds every sum the axis's
        spectral kinetic matrix forms."""
        return max((math.pi / e) * (math.pi / e) * (n - 2) * (n - 1) * (2 * n - 3) / 6
                   for e, n in zip(self.extent, self.points))

    def check_sizes(self, field: str):
        """Refuse a grid whose spacing, smallest node weight, volume or
        kinetic scale is not a finite positive float (a ConfigError naming
        ``field``): an extent near either end of the float range underflows
        them to zero or overflows them, and the quadrature sums and spectral
        matrices built from them with them."""
        sizes = {"spacing": min(self.spacing), "node weight": self.min_weight,
                 "volume": math.prod(self.extent), "kinetic scale": self.kinetic_scale}
        for name, value in sizes.items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"grid {name} {value!r} is not a finite positive float",
                                  field=field)

    def check_equal_spacing(self, field: str):
        """Refuse a grid whose axes have different spacings: the interaction
        tensor's transforms take one spacing."""
        h = self.spacing
        if max(h) - min(h) > 1e-9 * max(h):
            raise ConfigError("interaction grids must have equal spacing per axis", field=field)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values * self.weights))

    @classmethod
    def centered(cls, extent, points) -> "Grid":
        extent = tuple(float(e) for e in np.atleast_1d(extent))
        points = tuple(int(n) for n in np.atleast_1d(points))
        return cls(tuple(-e / 2 for e in extent), extent, points)

    @classmethod
    def box(cls, side: float, points: int, dimension: int = 3) -> "Grid":
        return cls((0.0,) * dimension, (float(side),) * dimension, (int(points),) * dimension)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of n nodes spaced h: h, and h/2 on the end nodes."""
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def mirror_parity(f: np.ndarray, axis: int) -> int | None:
    """0 when f is even under the mirror along ``axis``, 1 when odd, else None.

    The lower half of the axis (with the middle plane of an odd count) is
    compared with the mirrored upper half in one half-size array: the
    differences and sums of the other half are the same numbers, negated
    or not, so the maxima are those of the whole array.
    """
    tol = 1e-12 * max(f.max(), -f.min())
    half = (slice(None),) * axis + (slice(0, (f.shape[axis] + 1) // 2),)
    lower, mirror = f[half], np.flip(f, axis=axis)[half]
    cmp = np.subtract(lower, mirror)
    if np.abs(cmp, out=cmp).max() <= tol:
        return 0
    np.add(lower, mirror, out=cmp)
    if np.abs(cmp, out=cmp).max() <= tol:
        return 1
    return None


def check_buffer(buf, shape: tuple, dtype, name: str):
    """Refuse a caller's output array that a function could not write its
    result into exactly: of another shape or dtype, not C-contiguous (a
    reshape would copy it), or read-only."""
    if not (isinstance(buf, np.ndarray) and buf.shape == shape and buf.dtype == dtype
            and buf.flags.c_contiguous and buf.flags.writeable):
        raise InvalidParameterError(
            f"{name} must be a writeable C-contiguous {np.dtype(dtype)} array of shape {shape}")


def axis_apply(arr: np.ndarray, mats, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply axis ax of ``arr`` by the (out, in) matrix mats[ax], for
    every axis; the matrices may be rectangular or complex.

    Each axis is one batched matmul on a reshaped view, so no axis is
    moved and, for a C-ordered input, only the products are allocated.  The
    last axis is batched over the one before it: as one tall GEMM it would
    make BLAS pack the whole array into its own buffer, which stays
    resident (6.6 MiB more peak RSS on 94^3).  ``out``, a C-contiguous
    array of the result's shape and dtype, receives the last product
    (the same numbers), and is returned.
    """
    shape = list(arr.shape)
    for ax, M in enumerate(mats):
        n, post = shape[ax], math.prod(shape[ax + 1:])
        shape[ax] = len(M)
        dest = None
        if out is not None and ax == len(mats) - 1:
            check_buffer(out, tuple(shape), np.result_type(arr, M), "out")
            dest = out.reshape((-1, len(M), post) if post > 1
                               else (-1, shape[ax - 1] if ax else 1, len(M)))
        if post > 1:
            arr = np.matmul(M, arr.reshape(-1, n, post), out=dest)
        else:
            arr = np.matmul(arr.reshape(-1, shape[ax - 1] if ax else 1, n), M.T, out=dest)
    return arr.reshape(shape) if out is None else out


# ---------------------------------------------------------------------------
# traps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrapSpec:
    """External trapping potential.

    kind 'harmonic': V(r) = sum_i stiffness[i] r_i^2, confining.
    kind 'box': V = 0 inside a cube of the given side with hard walls,
    treated as a Dirichlet boundary on a matching grid.
    kind 'tabulated': multilinear interpolation of samples on ``table_grid``.
    """

    kind: str
    dimension: int
    stiffness: tuple[float, ...] | None = None
    side: float | None = None
    table_grid: Grid | None = None
    table_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dimension not in (2, 3):
            # the key the dimension comes from: one stiffness per axis, the
            # table grid's points, or the box's own dimension
            source = {"harmonic": "stiffness", "tabulated": "points"}.get(self.kind, "dimension")
            raise ConfigError("trap dimension must be 2 or 3", field=f"trap.{source}")
        if self.kind == "harmonic":
            if self.stiffness is None or len(self.stiffness) != self.dimension:
                raise ConfigError("harmonic trap needs one stiffness per axis", field="trap.stiffness")
            if any(k <= 0 for k in self.stiffness):
                raise ConfigError("stiffness must be positive (confining)", field="trap.stiffness")
        elif self.kind == "box":
            if self.side is None or self.side <= 0:
                raise ConfigError("box trap needs a positive side", field="trap.side")
        elif self.kind == "tabulated":
            if self.table_grid is None or self.table_values is None:
                raise ConfigError("tabulated trap needs grid and values", field="trap")
            if len(self.table_values) != int(np.prod(self.table_grid.points)):
                raise ConfigError("table size does not match its grid", field="trap.values")
            if not np.isfinite(self._table).all():
                raise ConfigError("table values must be finite", field="trap.values")
        else:
            raise ConfigError(f"unknown trap kind {self.kind!r}", field="trap.kind")

    @classmethod
    def harmonic(cls, stiffness=(1.0, 1.0, 1.0)) -> "TrapSpec":
        stiffness = tuple(float(k) for k in np.atleast_1d(stiffness))
        return cls(kind="harmonic", dimension=len(stiffness), stiffness=stiffness)

    @classmethod
    def box(cls, side: float = 1.0, dimension: int = 3) -> "TrapSpec":
        return cls(kind="box", dimension=dimension, side=float(side))

    @classmethod
    def tabulated(cls, grid: Grid, values) -> "TrapSpec":
        values = np.asarray(values, dtype=float).ravel()
        return cls(kind="tabulated", dimension=grid.dimension,
                   table_grid=grid, table_values=tuple(values))

    @cached_property
    def _table(self) -> np.ndarray | None:
        if self.kind != "tabulated":
            return None
        return np.asarray(self.table_values, dtype=float).reshape(self.table_grid.points)

    def check_grid(self, grid: Grid, where: str = "grid"):
        """Refuse a grid of another dimension; for the box kind, one that is
        not [0, side] on every axis (the walls are the grid boundary); for
        the tabulated kind, one with a node, boundary included, outside the
        table (an OutOfDomainError, the refusal ``sample`` would raise)."""
        if grid.dimension != self.dimension:
            raise ConfigError("grid dimension does not match the trap", field=where)
        if self.kind == "box" and any(abs(lo) > 1e-12 or abs(e - self.side) > 1e-12
                                      for lo, e in zip(grid.lo, grid.extent)):
            raise ConfigError("box trap requires a [0, side] grid on every axis", field=where)
        if self.kind == "tabulated":        # the axes are increasing: their ends decide
            multilinear_interpolate(self.table_grid, self._table,
                                    [x[[0, -1]] for x in grid.axes], field=where)

    def check_eigensolve(self, grid: Grid, where: str = "grid"):
        """Refuse, for the tabulated kind, a grid whose interior holds more
        than ``MAX_EIGENSOLVE_NODES`` nodes, where its modes are solved for
        (a CapacityError naming ``where``)."""
        nodes = math.prod(n - 2 for n in grid.points)
        if self.kind == "tabulated" and nodes > MAX_EIGENSOLVE_NODES:
            raise CapacityError(f"tabulated-trap eigensolve on {nodes} interior nodes, above "
                                f"the cap {MAX_EIGENSOLVE_NODES}", field=where)

    def check_scale(self, grid: Grid, where: str = "grid"):
        """Refuse a grid on which the energy scale (kinetic scale + the peak
        of |V| on the nodes) / (smallest node weight) is not a finite float
        (a ConfigError naming ``where``).  A field of unit norm reaches
        1 / (smallest node weight) in square at a node, so past this scale
        the potential, the mean-field energy and its residual overflow.  The
        peak is bounded by the sum of the per-axis peaks, or by the table's
        peak (interpolation stays within the table's range)."""
        if self.kind == "tabulated":
            peak = float(np.abs(self._table).max())
        else:
            with np.errstate(over="ignore"):
                peak = sum(float(np.abs(self.axis_potential(ax, x)).max())
                           for ax, x in enumerate(grid.axes))
        scale = (grid.kinetic_scale + peak) / grid.min_weight
        if not scale < math.inf:
            raise ConfigError(f"energy scale {scale!r} of the trap on this grid is not a "
                              "finite float", field=where)

    def axis_potential(self, ax: int, x) -> np.ndarray:
        """The potential's term along axis ``ax`` at coordinates ``x``: k x^2
        for the harmonic kind, zero inside the box.  A tabulated trap has no
        such terms.  Sampling (``sample_axes``), ``check_scale`` and the mode
        basis's potential matrix and energy check all read V through it."""
        if self.kind == "harmonic":
            return self.stiffness[ax] * x**2
        if self.kind == "box":
            return np.zeros(np.shape(x))
        raise InvalidParameterError("a tabulated trap is not a sum over axes")

    def sample(self, grid: Grid) -> np.ndarray:
        """Potential sampled on every node of ``grid`` (see ``check_grid``).

        For the box kind the walls live on the grid boundary (Dirichlet),
        so the sampled field is identically zero.
        """
        self.check_grid(grid)
        return self.sample_axes(grid.axes)

    def sample_axes(self, axes) -> np.ndarray:
        """Potential on the tensor grid of the per-axis coordinates ``axes``.

        Every route is elementwise per node, so the nodes of a sub-grid (the
        interior nodes, ``x[1:-1]`` per axis) get the same bits as in the
        sample of the whole grid.  Unlike ``sample`` it checks no grid.
        """
        if self.kind == "tabulated":
            return multilinear_interpolate(self.table_grid, self._table, axes, field="trap")
        return reduce(np.add.outer, [self.axis_potential(ax, x) for ax, x in enumerate(axes)])


def multilinear_interpolate(table_grid: Grid, table: np.ndarray, axes,
                            field: str = "table") -> np.ndarray:
    """Multilinear interpolation of a grid-sampled field on the tensor grid of
    the per-axis coordinates ``axes`` (``grid.axes``, or one-element arrays
    for one point): axis by axis, the two table slabs around each coordinate
    are weighed, on the table cut to the rows the coordinates reach.  A NaN
    coordinate, or one over 1e-9 of a cell outside the table, raises
    OutOfDomainError."""
    if len(axes) != table_grid.dimension:
        raise InvalidParameterError(f"{len(axes)}-dimensional points on a "
                                    f"{table_grid.dimension}-dimensional table", field=field)
    cells = []
    for x, lo, h, n in zip(axes, table_grid.lo, table_grid.spacing, table_grid.points):
        x = (np.asarray(x, dtype=float) - lo) / h
        if not (np.all(x >= -1e-9) and np.all(x <= n - 1 + 1e-9)):     # NaN included
            raise OutOfDomainError("point outside the tabulated extent", field=field)
        x = np.clip(x, 0.0, n - 1)
        i0 = np.minimum(x.astype(int), n - 2)
        cells.append((i0, x - i0))
    out = table[tuple(slice(i0.min(), i0.max() + 2) for i0, _ in cells)]
    for ax, (i0, frac) in enumerate(cells):
        i0 = i0 - i0.min()
        frac = frac.reshape((-1,) + (1,) * (out.ndim - 1 - ax))
        out = np.take(out, i0, axis=ax) * (1.0 - frac) + np.take(out, i0 + 1, axis=ax) * frac
    return out


# ---------------------------------------------------------------------------
# pair potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairPotential:
    """Repulsive, spherically symmetric two-body potential.

    Radial shapes: a hard sphere of a given core radius, a soft sphere
    (constant height inside a radius), or a tabulated radial profile with
    linear interpolation between samples.  Radii are in units where the
    unscaled potential has scattering length of order one.
    """

    shape: str
    core: float | None = None
    height: float | None = None
    radius: float | None = None
    r_table: tuple[float, ...] | None = None
    v_table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.shape == "hard_sphere":
            if self.core is None or self.core <= 0:
                raise InvalidParameterError("hard sphere needs a positive core radius")
        elif self.shape == "soft_sphere":
            if self.radius is None or self.radius <= 0:
                raise InvalidParameterError("soft sphere needs a positive radius")
            if self.height is None or self.height < 0:
                raise InvalidParameterError("soft sphere height must be nonnegative")
        elif self.shape == "tabulated_radial":
            r = np.asarray(self.r_table, dtype=float)
            v = np.asarray(self.v_table, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
                raise InvalidParameterError("tabulated potential needs matching r and v arrays")
            if np.any(np.diff(r) <= 0) or r[0] < 0:
                raise InvalidParameterError("r samples must be increasing and nonnegative")
            if np.any(v < 0):
                raise InvalidParameterError("potential values must be nonnegative (repulsive)")
            if abs(v[-1]) > 0:
                raise InvalidParameterError("tabulated potential must vanish at its last sample (finite range)")
        else:
            raise InvalidParameterError(f"unknown potential shape {self.shape!r}")

    @classmethod
    def hard_sphere(cls, core: float) -> "PairPotential":
        return cls(shape="hard_sphere", core=float(core))

    @classmethod
    def soft_sphere(cls, height: float, radius: float) -> "PairPotential":
        return cls(shape="soft_sphere", height=float(height), radius=float(radius))

    @classmethod
    def tabulated_radial(cls, r, v) -> "PairPotential":
        return cls(shape="tabulated_radial",
                   r_table=tuple(float(x) for x in r),
                   v_table=tuple(float(x) for x in v))

    @property
    def range(self) -> float:
        """Radius beyond which the potential is identically zero."""
        if self.shape == "hard_sphere":
            return self.core
        if self.shape == "soft_sphere":
            return self.radius if self.height > 0 else 0.0
        r = np.asarray(self.r_table)
        v = np.asarray(self.v_table)
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return 0.0
        return float(r[min(nz[-1] + 1, len(r) - 1)])

    @property
    def is_zero(self) -> bool:
        return self.shape != "hard_sphere" and self.range == 0.0

    @property
    def has_hard_core(self) -> bool:
        return self.shape == "hard_sphere"

    def evaluate(self, r) -> np.ndarray:
        """Radial values v(r); hard cores evaluate to +inf inside."""
        r = np.asarray(r, dtype=float)
        if self.shape == "hard_sphere":
            return np.where(r < self.core, np.inf, 0.0)
        if self.shape == "soft_sphere":
            return np.where(r < self.radius, self.height, 0.0)
        return np.interp(r, self.r_table, self.v_table, left=self.v_table[0], right=0.0)

    def fourier_radial(self, q) -> np.ndarray:
        """Exact transform vhat(q) = int v(r) exp(-iq.r) d^3r.

        For the soft sphere this is closed form; tabulated profiles use a
        fine radial quadrature, so accuracy is set by the table itself and
        not by any 3D grid.  Hard spheres have no transform and must be
        replaced by a tall soft sphere first.
        """
        q = np.asarray(q, dtype=float)
        if self.shape == "hard_sphere":
            raise InvalidParameterError(
                "hard sphere has no Fourier transform; substitute a tall soft sphere")
        if self.shape == "soft_sphere":
            return _sphere_transform(q, self.height, self.radius)
        rr = np.linspace(0.0, max(self.range, 1e-12), 8193)
        vv = self.evaluate(rr)
        qf = q.ravel()
        out = np.empty(qf.shape)
        small = np.abs(qf) * self.range < 1e-6
        out[small] = 4 * np.pi * np.trapezoid(vv * rr**2, rr)
        qs = qf[~small]
        if qs.size:
            # chunk the (q, r) outer product to bound memory
            res = np.empty(qs.shape)
            step = max(1, int(4e6 / len(rr)))
            for s in range(0, len(qs), step):
                blk = qs[s:s + step, None]
                res[s:s + step] = np.trapezoid(vv * rr * np.sin(blk * rr), rr, axis=1) / qs[s:s + step]
            out[~small] = 4 * np.pi * res
        return out.reshape(q.shape)


def _sphere_transform(q, height, radius):
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape)
    x = np.abs(q) * radius
    small = x < 1e-4
    # series keeps full precision through the q -> 0 crossover
    out[small] = height * 4 * np.pi * radius**3 / 3 * (1 - x[small] ** 2 / 10)
    qs = q[~small]
    xs = x[~small]
    out[~small] = 4 * np.pi * height * (np.sin(xs) - xs * np.cos(xs)) / qs**3
    return out


def check_pair_scale(a: float, field: str | None = None):
    """Refuse a scaling length a that is not positive and finite, or whose
    height factor 1/a^2 is not a finite nonzero float (an
    InvalidParameterError naming ``field``)."""
    if not (a > 0 and math.isfinite(a)):
        raise InvalidParameterError("scaling length a must be positive and finite", field=field)
    square = a * a
    if not (0.0 < square < math.inf and 1.0 / square < math.inf):
        raise InvalidParameterError(f"scaling length a = {a!r}: 1/a^2 is not a finite "
                                    "nonzero float", field=field)


def check_coupling_scale(g: float, grid: Grid, field: str):
    """Refuse a mean-field coupling ``g`` whose term in the residual norm is
    not a finite float on ``grid`` (a ConfigError naming ``field``), the
    companion of ``TrapSpec.check_scale``.  A field of unit norm reaches
    1 / (smallest node weight) in square at a node, so g's share of the
    chemical potential reaches g / (smallest node weight), and the residual
    norm divides by the square of the chemical potential."""
    scale = g / grid.min_weight
    if not scale * scale < math.inf:
        raise ConfigError(f"coupling {g!r} gives the mean-field scale {scale!r} on this "
                          "grid, whose square is not a finite float", field=field)


def scale_pair_potential(base: PairPotential, a: float) -> PairPotential:
    """Potential v(r) = v1(r/a) / a^2 obtained from ``base`` at length a.

    Scaling composes: scaling by a then b equals scaling by a*b.  The
    scattering length of the result is a times that of ``base``.
    """
    check_pair_scale(a)
    if base.shape == "hard_sphere":
        return PairPotential.hard_sphere(base.core * a)
    if base.shape == "soft_sphere":
        return PairPotential.soft_sphere(base.height / a**2, base.radius * a)
    r = np.asarray(base.r_table) * a
    v = np.asarray(base.v_table) / a**2
    return PairPotential.tabulated_radial(r, v)


# ---------------------------------------------------------------------------
# strict JSON documents: one field spec per block
# ---------------------------------------------------------------------------

REQUIRED = object()     # the default of a key its block must give


def fields(spec: dict):
    """Parser of a JSON object by ``spec``, {key: (parse, default)}.

    Each key maps to ``parse(value, path)`` of its given value, else of its
    default; an absent key with a None default maps to None.  A non-object,
    an unknown key, a missing ``REQUIRED`` key and every value ``parse``
    rejects raise a ConfigError naming the dotted path from ``where``.
    """
    def parse(doc, where: str) -> dict:
        if not isinstance(doc, dict):
            raise ConfigError(f"must be an object, got {reprlib.repr(doc)}", field=where)
        unknown = sorted(set(doc) - set(spec))
        if unknown:
            raise ConfigError("unknown key", field=f"{where}.{unknown[0]}".lstrip("."))
        missing = [k for k, (_, default) in spec.items() if default is REQUIRED and k not in doc]
        if missing:
            raise ConfigError("missing key", field=f"{where}.{missing[0]}".lstrip("."))
        return {key: value(doc.get(key, default), f"{where}.{key}".lstrip("."))
                if key in doc or default is not None else None
                for key, (value, default) in spec.items()}
    return parse


def kinds(key: str, specs: dict):
    """Parser of an object whose ``key`` entry names its spec in ``specs``:
    (that name, the other fields)."""
    def parse(doc, where: str) -> tuple[str, dict]:
        kind = doc.get(key) if isinstance(doc, dict) else None
        if isinstance(doc, dict) and not (isinstance(kind, str) and kind in specs):
            raise ConfigError(f"must be one of {sorted(specs)}, got {reprlib.repr(kind)}",
                              field=f"{where}.{key}".lstrip("."))
        rest = {k: v for k, v in doc.items() if k != key} if kind else doc  # else fields names it
        return kind, fields(specs.get(kind, {}))(rest, where)
    return parse


def number(integer: bool = False, minimum=None, positive: bool = False, cap=None):
    """Parser of a finite JSON number, an int when ``integer`` is set, else a
    float.  Booleans, strings, NaN, infinities, values below ``minimum`` and,
    with ``positive``, values <= 0 raise a ConfigError; values above ``cap``
    a CapacityError."""
    types = int if integer else (int, float)
    bound = " > 0" if positive else "" if minimum is None else f" >= {minimum}"

    def parse(value, field: str):
        # abs() compares an int to the largest float exactly, without overflow
        if not (isinstance(value, types) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max and (minimum is None or value >= minimum)
                and (not positive or value > 0)):
            raise ConfigError(f"must be a finite {'integer' if integer else 'number'}{bound}, "
                              f"got {reprlib.repr(value)}", field=field)
        if cap is not None and value > cap:
            raise CapacityError(f"{value} is above the cap {cap}", field=field)
        return value if integer else float(value)
    return parse


def numbers(**kw):
    """Parser of a non-empty JSON list whose every entry passes ``number(**kw)``: a tuple."""
    entry = number(**kw)

    def parse(value, field: str) -> tuple:
        if not (isinstance(value, list) and value):
            raise ConfigError(f"must be a non-empty list of numbers, got {reprlib.repr(value)}",
                              field=field)
        return tuple(entry(x, f"{field}[{i}]") for i, x in enumerate(value))
    return parse


def typed(types, what: str):
    """Parser of a JSON value of the given Python type(s), named ``what`` in errors."""
    def parse(value, field: str):
        if not isinstance(value, types):
            raise ConfigError(f"must be {what}, got {reprlib.repr(value)}", field=field)
        return value
    return parse


flag = typed(bool, "true or false")
file_path = typed(str, "a file path")


def _flatten(value):
    """Entries of a nested JSON list in row-major order; anything else as is."""
    while isinstance(value, list) and any(isinstance(x, list) for x in value):
        value = [y for x in value for y in (x if isinstance(x, list) else [x])]
    return value


def _grid_points(value, field: str) -> tuple:
    points = numbers(integer=True, minimum=4)(value, field)
    if math.prod(points) > MAX_GRID_NODES:
        raise CapacityError(f"{math.prod(points)} nodes, above the cap {MAX_GRID_NODES}",
                            field=field)
    return points


def pair_fft_lattice(grid: Grid, pair_range: float, field: str) -> tuple[int, ...]:
    """The zero-padded lattice of the interaction tensor's transforms on a
    grid of equal spacing: each axis padded by the pair potential's range
    in grid steps, rounded up, plus 2.  Above ``MAX_GRID_NODES`` it is a
    CapacityError on ``field``; with ``pair_range`` 0 this is the smallest
    such lattice, checked at load."""
    pad = int(np.ceil(pair_range / grid.spacing[0]))
    shape = tuple(n + pad + 2 for n in grid.points)
    if math.prod(shape) > MAX_GRID_NODES:
        raise CapacityError(f"the pair transforms pad the grid to {math.prod(shape)} nodes, "
                            f"above the cap {MAX_GRID_NODES}", field=field)
    return shape


GRID = {"extent": (numbers(positive=True), REQUIRED), "points": (_grid_points, REQUIRED),
        "lo": (numbers(), None)}

TRAPS = {
    "harmonic": {"stiffness": (numbers(positive=True), REQUIRED)},
    "box": {"side": (number(positive=True), REQUIRED), "dimension": (number(integer=True), 3)},
    "tabulated": {**GRID, "lo": (numbers(), REQUIRED),
                  "values": (lambda v, where: numbers()(_flatten(v), where), REQUIRED)},
}

PAIR_POTENTIALS = {
    "hard_sphere": {"core": (number(positive=True), REQUIRED)},
    "soft_sphere": {"height": (number(minimum=0), REQUIRED),
                    "radius": (number(positive=True), REQUIRED)},
    "tabulated_radial": {"r": (numbers(minimum=0), REQUIRED), "v": (numbers(minimum=0), REQUIRED)},
}


def located(where: str, make, *args, **kw):
    """``make(*args, **kw)``, its ConfigError re-raised under ``where``: the
    field it names starts with its type's name ("trap.values") or is None."""
    try:
        return make(*args, **kw)
    except ConfigError as exc:
        _, dot, rest = (exc.field or "").partition(".")
        raise type(exc)(exc.detail, field=where + dot + rest) from None


def trap_from_config(doc: dict, where: str = "trap") -> TrapSpec:
    kind, f = kinds("kind", TRAPS)(doc, where)
    if kind != "tabulated":
        return located(where, getattr(TrapSpec, kind), **f)
    grid = located(where, Grid, f["lo"], f["extent"], f["points"])
    grid.check_sizes(f"{where}.extent")
    return located(where, TrapSpec.tabulated, grid, f["values"])


def pair_potential_from_config(doc: dict, where: str = "pair_potential") -> PairPotential:
    shape, f = kinds("shape", PAIR_POTENTIALS)(doc, where)
    return located(where, getattr(PairPotential, shape), **f)


def grid_from_config(doc: dict, trap: TrapSpec | None = None, where: str = "grid") -> Grid:
    """Grid from {extent, points[, lo]}; ``lo`` defaults to 0 on every axis
    of a box trap's grid and to a centred grid otherwise.  Given a trap, the
    grid must pass its ``check_grid``."""
    f = fields(GRID)(doc, where)
    box = trap is not None and trap.kind == "box"
    lo = f["lo"] if f["lo"] is not None else tuple(0.0 if box else -e / 2 for e in f["extent"])
    grid = located(where, Grid, lo, f["extent"], f["points"])
    grid.check_sizes(f"{where}.extent")
    if trap is not None:
        trap.check_grid(grid, where)
        trap.check_scale(grid, where)
    return grid


@dataclass(frozen=True)
class Problem:
    trap: TrapSpec | None
    pair_potential: PairPotential | None
    grid: Grid | None


PROBLEM = {"trap": (trap_from_config, None), "pair_potential": (pair_potential_from_config, None),
           "grid": (typed(dict, "an object"), None)}     # parsed once its trap is


def problem_from_config(doc: dict, where: str = "problem") -> Problem:
    """Parse the strict problem document {trap, pair_potential, grid}."""
    p = fields(PROBLEM)(doc, where)
    trap = p["trap"]
    grid = None if p["grid"] is None else grid_from_config(p["grid"], trap, f"{where}.grid")
    return Problem(trap, p["pair_potential"], grid)
