import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dstn as fft_dstn

import beclab as bl
from beclab import gp
from beclab.errors import (DomainTooSmallError, InvalidParameterError, OutOfDomainError,
                           SolverFailureError)
from beclab.model import axis_apply, mirror_parity

from .oracles import gp_energy_components, tensor_apply, unfold_axis_by_axis

GRID32 = bl.Grid.centered((14.0,) * 3, (32,) * 3)
GRID48 = bl.Grid.centered((14.0,) * 3, (48,) * 3)


@pytest.fixture(scope="module")
def g1_state():
    trap = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
    return bl.minimize_gp(trap, 1.0, GRID48)


def test_noninteracting_oscillator(trap):
    state = bl.minimize_gp(trap, 0.0, GRID48)
    assert state.energy_total == pytest.approx(3.0, abs=2e-3)
    assert state.energy_kinetic == pytest.approx(1.5, abs=2e-3)
    assert state.energy_potential == pytest.approx(1.5, abs=2e-3)
    assert state.energy_interaction == 0.0
    # gaussian profile
    mesh = state.grid.meshgrid()
    ref = np.ones(state.grid.shape)
    for x in mesh:
        ref = ref * np.exp(-x**2 / 2)
    ref /= np.sqrt(state.grid.integrate(ref**2))
    assert state.grid.integrate((state.phi - ref) ** 2) < 1e-8


def test_box_ground_energy():
    state = bl.minimize_gp(bl.TrapSpec.box(1.0, 3), 0.0, bl.Grid.box(1.0, 64))
    assert state.energy_total == pytest.approx(3 * np.pi**2, abs=0.05)


def test_state_invariants(g1_state):
    st = g1_state
    assert st.norm_error() < 1e-10
    total = st.energy_kinetic + st.energy_potential + st.energy_interaction
    assert total == pytest.approx(st.energy_total, rel=1e-10)
    assert st.mu == pytest.approx(st.energy_total + st.energy_interaction, rel=1e-12)
    assert st.residual <= 1e-8
    interior = st.phi[(slice(1, -1),) * 3]
    assert interior.min() > 0.0
    assert st.boundary_ratio < 1e-8


def test_energy_trace_monotone(g1_state):
    trace = np.asarray(g1_state.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_virial_identity(g1_state):
    st = g1_state
    vir = 2 * st.energy_kinetic - 2 * st.energy_potential + 3 * st.energy_interaction
    assert abs(vir) <= 5e-3 * st.energy_total


def test_grid_refinement_convergence(trap):
    coarse = bl.minimize_gp(trap, 1.0, GRID32)
    fine = bl.minimize_gp(trap, 1.0, bl.Grid.centered((14.0,) * 3, (64,) * 3))
    assert abs(coarse.energy_total - fine.energy_total) < 4e-4


@pytest.fixture(scope="module")
def g10_state(trap):
    return bl.minimize_gp(trap, 10.0, GRID48)


def test_radial_oracle_agreement(g10_state):
    oracle = bl.radial_harmonic_ground(10.0)
    assert g10_state.energy_total == pytest.approx(oracle.energy, rel=1e-3)
    assert g10_state.mu == pytest.approx(oracle.mu, rel=1e-3)


def test_strong_coupling_iterations(g10_state):
    # the normalized gradient flow this solver replaced took 147 steps here
    assert g10_state.iterations <= 25
    assert g10_state.residual <= 1e-8


def _tabulated(kind):
    x, y, z = np.meshgrid(*GRID32.axes, indexing="ij")
    values = {
        "isotropic": x**2 + y**2 + z**2,
        "anharmonic": x**2 + 0.05 * x**4 + y**2 + z**2 + 0.1 * z**4,
        "coupled": x**2 + y**2 + z**2 + 0.5 * x * y + 0.05 * x**2 * z**2,
    }[kind]
    return bl.TrapSpec.tabulated(GRID32, values)


@pytest.mark.parametrize("g", [0.0, 2.0])
@pytest.mark.parametrize("kind", ["anharmonic", "coupled"])
def test_tabulated_trap_converges(kind, g):
    state = bl.minimize_gp(_tabulated(kind), g, GRID32)
    assert state.residual <= 1e-8
    assert np.all(np.diff(state.energy_trace) <= 1e-12)
    assert state.norm_error() < 1e-10


def test_tabulated_isotropic_matches_harmonic(trap):
    table = bl.minimize_gp(_tabulated("isotropic"), 2.0, GRID32)
    harmonic = bl.minimize_gp(trap, 2.0, GRID32)
    assert table.energy_total == pytest.approx(harmonic.energy_total, abs=1e-10)


def test_components_recompute(g1_state):
    k, p, i = gp_energy_components(g1_state)
    assert k == pytest.approx(g1_state.energy_kinetic, rel=1e-12)
    assert p == pytest.approx(g1_state.energy_potential, rel=1e-12)
    assert i == pytest.approx(g1_state.energy_interaction, rel=1e-12)


def test_prediction_identities(g1_state):
    st = g1_state
    for s in (0.3666646006239494, 1.0, 0.05):
        pred = bl.predict_components(st, s)
        assert pred.total == pytest.approx(st.energy_total, rel=1e-12)
        quartic = st.energy_interaction
        if quartic > 0:
            assert pred.interaction_qm / quartic == pytest.approx(1 - s, abs=1e-12)
    full = bl.predict_components(st, 1.0)
    assert full.interaction_qm == 0.0
    assert full.kinetic_qm == pytest.approx(st.energy_kinetic + st.energy_interaction, rel=1e-12)


def test_prediction_at_zero_coupling(gp_g0_96):
    pred = bl.predict_components(gp_g0_96, 0.5)
    assert pred.kinetic_qm == pytest.approx(gp_g0_96.energy_kinetic, rel=1e-12)
    assert pred.interaction_qm == 0.0


def test_prediction_rejects_bad_s(g1_state):
    with pytest.raises(InvalidParameterError):
        bl.predict_components(g1_state, 0.0)
    with pytest.raises(InvalidParameterError):
        bl.predict_components(g1_state, 1.5)


def test_coupling_2d_examples():
    assert bl.coupling_2d(100, 1e-3) == pytest.approx(400 * math.pi / abs(math.log(1e-4)))
    assert bl.coupling_2d(10, 1e-6) == pytest.approx(40 * math.pi / abs(math.log(1e-11)))
    with pytest.raises(InvalidParameterError):
        bl.coupling_2d(2, 0.9)


def test_two_dimensional_ground_state():
    trap2 = bl.TrapSpec.harmonic((1.0, 1.0))
    state = bl.minimize_gp(trap2, 0.0, bl.Grid.centered((14.0, 14.0), (96, 96)))
    assert state.energy_total == pytest.approx(2.0, abs=1e-3)
    g = bl.coupling_2d(100, 1e-3)
    inter = bl.minimize_gp(trap2, g, bl.Grid.centered((18.0, 18.0), (128, 128)))
    vir2 = 2 * inter.energy_kinetic - 2 * inter.energy_potential + 2 * inter.energy_interaction
    assert abs(vir2) <= 5e-3 * inter.energy_total


def test_domain_too_small(trap):
    with pytest.raises(DomainTooSmallError):
        bl.minimize_gp(trap, 0.0, bl.Grid.centered((7.0,) * 3, (32,) * 3))


def test_negative_coupling_rejected(trap):
    with pytest.raises(InvalidParameterError):
        bl.minimize_gp(trap, -1.0, GRID32)


@pytest.mark.parametrize("shape", [(30, 46, 62), (46,) * 3, (94,) * 3, (94, 30), (46, 46)],
                         ids=str)
def test_dstn_matches_fft_dst(shape):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    ref = fft_dstn(x, type=1)
    got = gp.dstn(x, [gp.sine_matrix(m) for m in x.shape])
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 2, 30, 46, 62, 94, 190])
def test_sine_matrix_entries_are_correctly_reduced(m):
    # extended-precision reference; without the reduction of j k mod 2(m+1)
    # the double-precision argument error reaches 2e-14 already at m = 30
    k = np.arange(1, m + 1)
    arg = (np.outer(k, k) % (2 * (m + 1))).astype(np.longdouble)
    ref = 2 * np.sin(4 * np.arctan(np.longdouble(1)) * arg / (m + 1))
    S = gp.sine_matrix(m)
    assert np.abs(S - ref).max() <= 4e-15
    assert np.array_equal(S, S.T) and not S.flags.writeable
    assert np.abs(S @ S - 2 * (m + 1) * np.eye(m)).max() <= 1e-13 * (m + 1)


@pytest.mark.parametrize("trap_, grid, sector", [
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), bl.Grid.centered((14.0, 12.0, 10.0), (32, 48, 40)), False),
    (bl.TrapSpec.harmonic((1.0, 1.0)), bl.Grid.centered((14.0, 14.0), (96, 64)), False),
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), bl.Grid.centered((14.0, 12.0, 10.0), (32, 48, 40)), True),
], ids=["3d", "2d", "3d_sector"])
def test_coefficient_round_trip(trap_, grid, sector):
    ws = gp._Workspace(trap_, grid, sector=sector)
    assert ws.sector == sector
    assert ws.V.shape == tuple((n - 2) // (2 if sector else 1) for n in grid.points)
    p = np.random.default_rng(1).standard_normal(ws.V.shape)
    assert np.abs(ws.from_coefficients(ws.coefficients(p)) - p).max() <= 1e-13 * np.abs(p).max()


def _tabulated_trap(shift):
    grid = bl.Grid.centered((10.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    return bl.TrapSpec.tabulated(grid, (x - shift) ** 2 + 2 * y**2 + 3 * z**2)


@pytest.mark.parametrize("trap_, grid", [
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), GRID48),
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), bl.Grid.centered((14.0, 12.0, 10.0), (33, 48, 41))),
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), bl.Grid((-6.5, -7.0, -7.2), (14.0,) * 3, (48,) * 3)),
    (bl.TrapSpec.harmonic((1.0, 2.0)), bl.Grid.centered((10.0, 10.0), (40, 40))),
    (bl.TrapSpec.box(6.0), bl.Grid.box(6.0, 32)),
    (_tabulated_trap(0.0), bl.Grid.centered((8.0,) * 3, (30,) * 3)),
    (_tabulated_trap(0.3), bl.Grid.centered((10.0,) * 3, (24,) * 3)),
], ids=["centred", "odd_counts", "shifted", "planar", "box", "tabulated", "tabulated_off"])
def test_potential_scan_is_the_whole_interior_sample(trap_, grid):
    # plane by plane: the first minimum in C order (ties included: the
    # centred grid's four middle nodes, the box's zero V) and the mirror
    # test of every axis, as on the whole interior sample
    inner = tuple(x[1:-1] for x in grid.axes)
    V = trap_.sample_axes(inner)
    centre, value, even = gp._scan_potential(trap_, inner)
    assert centre == np.unravel_index(np.argmin(V), V.shape)
    assert value == V[centre]
    assert even == all(mirror_parity(V, ax) == 0 for ax in range(grid.dimension))


def test_sector_workspace_samples_no_full_interior():
    # V, the kinetic and the preconditioner's eigenvalue arrays live on the
    # sector, 3/8 of an interior array together; 0.51 measured (1.57 when V
    # was sampled and mirror-tested on the whole interior)
    grid = bl.Grid.centered((14.0,) * 3, (64,) * 3)
    trap_ = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))
    gp._Workspace(trap_, grid, sector=True)
    tracemalloc.start()
    try:
        ws = gp._Workspace(trap_, grid, sector=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.sector
    assert peak <= 0.6 * 8 * 62**3, peak / (8 * 62**3)


@pytest.mark.parametrize("grid", [GRID32, bl.Grid.centered((14.0, 12.0, 10.0), (32, 48, 40)),
                                  bl.Grid.centered((14.0, 14.0), (96, 64))],
                         ids=["cube", "uneven", "planar"])
def test_unfold_mirrors_the_sector_along_each_axis(grid):
    trap_ = bl.TrapSpec.harmonic((1.0,) * grid.dimension)
    ws = gp._Workspace(trap_, grid, sector=True)
    assert ws.sector
    p = np.random.default_rng(4).standard_normal(ws.V.shape)
    want = p
    for ax in range(grid.dimension):
        want = np.concatenate([want, np.flip(want, axis=ax)], axis=ax)
    out = np.full(tuple(n - 2 for n in grid.points), np.nan)
    gp.unfold(p, out, ws.sector)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("shape", [(5, 7, 9), (6, 11), (4, 3, 5, 2), (8,)], ids=str)
def test_axis_apply_matches_tensordot(shape, transpose):
    # square (not symmetric), rectangular (each axis narrowed or widened)
    # and complex rectangular (out, in) matrices; with ``transpose`` each is
    # passed as the transposed view U.T of a stored U, as the preconditioner does
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape)
    outs = [n + (3 if ax % 2 else -2) for ax, n in enumerate(shape)]
    for mats in ([rng.standard_normal((n, n)) for n in shape],
                 [rng.standard_normal((o, n)) for o, n in zip(outs, shape)],
                 [rng.standard_normal((o, n)) + 1j * rng.standard_normal((o, n))
                  for o, n in zip(outs, shape)]):
        stored = [np.ascontiguousarray(M.T) for M in mats] if transpose else mats
        passed = [U.T for U in stored] if transpose else stored
        out = axis_apply(arr, passed)
        assert out.shape == tuple(len(M) for M in mats)
        np.testing.assert_allclose(out, tensor_apply(arr, stored, transpose), rtol=0, atol=1e-12)


def _solve(monkeypatch, trap_, g, grid, full=False):
    """minimize_gp plus whether it ran on the mirror-even sector; ``full``
    forces the full-grid route."""
    made = []
    workspace = gp._Workspace

    def spy(trap, grid, sector=False):
        made.append(workspace(trap, grid, sector=sector and not full))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(gp, "_Workspace", spy)
        state = bl.minimize_gp(trap_, g, grid)
    return state, made[0].sector


def _offcentre_table(grid):
    x, y, z = np.meshgrid(*grid.axes, indexing="ij")
    return bl.TrapSpec.tabulated(grid, (x - 0.25) ** 2 + y**2 + z**2)


@pytest.mark.parametrize("trap_, g, grid", [
    (bl.TrapSpec.harmonic((1.0, 1.0, 1.0)), 2.0, GRID32),
    (bl.TrapSpec.harmonic((1.0, 1.7, 0.6)), 3.0, bl.Grid.centered((14.0, 12.0, 16.0), (32, 48, 40))),
    (bl.TrapSpec.box(1.0, 3), 5.0, bl.Grid.box(1.0, 32)),
    (_tabulated("anharmonic"), 2.0, GRID32),
    (bl.TrapSpec.harmonic((1.0, 1.0)), 20.0, bl.Grid.centered((14.0, 14.0), (96, 64))),
], ids=["isotropic", "anisotropic", "box", "tabulated", "2d"])
def test_sector_solve_matches_full_solve(monkeypatch, trap_, g, grid):
    sector, on_sector = _solve(monkeypatch, trap_, g, grid)
    full, on_full = _solve(monkeypatch, trap_, g, grid, full=True)
    assert on_sector and not on_full
    assert sector.iterations == full.iterations
    for name in ("energy_total", "energy_kinetic", "energy_potential", "energy_interaction", "mu"):
        assert getattr(sector, name) == pytest.approx(getattr(full, name), rel=1e-12, abs=1e-300)
    assert sector.phi.shape == full.phi.shape == grid.shape
    assert np.abs(sector.phi - full.phi).max() <= 1e-10 * full.phi.max()
    # the unfolded state is mirror-even and vanishes on the grid boundary
    for ax in range(grid.dimension):
        assert np.array_equal(sector.phi, np.flip(sector.phi, axis=ax))
        assert not np.take(sector.phi, [0, -1], axis=ax).any()


@pytest.mark.parametrize("case", ["offcentre_table", "odd_m"])
def test_full_route_when_the_sector_does_not_apply(monkeypatch, trap, case):
    grid, trap_ = GRID32, trap
    if case == "offcentre_table":
        trap_ = _offcentre_table(GRID32)
    else:
        grid = bl.Grid.centered((14.0,) * 3, (33,) * 3)
    state, on_sector = _solve(monkeypatch, trap_, 2.0, grid)
    assert not on_sector
    assert state.residual <= 1e-8 and state.norm_error() < 1e-10
    components = (state.energy_kinetic, state.energy_potential, state.energy_interaction)
    assert gp_energy_components(state) == pytest.approx(components, rel=1e-12)


@pytest.mark.parametrize("m", [2, 30, 46, 94])
def test_sector_blocks_are_the_sine_matrix_on_even_vectors(m):
    grid = bl.Grid.centered((10.0,) * 2, (m + 2, 6))
    ws = gp._Workspace(bl.TrapSpec.harmonic((1.0, 1.0)), grid, sector=True)
    assert ws.sector and ws.V.shape == (m // 2, 2)
    S, fwd, inv = gp.sine_matrix(m), ws.forward[0], ws.inverse[0]
    rng = np.random.default_rng(m)
    half = rng.standard_normal(m // 2)
    b = S @ np.concatenate([half, half[::-1]])         # an even vector
    assert np.abs(b[1::2]).max() <= 1e-13 * np.abs(b).max()
    assert np.abs(fwd @ half - b[0::2]).max() <= 1e-13 * np.abs(b).max()
    c = np.zeros(m)
    c[0::2] = rng.standard_normal(m // 2)                # odd wavenumbers only
    p = S @ c
    assert np.abs(p - p[::-1]).max() <= 1e-13 * np.abs(p).max()
    assert np.abs(inv @ c[0::2] - p[:m // 2]).max() <= 1e-13 * np.abs(p).max()


def test_non_finite_residual_fails_at_once():
    # the residual of a 1e250 stiffness overflows; the flow used to run to max_iter on NaN
    trap = bl.TrapSpec.harmonic((1e250, 1.0, 1.0))
    with pytest.raises(SolverFailureError, match="not finite") as info:
        bl.minimize_gp(trap, 0.4, bl.Grid.centered((14.0,) * 3, (32,) * 3))
    assert info.value.diagnostics["iterations"] == 1


@pytest.mark.parametrize("points, mirror", [
    ((32, 32, 32), True), ((32, 48, 40), True), ((96, 64), True), ((8, 6), True),
    ((33, 32, 31), False), ((32, 32), False),
], ids=str)
def test_unfold_matches_the_axis_by_axis_oracle(points, mirror):
    interior = tuple(n - 2 for n in points)
    p = np.random.default_rng(len(points)).standard_normal(
        tuple(m // 2 for m in interior) if mirror else interior)
    got, want = np.full(interior, np.nan), np.full(interior, np.nan)
    gp.unfold(p, got, mirror)
    unfold_axis_by_axis(p, want, mirror)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("points, sector", [
    ((32, 32, 32), True), ((33, 33, 33), False), ((96, 64), True), ((65, 63), False),
], ids=str)
def test_state_integrals_equal_grid_integrate_bit_for_bit(monkeypatch, points, sector):
    # sum(phi**k * hd) against the trapezoid sum with Grid.weights, on a
    # sector solve and on a full-interior one (odd m)
    d = len(points)
    grid = bl.Grid.centered((14.0,) * d, points)
    state, on_sector = _solve(monkeypatch, bl.TrapSpec.harmonic((1.0,) * d), 3.0, grid)
    assert on_sector == sector
    assert state.norm_error() == abs(grid.integrate(state.phi**2) - 1.0)
    assert state.interaction_density_integral() == grid.integrate(state.phi**4)


def _table_on(grid, centre):
    mesh = grid.meshgrid()
    return bl.TrapSpec.tabulated(grid, sum((x - c) ** 2 * (1 + ax) + 0.05 * x**4
                                           for ax, (x, c) in enumerate(zip(mesh, centre))))


@pytest.mark.parametrize("case", ["harmonic", "harmonic_offcentre", "box", "tabulated",
                                  "tabulated_offcentre", "harmonic_2d_offcentre"])
def test_workspace_samples_v_on_the_interior_nodes(case):
    # the interior sample has the bits of the whole grid's sample there
    grid = bl.Grid.centered((14.0, 12.0, 10.0), (32, 30, 28))
    trap_ = bl.TrapSpec.harmonic((1.0, 1.7, 0.6))
    if case == "harmonic_offcentre":
        grid = bl.Grid((-6.9, -6.1, -4.7), grid.extent, grid.points)
    elif case == "box":
        trap_, grid = bl.TrapSpec.box(1.0, 3), bl.Grid.box(1.0, 32)
    elif case.startswith("tabulated"):
        table_grid = bl.Grid.centered((15.0, 13.0, 11.0), (23, 21, 19))
        trap_ = _table_on(table_grid, (0.0, 0.0, 0.0) if case == "tabulated" else (0.3, -0.2, 0.1))
    elif case == "harmonic_2d_offcentre":
        trap_ = bl.TrapSpec.harmonic((1.0, 2.0))
        grid = bl.Grid((-7.3, -6.6), (14.0, 14.0), (34, 30))
    ws = gp._Workspace(trap_, grid, sector=True)
    assert ws.sector == (not case.endswith("offcentre"))
    interior = tuple(slice(1, -1) for _ in grid.points)
    assert ws.V.flags.c_contiguous
    assert np.array_equal(ws.V, trap_.sample(grid)[interior][ws.half])


def test_tabulated_trap_refuses_a_grid_whose_boundary_it_does_not_cover():
    # the table covers every interior node of the grid but not its boundary
    grid = bl.Grid.centered((14.2,) * 3, (32,) * 3)
    table = _tabulated("isotropic")
    table.sample_axes(tuple(x[1:-1] for x in grid.axes))
    with pytest.raises(OutOfDomainError):
        bl.minimize_gp(table, 2.0, grid)
    with pytest.raises(OutOfDomainError):
        table.sample(grid)
