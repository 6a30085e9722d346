import math

import numpy as np
import pytest

import beclab as bl
from beclab.errors import DomainTooSmallError, InvalidParameterError

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


def test_uniqueness_probe(trap):
    rng = np.random.default_rng(3)
    bump = 1.0 + 0.3 * rng.random(tuple(n - 2 for n in GRID32.points))
    st1 = bl.minimize_gp(trap, 2.0, GRID32, tol=1e-10)
    st2 = bl.minimize_gp(trap, 2.0, GRID32, tol=1e-10, initial=bump)
    diff = st1.grid.integrate((st1.phi - st2.phi) ** 2) ** 0.5
    assert diff < 1e-6


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
    k, p, i = bl.gp_energy_components(g1_state)
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
