import inspect
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import cached_property
from math import comb

import numpy as np
import pytest

import beclab as bl
from beclab.errors import SolverFailureError
from beclab.manybody import (ManyBodyGround, build_mode_basis, condensate_metrics,
                             ground_state, hartree_energy, localization_profile,
                             solve_instance)
from beclab.manybody.basis import FockBasis
from beclab.manybody.ground import PairOpHamiltonian, _lanczos, pair_moment
from beclab.manybody.localization import _pair_amplitude_matrix
from beclab.manybody.tensor import (BlockLayout, InteractionTensor, interaction_tensor,
                                    pair_classes)

from .oracles import (composed_pair_map, dense_gamma, dense_ground, dense_hamiltonian,
                      dense_pair_fold, fock_states, full_space, full_space_pair_amplitudes,
                      identity_only, literal_pair_amplitudes, literal_pair_annihilation,
                      one_class, orbit_hamiltonian, orbit_sums)

GRID = bl.Grid.centered((12.0,) * 3, (32,) * 3)
TRAP = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def basis_q1():
    return build_mode_basis(TRAP, GRID, 1)


@pytest.fixture(scope="module")
def basis_q2():
    return build_mode_basis(TRAP, GRID, 2)


@pytest.fixture(scope="module")
def orbit_tensor_q2(basis_q2):
    return interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(5.0, 1.1))


@pytest.fixture(scope="module")
def soft_tensor_q2(orbit_tensor_q2):
    # the identity alone: solves over it run in the parity sector
    return identity_only(orbit_tensor_q2)


def test_two_noninteracting_bosons(basis_q2):
    t = interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(0.0, 1.0))
    gr = ground_state(basis_q2, t, 2)
    assert gr.energy == pytest.approx(6.0, abs=1e-12)
    ref = np.zeros((basis_q2.size, basis_q2.size))
    ref[0, 0] = 2.0
    np.testing.assert_allclose(gr.gamma, ref, atol=1e-12)
    assert gr.condensate_fraction == pytest.approx(1.0, abs=1e-12)


def test_single_particle_no_pair_term(basis_q2, soft_tensor_q2):
    gr = ground_state(basis_q2, soft_tensor_q2, 1)
    assert gr.energy == pytest.approx(basis_q2.energies[0], abs=1e-10)


@pytest.mark.parametrize("N,quanta", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_dense_oracle_equivalence(N, quanta, basis_q1, basis_q2):
    basis = basis_q1 if quanta == 1 else basis_q2
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    fock = full_space(N, basis.size)
    assert fock.size <= 500
    e_ref, x_ref, states, index = dense_ground(basis, tensor, N)
    gamma_ref = dense_gamma(x_ref, states, index, basis.size)
    gr = ground_state(basis, tensor, N)
    assert gr.energy == pytest.approx(e_ref, abs=1e-9)
    np.testing.assert_allclose(gr.gamma, gamma_ref, atol=1e-8)


@pytest.mark.parametrize("N,quanta", [(2, 2), (3, 2), (4, 1)])
@pytest.mark.parametrize("height", [5.0, 0.0])
def test_lanczos_matches_dense_eigh(N, quanta, height, basis_q1, basis_q2):
    # the in-house Lanczos loop against np.linalg.eigh of the literal
    # Hamiltonian, on the full space and on the sector; at zero coupling the
    # start vector (all bosons in mode 0) is an eigenvector, so beta
    # vanishes at step 1.  ground_state solves the sector with that loop; the
    # full space takes the tensor as one class
    basis = basis_q1 if quanta == 1 else basis_q2
    tensor = identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(height, 1.1)))
    H, _, _ = dense_hamiltonian(basis, tensor, N)
    for space_tensor in (one_class(tensor), tensor):
        ham = PairOpHamiltonian(basis, space_tensor, N)
        ranks = ham.fock.ranks
        vals, vecs = np.linalg.eigh(H[np.ix_(ranks, ranks)])
        x_ref = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
        start = np.zeros(ham.size)
        start[0] = 1.0
        energy, x, steps = _lanczos(ham, start)
        assert energy == pytest.approx(vals[0], rel=1e-12)
        np.testing.assert_allclose(x, x_ref, atol=1e-10)
        assert (steps == 1) == (height == 0.0)
        assert np.linalg.norm(ham.matvec(x) - energy * x) <= 1e-9
    gr = ground_state(basis, tensor, N)
    assert np.array_equal(gr.ham.fock.ranks, ranks)
    assert gr.energy == energy and gr.residual <= 1e-9
    np.testing.assert_array_equal(gr.coefficients, x)


def test_energy_below_random_rayleigh_quotients(basis_q2, soft_tensor_q2):
    gr = ground_state(basis_q2, soft_tensor_q2, 3)
    ham = PairOpHamiltonian(basis_q2, one_class(soft_tensor_q2), 3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(ham.size)
        x /= np.linalg.norm(x)
        assert gr.energy <= x @ ham.matvec(x) + 1e-10


def test_hartree_bound_and_pair_moment(basis_q2, soft_tensor_q2):
    N = 3
    gr = ground_state(basis_q2, soft_tensor_q2, N)
    c = np.zeros(basis_q2.size)
    c[0] = 1.0
    rq = hartree_energy(gr.ham, c)
    assert gr.energy <= rq + 1e-10
    pm = pair_moment(gr.ham, gr.coefficients, c) / N**2
    # the same moment on the full space, with the sector state scattered there
    full = PairOpHamiltonian(basis_q2, one_class(soft_tensor_q2), N)
    x = np.zeros(full.size)
    x[gr.ham.fock.ranks] = gr.coefficients
    assert pm == pytest.approx(pair_moment(full, x, c) / N**2, rel=1e-12)
    overlap = float(c @ gr.gamma @ c) / N
    assert pm <= 1.0 + 1e-10
    assert pm >= overlap**2 - 2.0 / N - 1e-10


def test_natural_occupations_normalized(basis_q2, soft_tensor_q2):
    gr = ground_state(basis_q2, soft_tensor_q2, 4)
    occ = gr.natural_occupations
    assert np.all(occ >= -1e-10) and np.all(occ <= 1 + 1e-10)
    assert occ.sum() == pytest.approx(1.0, abs=1e-8)


def test_gamma_parity_block_structure(basis_q2, soft_tensor_q2):
    # isotropic trap and central potential: no mixing across axis parity
    gr = ground_state(basis_q2, soft_tensor_q2, 3)
    par = basis_q2.axis_parity
    for i in range(basis_q2.size):
        for j in range(basis_q2.size):
            if not np.array_equal(par[i], par[j]):
                assert abs(gr.gamma[i, j]) < 1e-8


def _random_unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("N,quanta", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (1, 1), (1, 2)])
def test_ladder_core_on_random_vectors(N, quanta, basis_q1, basis_q2, soft_tensor_q2):
    # gamma and the pair map against literal ladder algebra, off eigenvectors;
    # N = 1 has no pair map
    basis = basis_q1 if quanta == 1 else basis_q2
    tensor = (interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
              if quanta == 1 else soft_tensor_q2)
    ham = PairOpHamiltonian(basis, one_class(tensor), N)
    states, index = fock_states(N, basis.size)
    rng = np.random.default_rng(N + 10 * quanta)
    for _ in range(3):
        x = _random_unit(rng, ham.size)
        np.testing.assert_allclose(ham.one_body_matrix(x),
                                   dense_gamma(x, states, index, basis.size), atol=1e-12)
        if N == 1:
            assert ham.pair_classes == ()
            continue
        pairs = literal_pair_annihilation(x, N, basis.size, tensor.pairs)
        # the full space folds every pair as one class, over every row
        (cls,) = ham.pair_classes
        assert np.array_equal(cls.pairs, np.arange(tensor.n_pairs))
        np.testing.assert_allclose((cls.amps * x[cls.cols]).reshape(-1, tensor.n_pairs), pairs,
                                   atol=1e-12)


def test_pair_amplitude_matrix_matches_state_loop(basis_q2, soft_tensor_q2):
    ham = PairOpHamiltonian(basis_q2, one_class(soft_tensor_q2), 2)
    rng = np.random.default_rng(5)
    x = _random_unit(rng, ham.size)
    np.testing.assert_allclose(_pair_amplitude_matrix(ham, x),
                               literal_pair_amplitudes(x, fock_states(2, basis_q2.size)[0]),
                               atol=1e-15)


def _lower_ranks(ham):
    """Full-space ranks of the (N-2)-particle states ``ham`` enumerated, in
    the order ``PairClass.rows`` indexes them."""
    fock = ham.fock
    return fock.lower_states([fock.code ^ code for code, _ in ham.tensor.classes])[1]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_sector_solve_matches_full_space(N, basis_q2, soft_tensor_q2):
    # the reference is the Lanczos solve of the full-space Hamiltonian from
    # the same start state, which never leaves the start state's sector (the
    # full space takes the tensor as one class)
    full = PairOpHamiltonian(basis_q2, one_class(soft_tensor_q2), N)
    start = np.zeros(full.size)
    start[0] = 1.0
    energy, x_ref, _ = _lanczos(full, start)
    gr = ground_state(basis_q2, soft_tensor_q2, N)
    sector = gr.ham.fock
    assert sector.size < full.size
    assert gr.coefficients.shape == (sector.size,)
    assert gr.energy == pytest.approx(energy, rel=1e-12)
    np.testing.assert_allclose(gr.gamma, full.one_body_matrix(x_ref), atol=1e-12)
    np.testing.assert_allclose(gr.coefficients, x_ref[sector.ranks], atol=1e-12)
    outside = np.setdiff1d(np.arange(full.size), sector.ranks)
    assert np.all(x_ref[outside] == 0.0)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_orbit_matvec_is_the_dense_orbit_hamiltonian(N, basis_q2, orbit_tensor_q2):
    # the reduced operator against U^T H U, U the orbit sums found by literal
    # permutation of occupation tuples; the basis's orbits are U's columns
    ham = PairOpHamiltonian(basis_q2, orbit_tensor_q2, N)
    fock = ham.fock
    assert len(orbit_tensor_q2.mode_perms) == 6 and ham.size < len(fock.ranks)
    H, U = orbit_hamiltonian(basis_q2, orbit_tensor_q2, N, fock)
    assert U.shape[1] == ham.size
    assert np.array_equal(np.count_nonzero(U, axis=0), fock.orbit_sizes)
    assert np.all(U[fock.ranks, fock.orbits] > 0)
    rng = np.random.default_rng(N)
    for _ in range(3):
        y = _random_unit(rng, ham.size)
        np.testing.assert_allclose(ham.matvec(y), H @ y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_orbit_route_matches_the_sector_route(N, basis_q2, orbit_tensor_q2, soft_tensor_q2):
    # the same solve in the orbit sums and in the parity sector: the energy,
    # the step count, gamma, the pair moment (also of a dressed mode that no
    # permutation keeps) and the N = 2 pair amplitudes; off eigenvectors,
    # gamma and the pair moment of an orbit vector and of its sector unfold
    orbit = PairOpHamiltonian(basis_q2, orbit_tensor_q2, N)
    sector = PairOpHamiltonian(basis_q2, soft_tensor_q2, N)
    assert np.array_equal(orbit.fock.ranks, sector.fock.ranks)
    start = np.zeros(orbit.size), np.zeros(sector.size)
    start[0][0] = start[1][0] = 1.0
    (e_orbit, y, steps), (e_sector, x, sector_steps) = map(_lanczos, (orbit, sector), start)
    assert e_orbit == pytest.approx(e_sector, rel=1e-13) and steps == sector_steps
    rng = np.random.default_rng(N)
    c = _random_unit(rng, basis_q2.size)
    z, fock = _random_unit(rng, orbit.size), orbit.fock
    for y, x in ((y, x), (z, z[fock.orbits] / np.sqrt(fock.orbit_sizes[fock.orbits]))):
        np.testing.assert_allclose(orbit.one_body_matrix(y), sector.one_body_matrix(x),
                                   rtol=0, atol=1e-12)
        if N >= 2:
            assert pair_moment(orbit, y, c) == pytest.approx(pair_moment(sector, x, c), rel=1e-12)
        if N == 2:
            np.testing.assert_allclose(_pair_amplitude_matrix(orbit, y),
                                       _pair_amplitude_matrix(sector, x), rtol=0, atol=1e-12)


def test_off_centre_grid_solves_in_the_orbits_of_the_full_space():
    # an equal shift on every axis keeps the axis permutations: the solve
    # runs in the orbit sums of every state and matches the dense full space
    basis = _off_centre_basis(1)
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    gr = ground_state(basis, tensor, 3)
    fock = gr.ham.fock
    assert len(fock.ranks) == full_space(3, basis.size).size > gr.ham.size
    assert gr.ham.size == orbit_sums(3, basis.size, fock.ranks, tensor.mode_perms).shape[1]
    e_ref, x_ref, states, index = dense_ground(basis, tensor, 3)
    assert gr.energy == pytest.approx(e_ref, abs=1e-9)
    np.testing.assert_allclose(gr.gamma, dense_gamma(x_ref, states, index, basis.size), atol=1e-8)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ground_state_keeps_the_hamiltonian_it_solved(N, basis_q2, soft_tensor_q2):
    gr = ground_state(basis_q2, soft_tensor_q2, N)
    assert gr.ham.basis is basis_q2 and gr.ham.tensor is soft_tensor_q2
    assert gr.ham.fock.N == N and gr.ham.fock.size == gr.coefficients.size
    np.testing.assert_array_equal(gr.ham.one_body_matrix(gr.coefficients), gr.gamma)
    assert "ham" not in repr(gr)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_one_state_space_solves_by_lanczos(monkeypatch, N):
    # one mode: one occupation state, one Lanczos step, then beta = 0; the
    # result passes the gamma checks like every other solve
    from beclab.manybody import ground as ground_module

    checked = []
    validate = ground_module._validate_gamma
    monkeypatch.setattr(ground_module, "_validate_gamma",
                        lambda gamma, n: checked.append(n) or validate(gamma, n))
    basis = build_mode_basis(TRAP, GRID, 0)
    gr = ground_state(basis, interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)), N)
    x = np.ones(1)
    assert gr.ham.size == 1 and checked == [N]
    assert gr.energy == x @ gr.ham.matvec(x) and gr.residual == 0.0
    assert np.array_equal(gr.coefficients, x)
    assert np.array_equal(gr.gamma, gr.ham.one_body_matrix(x))


def _off_centre_basis(quanta):
    # lo shifted by half a cell: no mode has a definite parity on the grid
    h = GRID.spacing[0]
    shifted = bl.Grid(tuple(lo + h / 2 for lo in GRID.lo), GRID.extent, GRID.points)
    return build_mode_basis(TRAP, shifted, quanta)


def test_off_centre_grid_solves_in_full_space(monkeypatch):
    # the equal shift on every axis keeps the axis permutations: the
    # identity alone is the full space
    basis = _off_centre_basis(1)
    assert basis.axis_parity is None
    tensor = identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)))
    sizes = []
    build = PairOpHamiltonian.__init__

    def spy(self, basis, tensor, N):
        build(self, basis, tensor, N)
        sizes.append(self.fock.size)

    monkeypatch.setattr(PairOpHamiltonian, "__init__", spy)
    gr = ground_state(basis, tensor, 3)
    assert sizes == [full_space(3, basis.size).size]
    e_ref, _, _, _ = dense_ground(basis, tensor, 3)
    assert gr.energy == pytest.approx(e_ref, abs=1e-9)


@pytest.mark.parametrize("N,quanta", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (1, 1),
                                     (1, 2)])
def test_sector_pair_map_and_fold_on_random_vectors(N, quanta, basis_q1, basis_q2,
                                                    soft_tensor_q2):
    # per-class blocks of the sector pair map against literal a_k a_l, and the
    # class-blocked fold, gamma and the pair moment against the dense oracles,
    # off eigenvectors; N = 1 has no pair map.  The (N-2)-particle rows are
    # the states a_k a_l reaches: at q = 1, N = 5 no class reaches code 7
    # (one boson in each odd mode), so 19 of the 20 three-boson states
    basis = basis_q1 if quanta == 1 else basis_q2
    tensor = (identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)))
              if quanta == 1 else soft_tensor_q2)
    ham = PairOpHamiltonian(basis, tensor, N)
    H, states, index = dense_hamiltonian(basis, tensor, N)
    ranks = ham.fock.ranks
    rng = np.random.default_rng(N + 10 * quanta)
    for _ in range(3):
        x = _random_unit(rng, ham.size)
        full = np.zeros(len(states))
        full[ranks] = x
        np.testing.assert_allclose(ham.matvec(x), (H @ full)[ranks], atol=1e-12)
        np.testing.assert_allclose(ham.one_body_matrix(x),
                                   dense_gamma(full, states, index, basis.size), atol=1e-12)
        if N == 1:
            assert ham.pair_classes == ()
            continue
        literal = literal_pair_annihilation(full, N, basis.size, tensor.pairs)
        lower = _lower_ranks(ham)
        assert len(lower) == ham.lower_size == np.count_nonzero(literal.any(axis=1))
        assert ham.lower_size == (19 if (N, quanta) == (5, 1) else comb(N + basis.size - 3, N - 2))
        covered = np.zeros(literal.shape, dtype=bool)
        for cls, w in ham.pair_amplitudes(x):
            np.testing.assert_allclose(w, literal[np.ix_(lower[cls.rows], cls.pairs)],
                                       atol=1e-12)
            covered[np.ix_(lower[cls.rows], cls.pairs)] = True
        assert np.all(literal[~covered] == 0.0)
        c = _random_unit(rng, basis.size)
        dressed = literal @ tensor.pair_weights(c)
        np.testing.assert_allclose(ham.pair_annihilation(x, c), dressed[lower], atol=1e-12)
        assert pair_moment(ham, x, c) == pytest.approx(float(np.sum(dressed**2)), rel=1e-12)


@pytest.fixture(scope="module")
def sweep_tensor_q3(basis_q3):
    return identity_only(interaction_tensor(basis_q3, bl.PairPotential.soft_sphere(
        0.01, 8.853088605086427)))


def _assert_pair_map_is_composed(ham):
    # the class arrays laid end to end, in class order
    cols, amps = composed_pair_map(ham.fock, ham.tensor.pairs)
    assert np.array_equal(np.concatenate([cls.cols for cls in ham.pair_classes]), cols)
    assert np.array_equal(np.concatenate([cls.amps for cls in ham.pair_classes]), amps)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_pair_map_matches_the_composed_map_on_sweep_sectors(N, basis_q3, sweep_tensor_q3):
    _assert_pair_map_is_composed(PairOpHamiltonian(basis_q3, sweep_tensor_q3, N))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_pair_map_matches_the_composed_map_in_the_full_space(N):
    basis = _off_centre_basis(2)
    assert basis.axis_parity is None
    tensor = identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)))
    _assert_pair_map_is_composed(PairOpHamiltonian(basis, tensor, N))


@pytest.mark.parametrize("N, sector", [(2, False), (3, False), (2, True), (3, True)])
def test_gamma_forms_no_pair_gram_below_the_pair_count(N, sector):
    # fewer (N-2)-particle states than pairs: gamma reads W's gathered
    # columns, matching the Gram route of W^T W, and never holds a pairs x
    # pairs array (3.2 MB at M = 35) or half of one
    basis = (build_mode_basis(TRAP, GRID, 4) if sector else _off_centre_basis(4))
    assert (basis.axis_parity is not None) == sector
    tensor = identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)))
    ham = PairOpHamiltonian(basis, tensor, N)
    x = _random_unit(np.random.default_rng(N), ham.size)
    W = np.zeros((comb(N + basis.size - 3, N - 2), tensor.n_pairs))
    lower = _lower_ranks(ham)
    for cls, w in ham.pair_amplitudes(x):
        W[np.ix_(lower[cls.rows], cls.pairs)] = w
    p = tensor.pair_index
    want = (W.T @ W)[p[:, None, :], p[None, :, :]].sum(axis=2) / (N - 1)
    tracemalloc.start()
    try:
        got = ham.one_body_matrix(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    assert peak < tensor.n_pairs**2 * 8 / 2


@pytest.fixture(scope="module")
def tabulated_basis_q2():
    grid = bl.Grid.centered((12.0,) * 3, (24,) * 3)
    x, y, z = grid.meshgrid()
    return build_mode_basis(bl.TrapSpec.tabulated(grid, x**2 + 2 * y**2 + 3 * z**2), grid, 2)


@pytest.mark.parametrize("N", [2, 4])
def test_one_pair_grouping_and_one_layout_per_solve(monkeypatch, N, basis_q2,
                                                    tabulated_basis_q2):
    # the tensor groups the pairs and lays out its class blocks once, as it
    # is built, on the factored and the blocked (tabulated) route alike; the
    # space, the Hamiltonian's classes and folds and gamma (its Gram route at
    # N = 4) read them.  The spy is bound in every module holding the original
    grouped, laid_out = [], []
    group, lay = pair_classes, BlockLayout.of.__func__

    def group_spy(codes, pairs):
        grouped.append(len(codes))
        return group(codes, pairs)

    for module in [m for name, m in sys.modules.items() if name.startswith("beclab")]:
        for attr, value in list(vars(module).items()):
            if value is group:
                monkeypatch.setattr(module, attr, group_spy)
    monkeypatch.setattr(BlockLayout, "of", classmethod(
        lambda cls, classes, n: laid_out.append(n) or lay(cls, classes, n)))
    for basis in (basis_q2, tabulated_basis_q2):
        grouped.clear()
        laid_out.clear()
        tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
        assert grouped == [basis.size] and laid_out == [tensor.n_pairs]
        gr = ground_state(basis, identity_only(tensor), N)
        assert grouped == [basis.size] and laid_out == [tensor.n_pairs]
        assert (gr.ham.lower_size >= tensor.n_pairs) == (N == 4)


def test_hamiltonian_takes_the_codes_of_its_tensor(basis_q2, soft_tensor_q2):
    # the Hamiltonian builds its space from N and the tensor's codes: the
    # start state's sector of a parity tensor, every state of the same
    # tensor as one class (all-zero codes), from which the solve stays in
    # the start state's sector
    assert list(inspect.signature(PairOpHamiltonian).parameters) == ["basis", "tensor", "N"]
    for tensor, codes in ((soft_tensor_q2, basis_q2.parity_codes),
                          (one_class(soft_tensor_q2), np.zeros(basis_q2.size, dtype=np.int64))):
        fock = PairOpHamiltonian(basis_q2, tensor, 3).fock
        want = FockBasis.build(3, codes, tensor.mode_perms)
        assert fock.mode_codes is tensor.mode_codes and fock.code == want.code
        assert np.array_equal(fock.occupations, want.occupations)
        assert np.array_equal(fock.ranks, want.ranks)
    with pytest.raises(SolverFailureError, match="sizes disagree"):
        PairOpHamiltonian(build_mode_basis(TRAP, GRID, 1), soft_tensor_q2, 3)
    full = ground_state(basis_q2, one_class(soft_tensor_q2), 3)
    sector = ground_state(basis_q2, soft_tensor_q2, 3)
    assert full.ham.fock.size == full.ham.fock.full_size > sector.ham.fock.size
    assert full.energy == pytest.approx(sector.energy, rel=1e-12)
    np.testing.assert_allclose(full.gamma, sector.gamma, atol=1e-12)


def test_sector_hamiltonian_builds_only_the_n_minus_2_space(monkeypatch, basis_q2,
                                                           soft_tensor_q2):
    # the N-particle space, then one enumeration of the (N-2)-particle
    # states, for every class code at once, and no second occupation space
    from beclab.manybody import basis as basis_module

    built, enumerated = [], []
    build, states = FockBasis.build.__func__, basis_module._sector_states

    def build_spy(cls, N, *args, **kwargs):
        built.append(N)
        return build(cls, N, *args, **kwargs)

    def states_spy(F, mode_codes, wanted):
        enumerated.append((F.shape[1] - 1, sorted(wanted)))
        return states(F, mode_codes, wanted)

    monkeypatch.setattr(FockBasis, "build", classmethod(build_spy))
    monkeypatch.setattr(basis_module, "_sector_states", states_spy)
    ham = PairOpHamiltonian(basis_q2, soft_tensor_q2, 4)
    fock = ham.fock
    assert built == [4]
    assert enumerated == [(4, [fock.code]),
                          (2, sorted(fock.code ^ code for code, _ in
                                     pair_classes(fock.mode_codes, soft_tensor_q2.pairs)))]
    assert ham.lower_size == comb(2 + basis_q2.size - 1, 2)


def test_hamiltonian_keeps_no_full_pair_fold_or_one_boson_map(basis_q2, soft_tensor_q2):
    # only diag and each class's fold block and part of the pair map stay:
    # no (P, P) fold and no map over the (N-1)-particle states
    ham = PairOpHamiltonian(basis_q2, soft_tensor_q2, 4)
    M, P = basis_q2.size, soft_tensor_q2.n_pairs
    one_boson_rows = comb(3 + M - 1, 3) * M
    held = [a for value in vars(ham).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert len(held) == 1 and held[0] is ham.diag
    arrays = held + [a for cls in ham.pair_classes
                     for a in (cls.pairs, cls.rows, cls.cols, cls.amps, cls.fold)]
    assert all(a.shape != (P, P) and a.shape[0] != one_boson_rows for a in arrays)
    assert all(cls.fold.shape == (len(cls.pairs),) * 2 and len(cls.pairs) < P
               and cls.cols.size == cls.amps.size == len(cls.rows) * len(cls.pairs)
               for cls in ham.pair_classes)


def test_two_boson_sector_keeps_only_the_class_that_reaches_the_vacuum(monkeypatch):
    # N = 2 at M = 35: of the eight pair classes only the one of the start
    # state's code reaches the vacuum.  The others are neither kept nor
    # folded, and H and gamma are still those of the dense oracles: H = eps
    # + D F D over the two-boson states in pair order (D = sqrt 2 on a
    # doubly occupied mode, 1 otherwise) and the literal ladder gamma
    basis = build_mode_basis(TRAP, GRID, 4)
    tensor = identity_only(interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1)))
    folded = []
    fold = InteractionTensor.fold_hamiltonian_pairs
    monkeypatch.setattr(InteractionTensor, "fold_hamiltonian_pairs",
                        lambda self, c: folded.append(c) or fold(self, c))
    ham = PairOpHamiltonian(basis, tensor, 2)
    assert basis.size == 35 and len(pair_classes(ham.fock.mode_codes, tensor.pairs)) == 8
    (cls,) = ham.pair_classes
    assert len(folded) == 1 and tensor.classes[folded[0]][1] is cls.pairs
    assert np.array_equal(cls.rows, [0])
    k, l = tensor.pairs.T
    amp = np.where(k == l, np.sqrt(2.0), 1.0)
    H = np.diag(basis.energies[k] + basis.energies[l])
    H += amp[:, None] * dense_pair_fold(tensor) * amp
    states, index = fock_states(2, basis.size)
    ranks = ham.fock.ranks
    rng = np.random.default_rng(35)
    for _ in range(2):
        x = _random_unit(rng, ham.size)
        np.testing.assert_allclose(ham.matvec(x), H[np.ix_(ranks, ranks)] @ x, rtol=0, atol=1e-12)
        full = np.zeros(len(states))
        full[ranks] = x
        np.testing.assert_allclose(ham.one_body_matrix(x),
                                   dense_gamma(full, states, index, basis.size), atol=1e-12)


def _held_arrays(obj):
    """Every array held by obj's attributes (its cached properties formed
    first), through tuples and the many-body objects it keeps: tensors,
    pair classes and layouts, not bases or occupation spaces."""
    for name, attr in vars(type(obj)).items():
        if isinstance(attr, cached_property):
            getattr(obj, name)
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item
            elif type(item).__module__ in ("beclab.manybody.ground", "beclab.manybody.tensor"):
                yield from _held_arrays(item)


def test_parity_solve_holds_no_pair_by_pair_array(basis_q2, soft_tensor_q2):
    # the tensor keeps B's class blocks and the Hamiltonian its class folds:
    # no (P, P) array, a dense B included, is held by either
    ham = ground_state(basis_q2, soft_tensor_q2, 3).ham
    P = soft_tensor_q2.n_pairs
    arrays = list(_held_arrays(ham))
    assert all(a.shape != (P, P) for a in arrays)
    assert any(a is soft_tensor_q2.blocks for a in arrays)


@pytest.mark.parametrize("space", ["sector_q2", "sector_q3", "off_centre_full"])
def test_pair_amplitude_matrix_matches_the_full_space_route(space, basis_q2, soft_tensor_q2,
                                                            basis_q3, sweep_tensor_q3):
    # C from the solve's pair map against C from the full N = 2 basis, the
    # oracle annihilator and the coefficients scattered there, bit for bit
    if space == "off_centre_full":
        basis = _off_centre_basis(2)
        assert basis.axis_parity is None
        ham = PairOpHamiltonian(basis, identity_only(interaction_tensor(
            basis, bl.PairPotential.soft_sphere(5.0, 1.1))), 2)
    else:
        basis, tensor = ((basis_q2, soft_tensor_q2) if space == "sector_q2"
                         else (basis_q3, sweep_tensor_q3))
        ham = PairOpHamiltonian(basis, tensor, 2)
        assert ham.size < ham.fock.full_size
    rng = np.random.default_rng(ham.size)
    for _ in range(3):
        x = _random_unit(rng, ham.size)
        C = _pair_amplitude_matrix(ham, x)
        assert np.array_equal(C, full_space_pair_amplitudes(ham.fock, x))
        assert np.array_equal(C, C.T)


def test_one_rank_table_per_space_in_a_solve(monkeypatch, basis_q2, soft_tensor_q2):
    # the N-particle space ranks its states with one table; the pair map
    # reads it again, and its first N - 1 columns rank the (N-2)-particle states
    from beclab.manybody import basis as basis_module

    calls = []
    table = basis_module._rank_table
    monkeypatch.setattr(basis_module, "_rank_table",
                        lambda N, M: calls.append((N, M)) or table(N, M))
    ground_state(basis_q2, soft_tensor_q2, 4)
    assert calls == [(4, basis_q2.size)]


def test_readers_take_the_solve_from_the_ground_state(basis_q2, soft_tensor_q2):
    # the modes, the tensor and N of a solve live on ground.ham, and nothing
    # downstream takes them again
    for reader in (condensate_metrics, localization_profile, hartree_energy):
        assert not {"basis", "tensor", "N"} & set(inspect.signature(reader).parameters)
    assert not {"a", "g"} & set(inspect.signature(ground_state).parameters)
    assert "g" not in inspect.signature(solve_instance).parameters
    assert [f.name for f in fields(ManyBodyGround)] == ["energy", "coefficients", "gamma",
                                                         "residual", "ham"]
    gr = ground_state(basis_q2, soft_tensor_q2, 3)
    assert gr.N == gr.ham.fock.N == 3
    assert gr.ham.basis is basis_q2 and gr.ham.tensor is soft_tensor_q2


def _two_mode_basis(basis):
    # the first two product modes of a basis: energies 3 and 5
    return replace(basis, energies=basis.energies[:2], table_rows=basis.table_rows[:2])


@pytest.mark.parametrize("N, quanta", [(255, 1), (256, 1), (70_000, 0)])
def test_diag_on_a_narrow_occupation_table(N, quanta):
    # uint8, uint16 and uint32 tables: diag, accumulated by mode column,
    # equals the float table times the energies (exact integers here)
    basis = build_mode_basis(TRAP, GRID, quanta)
    if quanta:
        basis = _two_mode_basis(basis)
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    for space_tensor in (one_class(tensor), tensor):
        ham = PairOpHamiltonian(basis, space_tensor, N)
        fock = ham.fock
        assert fock.occupations.dtype == np.min_scalar_type(N)
        assert ham.diag.dtype == np.float64
        assert np.array_equal(ham.diag, fock.occupations.astype(float) @ basis.energies)


@pytest.fixture(scope="module")
def sweep_sector_n6(basis_q3):
    # the sweep's largest row: N = 6 in the sector of 23,228 of the 177,100
    # states of M = 20 modes; its pair map has 236,864 entries (3.61 MiB
    # of columns and amplitudes)
    return FockBasis.build(6, basis_q3.parity_codes, np.arange(basis_q3.size)[None])


def test_occupation_table_holds_one_byte_per_entry(basis_q3, sweep_sector_n6):
    # the build keeps D M table bytes and 8 D rank bytes: 0.63 MiB measured,
    # against 3.73 MiB with an int64 table.  The bound allows a second byte
    # per entry
    tracemalloc.start()
    try:
        fock = FockBasis.build(6, basis_q3.parity_codes, np.arange(basis_q3.size)[None])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fock.occupations.itemsize == 1
    assert np.array_equal(fock.occupations, sweep_sector_n6.occupations)
    assert held < fock.size * (2 * fock.M + 8)


def _map_bytes(ham):
    return sum(cls.cols.nbytes + cls.amps.nbytes for cls in ham.pair_classes)


def _measure_past_the_space(monkeypatch):
    """Once the Hamiltonian's own space is built, record the traced memory
    (the space included) and reset the traced peak, so that a peak less
    that record is the build's past its space; the space's own build is
    measured by ``test_occupation_table_holds_one_byte_per_entry``."""
    held = []
    build = FockBasis.build.__func__

    def spy(cls, N, *args):
        fock = build(cls, N, *args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return fock

    monkeypatch.setattr(FockBasis, "build", classmethod(spy))
    return held


def test_hamiltonian_build_casts_no_table_and_copies_no_pair_map(monkeypatch, sweep_sector_n6,
                                                                 basis_q3, sweep_tensor_q3):
    # past its space, diag, formed before the pair map, peaks at two
    # D-vectors (0.42 MiB measured, 3.72 with a float64 copy of the D x M
    # table; the bound is 0.89).  Each class keeps its part of the map as
    # pair_sources returned it: the build peaks at 5.37 MiB measured, 9.16
    # when the per-class pieces were concatenated, against the bound of
    # twice the map, 7.23 MiB.  No (D, M) table is kept
    held, peaks = _measure_past_the_space(monkeypatch), []
    build = PairOpHamiltonian._build_pair_classes

    def spy(self):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return build(self)

    monkeypatch.setattr(PairOpHamiltonian, "_build_pair_classes", spy)
    tracemalloc.start()
    try:
        ham = PairOpHamiltonian(basis_q3, sweep_tensor_q3, 6)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    fock = ham.fock
    assert np.array_equal(fock.occupations, sweep_sector_n6.occupations)
    assert len(held) == 1
    assert peaks[0] - held[0] < fock.size * fock.M * 8 / 4
    assert peaks[1] - held[0] < 2 * _map_bytes(ham)
    assert not any(a.ndim == 2 and len(a) == fock.size for a in _held_arrays(ham))


def test_hamiltonian_build_enumerates_no_second_space(monkeypatch, basis_q3, sweep_tensor_q3):
    # the (N-2)-particle states of the reached codes only, from the N-space's
    # rank table, with their codes from the enumeration: past its space, the
    # build peaks at 5.37 MiB measured, against 6.77 MiB with a second
    # FockBasis of the whole (N-2)-particle space and its D_(N-2) x M int64
    # parity table.  The bound is 1.65 times the map's 3.61 MiB, 5.96 MiB
    held = _measure_past_the_space(monkeypatch)
    tracemalloc.start()
    try:
        ham = PairOpHamiltonian(basis_q3, sweep_tensor_q3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert peak - held[0] < 1.65 * _map_bytes(ham)


def test_matvec_forms_no_array_of_the_pair_map_size(basis_q3, sweep_tensor_q3):
    # one class at a time: 1.21 MiB peak measured, against 2.41 MiB when
    # the products of the whole map were formed at once; the bound is one
    # float per map entry, 1.81 MiB.  The scatter adds in map order, so the
    # product is bit for bit that of one bincount over the class arrays
    # laid end to end
    ham = PairOpHamiltonian(basis_q3, sweep_tensor_q3, 6)
    x = _random_unit(np.random.default_rng(6), ham.size)
    tracemalloc.start()
    try:
        y = ham.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    classes = ham.pair_classes
    cols = np.concatenate([cls.cols for cls in classes])
    assert peak < cols.size * 8
    w = np.concatenate([((cls.amps * x[cls.cols]).reshape(-1, len(cls.pairs)) @ cls.fold).ravel()
                        * cls.amps for cls in classes])
    assert np.array_equal(y, ham.diag * x + np.bincount(cols, weights=w, minlength=ham.size))
