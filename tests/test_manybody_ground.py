import inspect
import tracemalloc
from dataclasses import fields
from functools import cached_property
from math import comb

import numpy as np
import pytest

import beclab as bl
from beclab.manybody import (ManyBodyGround, build_mode_basis, condensate_metrics,
                             ground_state, hartree_energy, localization_profile,
                             momentum_distribution, solve_instance)
from beclab.manybody.basis import FockBasis
from beclab.manybody.ground import PairOpHamiltonian, _lanczos, pair_moment
from beclab.manybody.localization import _pair_amplitude_matrix
from beclab.manybody.tensor import interaction_tensor

from .oracles import (composed_pair_map, dense_gamma, dense_ground, dense_hamiltonian,
                      fock_states, full_space_pair_amplitudes, literal_pair_amplitudes,
                      literal_pair_annihilation)

GRID = bl.Grid.centered((12.0,) * 3, (32,) * 3)
TRAP = bl.TrapSpec.harmonic((1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def basis_q1():
    return build_mode_basis(TRAP, GRID, 1)


@pytest.fixture(scope="module")
def basis_q2():
    return build_mode_basis(TRAP, GRID, 2)


@pytest.fixture(scope="module")
def soft_tensor_q2(basis_q2):
    return interaction_tensor(basis_q2, bl.PairPotential.soft_sphere(5.0, 1.1))


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
    fock = FockBasis.build(N, basis.size)
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
    # vanishes at step 1.  ground_state solves the sector with that loop
    basis = basis_q1 if quanta == 1 else basis_q2
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(height, 1.1))
    H, _, _ = dense_hamiltonian(basis, tensor, N)
    for codes in (None, basis.parity_codes):
        ham = PairOpHamiltonian(basis, tensor, FockBasis.build(N, basis.size, mode_codes=codes))
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
    fock = FockBasis.build(3, basis_q2.size)
    ham = PairOpHamiltonian(basis_q2, soft_tensor_q2, fock)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(fock.size)
        x /= np.linalg.norm(x)
        assert gr.energy <= ham.expectation(x) + 1e-10


def test_hartree_bound_and_pair_moment(basis_q2, soft_tensor_q2):
    N = 3
    gr = ground_state(basis_q2, soft_tensor_q2, N)
    c = np.zeros(basis_q2.size)
    c[0] = 1.0
    rq = hartree_energy(gr.ham, c)
    assert gr.energy <= rq + 1e-10
    pm = pair_moment(gr.ham, gr.coefficients, c) / N**2
    # the same moment on the full space, with the sector state scattered there
    full = PairOpHamiltonian(basis_q2, soft_tensor_q2, FockBasis.build(N, basis_q2.size))
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
    ham = PairOpHamiltonian(basis, tensor, FockBasis.build(N, basis.size))
    states, index = fock_states(N, basis.size)
    rng = np.random.default_rng(N + 10 * quanta)
    for _ in range(3):
        x = _random_unit(rng, ham.size)
        np.testing.assert_allclose(ham.one_body_matrix(x),
                                   dense_gamma(x, states, index, basis.size), atol=1e-12)
        if N == 1:
            assert ham.pair_map is None
            continue
        pairs = literal_pair_annihilation(x, N, basis.size, tensor.pairs)
        cols, data = ham.pair_map
        np.testing.assert_allclose((data * x[cols]).reshape(-1, tensor.n_pairs), pairs,
                                   atol=1e-12)


def test_pair_amplitude_matrix_matches_state_loop(basis_q2, soft_tensor_q2):
    ham = PairOpHamiltonian(basis_q2, soft_tensor_q2, FockBasis.build(2, basis_q2.size))
    rng = np.random.default_rng(5)
    x = _random_unit(rng, ham.size)
    np.testing.assert_allclose(_pair_amplitude_matrix(ham, x),
                               literal_pair_amplitudes(x, fock_states(2, basis_q2.size)[0]),
                               atol=1e-15)


def _sector_hamiltonian(basis, tensor, N):
    fock = FockBasis.build(N, basis.size, mode_codes=basis.parity_codes)
    return PairOpHamiltonian(basis, tensor, fock)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_sector_solve_matches_full_space(N, basis_q2, soft_tensor_q2):
    # the reference is the Lanczos solve of the full-space Hamiltonian from
    # the same start state, which never leaves the start state's sector
    full = PairOpHamiltonian(basis_q2, soft_tensor_q2, FockBasis.build(N, basis_q2.size))
    start = np.zeros(full.size)
    start[0] = 1.0
    energy, x_ref, _ = _lanczos(full, start)
    gr = ground_state(basis_q2, soft_tensor_q2, N)
    sector = gr.ham.fock
    assert sector.mode_codes is not None and sector.size < full.size
    assert gr.coefficients.shape == (sector.size,)
    assert gr.energy == pytest.approx(energy, rel=1e-12)
    np.testing.assert_allclose(gr.gamma, full.one_body_matrix(x_ref), atol=1e-12)
    np.testing.assert_allclose(gr.coefficients, x_ref[sector.ranks], atol=1e-12)
    outside = np.setdiff1d(np.arange(full.size), sector.ranks)
    assert np.all(x_ref[outside] == 0.0)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ground_state_keeps_the_hamiltonian_it_solved(N, basis_q2, soft_tensor_q2):
    gr = ground_state(basis_q2, soft_tensor_q2, N)
    assert gr.ham.basis is basis_q2 and gr.ham.tensor is soft_tensor_q2
    assert gr.ham.fock.N == N and gr.ham.fock.size == gr.coefficients.size
    np.testing.assert_array_equal(gr.ham.one_body_matrix(gr.coefficients), gr.gamma)
    assert "ham" not in repr(gr)


def _off_centre_basis(quanta):
    # lo shifted by half a cell: no mode has a definite parity on the grid
    h = GRID.spacing[0]
    shifted = bl.Grid(tuple(lo + h / 2 for lo in GRID.lo), GRID.extent, GRID.points)
    return build_mode_basis(TRAP, shifted, quanta)


def test_off_centre_grid_solves_in_full_space(monkeypatch):
    basis = _off_centre_basis(1)
    assert basis.parity_codes is None
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    sizes = []
    build = PairOpHamiltonian.__init__

    def spy(self, basis, tensor, fock):
        sizes.append(fock.size)
        build(self, basis, tensor, fock)

    monkeypatch.setattr(PairOpHamiltonian, "__init__", spy)
    gr = ground_state(basis, tensor, 3)
    assert sizes == [FockBasis.build(3, basis.size).size]
    e_ref, _, _, _ = dense_ground(basis, tensor, 3)
    assert gr.energy == pytest.approx(e_ref, abs=1e-9)


@pytest.mark.parametrize("N,quanta", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (1, 1), (1, 2)])
def test_sector_pair_map_and_fold_on_random_vectors(N, quanta, basis_q1, basis_q2,
                                                    soft_tensor_q2):
    # per-class blocks of the sector pair map against literal a_k a_l, and the
    # class-blocked fold and gamma against the dense oracles, off eigenvectors;
    # N = 1 has no pair map
    basis = basis_q1 if quanta == 1 else basis_q2
    tensor = (interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
              if quanta == 1 else soft_tensor_q2)
    ham = _sector_hamiltonian(basis, tensor, N)
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
            assert ham.pair_map is None
            continue
        literal = literal_pair_annihilation(full, N, basis.size, tensor.pairs)
        covered = np.zeros(literal.shape, dtype=bool)
        for cls, w in ham.pair_amplitudes(x):
            np.testing.assert_allclose(w, literal[np.ix_(cls.lower, cls.pairs)], atol=1e-12)
            covered[np.ix_(cls.lower, cls.pairs)] = True
        assert np.all(literal[~covered] == 0.0)
        c = _random_unit(rng, basis.size)
        np.testing.assert_allclose(ham.pair_annihilation(x, c),
                                   literal @ tensor.pair_weights(c), atol=1e-12)


@pytest.fixture(scope="module")
def sweep_tensor_q3(basis_q3):
    return interaction_tensor(basis_q3, bl.PairPotential.soft_sphere(0.01, 8.853088605086427))


def _assert_pair_map_is_composed(ham):
    cols, amps = composed_pair_map(ham.fock, ham.tensor.pairs)
    assert np.array_equal(ham.pair_map[0], cols)
    assert np.array_equal(ham.pair_map[1], amps)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_pair_map_matches_the_composed_map_on_sweep_sectors(N, basis_q3, sweep_tensor_q3):
    _assert_pair_map_is_composed(_sector_hamiltonian(basis_q3, sweep_tensor_q3, N))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_pair_map_matches_the_composed_map_in_the_full_space(N):
    basis = _off_centre_basis(2)
    assert basis.parity_codes is None
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    _assert_pair_map_is_composed(PairOpHamiltonian(basis, tensor,
                                                   FockBasis.build(N, basis.size)))


@pytest.mark.parametrize("N, sector", [(2, False), (3, False), (2, True), (3, True)])
def test_gamma_forms_no_pair_gram_below_the_pair_count(N, sector):
    # fewer (N-2)-particle states than pairs: gamma reads W's gathered
    # columns, matching the Gram route of W^T W, and never holds a pairs x
    # pairs array (3.2 MB at M = 35) or half of one
    basis = (build_mode_basis(TRAP, GRID, 4) if sector else _off_centre_basis(4))
    assert (basis.parity_codes is not None) == sector
    tensor = interaction_tensor(basis, bl.PairPotential.soft_sphere(5.0, 1.1))
    fock = FockBasis.build(N, basis.size, mode_codes=basis.parity_codes if sector else None)
    ham = PairOpHamiltonian(basis, tensor, fock)
    x = _random_unit(np.random.default_rng(N), ham.size)
    W = np.zeros((comb(N + basis.size - 3, N - 2), tensor.n_pairs))
    for cls, w in ham.pair_amplitudes(x):
        W[np.ix_(cls.lower, cls.pairs)] = w
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


def test_sector_hamiltonian_builds_only_the_n_minus_2_space(monkeypatch, basis_q2,
                                                           soft_tensor_q2):
    fock = FockBasis.build(4, basis_q2.size, mode_codes=basis_q2.parity_codes)
    built = []
    build = FockBasis.build.__func__

    def build_spy(cls, N, *args, **kwargs):
        built.append(N)
        return build(cls, N, *args, **kwargs)

    monkeypatch.setattr(FockBasis, "build", classmethod(build_spy))
    PairOpHamiltonian(basis_q2, soft_tensor_q2, fock)
    assert built == [2]


def test_hamiltonian_keeps_no_full_pair_fold_or_one_boson_map(basis_q2, soft_tensor_q2):
    # only the per-class fold blocks and the pair map stay: no (P, P) fold
    # and no map over the (N-1)-particle states
    ham = _sector_hamiltonian(basis_q2, soft_tensor_q2, 4)
    M, P = basis_q2.size, soft_tensor_q2.n_pairs
    one_boson_rows = comb(3 + M - 1, 3) * M
    arrays = [a for value in vars(ham).values()
              for a in (value if isinstance(value, tuple) else (value,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) == 3         # diag and the pair map's columns and amplitudes
    assert all(a.shape != (P, P) and a.shape[0] != one_boson_rows for a in arrays)
    assert all(cls.fold.shape == (len(cls.pairs),) * 2 and len(cls.pairs) < P
               for cls in ham.pair_classes)


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
        assert basis.parity_codes is None
        ham = PairOpHamiltonian(basis, interaction_tensor(basis, bl.PairPotential.soft_sphere(
            5.0, 1.1)), FockBasis.build(2, basis.size))
    else:
        basis, tensor = ((basis_q2, soft_tensor_q2) if space == "sector_q2"
                         else (basis_q3, sweep_tensor_q3))
        ham = _sector_hamiltonian(basis, tensor, 2)
        assert ham.size < ham.fock.full_size
    rng = np.random.default_rng(ham.size)
    for _ in range(3):
        x = _random_unit(rng, ham.size)
        C = _pair_amplitude_matrix(ham, x)
        assert np.array_equal(C, full_space_pair_amplitudes(ham.fock, x))
        assert np.array_equal(C, C.T)


def test_readers_take_the_solve_from_the_ground_state(basis_q2, soft_tensor_q2):
    # the modes, the tensor and N of a solve live on ground.ham, and nothing
    # downstream takes them again
    for reader in (condensate_metrics, momentum_distribution, localization_profile,
                   hartree_energy):
        assert not {"basis", "tensor", "N"} & set(inspect.signature(reader).parameters)
    assert not {"a", "g"} & set(inspect.signature(ground_state).parameters)
    assert "g" not in inspect.signature(solve_instance).parameters
    assert [f.name for f in fields(ManyBodyGround)] == ["energy", "coefficients", "gamma",
                                                         "residual", "ham"]
    gr = ground_state(basis_q2, soft_tensor_q2, 3)
    assert gr.N == gr.ham.fock.N == 3
    assert gr.ham.basis is basis_q2 and gr.ham.tensor is soft_tensor_q2
