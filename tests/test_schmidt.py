import numpy as np
import pytest

from modkit.errors import DimensionMismatch, ZeroVector
from modkit.sampling import complex_gaussian, random_faithful_density, random_unitary
from modkit.schmidt import is_cyclic_separating, schmidt_decompose
from modkit.states import PositiveFunctional, is_faithful, purify
from modkit.vecops import BipartiteVector, partial_trace, vec


def test_maximally_entangled():
    u = vec(np.eye(2) / np.sqrt(2))
    data = schmidt_decompose(u)
    assert data.rank == 2
    assert np.allclose(data.coefficients, [1 / np.sqrt(2)] * 2)


def test_product_vector(rng):
    a = complex_gaussian(rng, 3, 1).ravel()
    b = complex_gaussian(rng, 4, 1).ravel()
    u = BipartiteVector(3, 4, np.kron(a, b))
    data = schmidt_decompose(u)
    assert data.rank == 1
    assert data.coefficients[0] == pytest.approx(
        np.linalg.norm(a) * np.linalg.norm(b)
    )


def test_diagonal_coefficients():
    u = vec(np.diag([np.sqrt(0.9), np.sqrt(0.1)]))
    data = schmidt_decompose(u)
    assert np.allclose(data.coefficients, [np.sqrt(0.9), np.sqrt(0.1)])


def test_reconstruction_and_orthonormality(rng):
    for _ in range(15):
        u = vec(complex_gaussian(rng, 3, 4))
        data = schmidt_decompose(u)
        assert (data.reconstruct() - u).norm() < 1e-10
        ly = np.conj(data.left_vectors).T @ data.left_vectors
        rz = np.conj(data.right_vectors).T @ data.right_vectors
        assert np.linalg.norm(ly - np.eye(data.rank)) < 1e-10
        assert np.linalg.norm(rz - np.eye(data.rank)) < 1e-10
        assert np.all(np.diff(data.coefficients) <= 0)
        assert np.all(data.coefficients > 0)


def test_coefficients_squared_match_reduced_state(rng):
    u = vec(complex_gaussian(rng, 4))
    data = schmidt_decompose(u)
    reduced = partial_trace(u)
    eigs = np.sort(np.linalg.eigvalsh(reduced))[::-1]
    padded = np.zeros(4)
    padded[: data.rank] = data.coefficients**2
    assert np.linalg.norm(eigs - padded) < 1e-10


def test_zero_vector_raises():
    with pytest.raises(ZeroVector):
        schmidt_decompose(BipartiteVector(2, 2, np.zeros(4)))


def test_rank_product_and_identity(rng):
    a = complex_gaussian(rng, 3, 1).ravel()
    b = complex_gaussian(rng, 3, 1).ravel()
    assert schmidt_decompose(BipartiteVector(3, 3, np.kron(a, b))).rank == 1
    assert schmidt_decompose(vec(np.eye(4))).rank == 4


def test_rank_of_projector():
    proj = np.diag([1.0, 1.0, 0.0, 0.0])
    assert schmidt_decompose(vec(proj)).rank == 2


def test_rank_invariant_under_local_unitaries(rng):
    for r in (1, 2, 3, 4):
        x = complex_gaussian(rng, 4, r) @ complex_gaussian(rng, r, 4)
        u = vec(x)
        assert schmidt_decompose(u).rank == r
        rotated = np.kron(random_unitary(rng, 4), random_unitary(rng, 4)) @ u.amplitudes
        assert schmidt_decompose(BipartiteVector(4, 4, rotated)).rank == r


def test_cyclic_separating_identity():
    assert is_cyclic_separating(vec(np.eye(3)))


def test_cyclic_separating_product_false(rng):
    a = complex_gaussian(rng, 3, 1).ravel()
    b = complex_gaussian(rng, 3, 1).ravel()
    assert not is_cyclic_separating(BipartiteVector(3, 3, np.kron(a, b)))


def test_cyclic_separating_faithful_purification(rng):
    d = random_faithful_density(rng, 4)
    assert is_cyclic_separating(purify(d))


def test_cyclic_separating_needs_square(rng):
    with pytest.raises(DimensionMismatch):
        is_cyclic_separating(vec(complex_gaussian(rng, 2, 3)))


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("r", [1e-5, 1e-6, 1e-7, 1e-9, 1e-11])
def test_cyclic_separating_shares_the_faithfulness_threshold(d, r):
    # Schmidt coefficients (1, ..., 1, r): the reduced state's eigenvalue
    # ratio is r^2, faithful at the 1e-12 threshold only for r above 1e-6
    x = np.diag([1.0] * (d - 1) + [r])
    if d > 2:
        rng = np.random.default_rng(16)
        x = random_unitary(rng, d) @ x @ random_unitary(rng, d)
    u = vec(x)
    faithful = is_faithful(PositiveFunctional(partial_trace(u)))
    assert is_cyclic_separating(u) is faithful
    if r != 1e-6:  # at the threshold itself rounding decides
        assert faithful is (r > 1e-6)


def test_cyclic_separating_zero_vector():
    with pytest.raises(ZeroVector):
        is_cyclic_separating(vec(np.zeros((3, 3))))
