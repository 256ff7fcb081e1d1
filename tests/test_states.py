import numpy as np
import pytest

from modkit.errors import DomainError, NotPSD, ShapeMismatch
from modkit.inequalities import ozawa_s
from modkit.linalg import hs_norm, trace_norm
from modkit.sampling import complex_gaussian, random_density, random_psd
from modkit.states import (
    DensityMatrix,
    PositiveFunctional,
    functional_distance,
    is_faithful,
    purify,
)
from modkit.vecops import partial_trace, vec


def matrix_unit(d, mu, nu):
    e = np.zeros((d, d), dtype=complex)
    e[mu, nu] = 1.0
    return e


def test_density_validation_rejects_indefinite():
    with pytest.raises(NotPSD):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_validation_rejects_bad_trace():
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([0.7, 0.7]))


def test_positive_functional_allows_free_trace():
    phi = PositiveFunctional(np.diag([2.0, 3.0]))
    assert phi.total() == pytest.approx(5.0)


def test_purify_maximally_mixed():
    d = DensityMatrix(np.eye(3) / 3)
    assert np.allclose(purify(d).amplitudes, vec(np.eye(3)).amplitudes / np.sqrt(3))


def test_purify_pure_state():
    d = DensityMatrix(np.diag([1.0, 0.0]))
    assert np.allclose(purify(d).amplitudes, [1, 0, 0, 0])


def test_purify_frozen_example():
    d = DensityMatrix(np.diag([0.75, 0.25]))
    omega = purify(d)
    assert np.allclose(omega.amplitudes, [np.sqrt(3) / 2, 0, 0, 0.5])
    assert omega.norm() == pytest.approx(1.0)
    assert np.allclose(partial_trace(omega), d.matrix)


def test_purify_round_trip(rng):
    d = random_density(rng, 4)
    omega = purify(d)
    assert np.linalg.norm(partial_trace(omega) - d.matrix) < 1e-10


def test_is_faithful():
    assert is_faithful(DensityMatrix(np.eye(4) / 4))
    assert not is_faithful(DensityMatrix(np.diag([1.0, 0.0])))
    # below the 1e-12 relative threshold
    assert not is_faithful(DensityMatrix(np.diag([1 - 1e-14, 1e-14])))


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("ratio, faithful", [(5e-13, False), (2e-12, True)])
def test_drawn_densities_at_the_faithfulness_threshold(d, ratio, faithful):
    # U diag(p) U* with U random and min/max eigenvalue ratio on either side
    # of 1e-12: every route that needs a faithful state draws the same line
    from modkit.errors import SingularState
    from modkit.kms import gibbs_hamiltonian
    from modkit.modular import relative_s_matrix
    from modkit.sampling import random_unitary
    from modkit.schmidt import is_cyclic_separating

    rng = np.random.default_rng(d + int(faithful))
    p = np.ones(d)
    p[0] = ratio
    p /= p.sum()
    trace_state = DensityMatrix(np.eye(d) / d)
    for _ in range(10):
        u = random_unitary(rng, d)
        m = (u * p) @ np.conj(u).T
        density = DensityMatrix(0.5 * (m + np.conj(m).T))
        routes = [is_faithful(density), is_cyclic_separating(purify(density))]
        for build in (
            lambda: relative_s_matrix(trace_state, density),
            lambda: gibbs_hamiltonian(density, 1.0),
        ):
            try:
                build()
                routes.append(True)
            except SingularState:
                routes.append(False)
        assert routes == [faithful] * 4


def test_functional_distance_zero(rng):
    phi = PositiveFunctional(random_psd(rng, 3, trace_one=False))
    assert functional_distance(phi, phi) == pytest.approx(0.0, abs=1e-14)


def test_functional_distance_orthogonal_pures():
    a = PositiveFunctional(np.diag([1.0, 0.0]))
    b = PositiveFunctional(np.diag([0.0, 1.0]))
    assert functional_distance(a, b) == pytest.approx(2.0)


def test_functional_distance_spectral_oracle(rng):
    a = PositiveFunctional(random_psd(rng, 4, trace_one=False))
    b = PositiveFunctional(random_psd(rng, 4, trace_one=False))
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    assert functional_distance(a, b) == pytest.approx(np.sum(np.abs(eigs)), abs=1e-12)


def test_functional_distance_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        functional_distance(
            PositiveFunctional(np.eye(2)), PositiveFunctional(np.eye(3))
        )


def test_araki_norm_estimates(rng):
    # for xi = vec(X), eta = vec(Y) with X, Y PSD:
    # ||X-Y||_HS^2 <= ||X^2-Y^2||_1 <= ||X-Y||_HS ||X+Y||_HS
    for _ in range(50):
        x = random_psd(rng, 4, trace_one=False)
        y = random_psd(rng, 4, trace_one=False)
        lower = hs_norm(x - y) ** 2
        middle = trace_norm(x @ x - y @ y)
        upper = hs_norm(x - y) * hs_norm(x + y)
        assert lower <= middle + 1e-12
        assert middle <= upper + 1e-12


def test_functional_is_not_desynchronised_by_a_later_write():
    m = np.diag([1.0, 2.0]).astype(complex)
    pf = PositiveFunctional(m)
    eye = PositiveFunctional(np.eye(2))
    before = ozawa_s(pf, eye)
    m[0, 0] = -5  # the caller's array; pf keeps its own copy
    after = ozawa_s(pf, eye)
    assert after == before
    assert np.array_equal(pf.matrix, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        pf.matrix[0, 0] = -5
