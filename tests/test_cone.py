import numpy as np
import pytest

from modkit.cone import (
    cone_contains,
    cone_element,
    cone_pairing,
    decompose_general,
    decompose_j_fixed,
)
from modkit.errors import DimensionMismatch, NotJFixed, NotPSD
from modkit.modular import modular_conjugation, pi_left
from modkit.sampling import (
    complex_gaussian,
    random_density,
    random_hermitian,
    random_psd,
)
from modkit.states import DensityMatrix, PositiveFunctional, purify
from modkit.vecops import SuperOperator, unvec, vec


def matrix_unit(d, mu, nu):
    e = np.zeros((d, d), dtype=complex)
    e[mu, nu] = 1.0
    return e


def test_contains_identity():
    assert cone_contains(vec(np.eye(3)))


def test_contains_rejects_indefinite():
    x = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)  # eigenvalues +-1
    assert not cone_contains(vec(x))


def test_contains_gram(rng):
    b = complex_gaussian(rng, 4)
    assert cone_contains(vec(b @ np.conj(b).T))


def test_contains_needs_square(rng):
    with pytest.raises(DimensionMismatch):
        cone_contains(vec(complex_gaussian(rng, 2, 3)))


def test_representative_tracial():
    rep = purify(DensityMatrix(np.eye(3) / 3))
    assert np.allclose(rep.amplitudes, vec(np.eye(3)).amplitudes / np.sqrt(3))


def test_representative_diagonal():
    lam = np.array([0.5, 0.3, 0.2])
    rep = purify(DensityMatrix(np.diag(lam)))
    assert np.allclose(unvec(rep), np.diag(np.sqrt(lam)))


def test_representative_reproduces_functional(rng):
    # <Omega, (M (x) 1) Omega> = Tr(X* M X) with X = unvec(Omega)
    d = DensityMatrix(random_psd(rng, 3))
    x = unvec(purify(d))
    for _ in range(10):
        m = complex_gaussian(rng, 3)
        assert complex(np.vdot(x, m @ x)) == pytest.approx(
            complex(np.trace(d.matrix @ m)), abs=1e-12
        )


def test_from_witness_validates(rng):
    with pytest.raises(NotPSD):
        cone_element(np.diag([1.0, -1.0]))
    x = random_psd(rng, 3)
    elem = cone_element(x)
    assert np.array_equal(elem.amplitudes, x.ravel())
    assert np.array_equal(unvec(elem), x)


def test_j_fixed_split_of_cone_element(rng):
    x = random_psd(rng, 3)
    plus, minus = decompose_j_fixed(vec(x))
    assert np.linalg.norm(unvec(plus) - x) < 1e-12
    assert minus.norm() < 1e-12


def test_j_fixed_diagonal_split():
    plus, minus = decompose_j_fixed(vec(np.diag([1.0, -2.0])))
    assert np.allclose(unvec(plus), np.diag([1.0, 0.0]))
    assert np.allclose(unvec(minus), np.diag([0.0, 2.0]))


def test_j_fixed_orthogonality(rng):
    for _ in range(20):
        t = random_hermitian(rng, 4)
        v = vec(t)
        plus, minus = decompose_j_fixed(v)
        assert abs(plus.inner(minus)) < 1e-12
        assert ((plus - minus) - v).norm() < 1e-12


def test_j_fixed_rejects_non_hermitian(rng):
    with pytest.raises(NotJFixed):
        decompose_j_fixed(vec(complex_gaussian(rng, 3)))


def test_general_decomposition_cone_input(rng):
    x = random_psd(rng, 3)
    c1, c2, c3, c4 = decompose_general(vec(x))
    assert np.linalg.norm(unvec(c1) - x) < 1e-12
    for c in (c2, c3, c4):
        assert c.norm() < 1e-12


def test_general_decomposition_imaginary_identity():
    c1, c2, c3, c4 = decompose_general(vec(1j * np.eye(2)))
    assert c1.norm() < 1e-14 and c2.norm() < 1e-14 and c4.norm() < 1e-14
    assert np.allclose(unvec(c3), np.eye(2))


def test_general_decomposition_reconstructs(rng):
    for _ in range(10):
        v = vec(complex_gaussian(rng, 4))
        c1, c2, c3, c4 = decompose_general(v)
        recon = c1 - c2 + 1j * c3 - 1j * c4
        assert (recon - v).norm() < 1e-12
        for c in (c1, c2, c3, c4):
            assert cone_contains(c)


def test_self_duality_forward(rng):
    elems = [cone_element(random_psd(rng, 3)) for _ in range(20)]
    for xi in elems:
        for eta in elems:
            assert cone_pairing(xi, eta) >= -1e-12


def test_self_duality_converse_extreme_rays(rng):
    # a vector pairing negatively against some ray vec(|u><u|) is outside
    t = random_hermitian(rng, 4)  # generically indefinite
    v = vec(t)
    pairings = []
    for _ in range(200):
        u = complex_gaussian(rng, 4, 1).ravel()
        u = u / np.linalg.norm(u)
        ray = cone_element(np.outer(u, np.conj(u)))
        pairings.append(cone_pairing(v, ray))
    found_negative = min(pairings) < -1e-12
    assert found_negative == (not cone_contains(v))


def test_pointedness(rng):
    x = random_psd(rng, 3) + 0.1 * np.eye(3)
    v = vec(x)
    assert cone_contains(v)
    assert not cone_contains(-v)


def test_j_fixes_cone_elements(rng):
    j = modular_conjugation(3)
    for _ in range(10):
        elem = cone_element(random_psd(rng, 3))
        assert (j.apply(elem) - elem).norm() < 1e-12


def test_invariance_under_m_jm(rng):
    d = 3
    j = modular_conjugation(d)
    for _ in range(20):
        elem = cone_element(random_psd(rng, d))
        m = complex_gaussian(rng, d)
        pim = SuperOperator(d, pi_left(m))
        image = pim.compose(j).compose(pim).compose(j).apply(elem)
        assert cone_contains(image)
        # the witness transforms as M X M*
        expected = m @ unvec(elem) @ np.conj(m).T
        assert np.linalg.norm(image.amplitudes - vec(expected).amplitudes) < 1e-10


def test_representative_accepts_positive_functional(rng):
    phi = PositiveFunctional(2.5 * random_psd(rng, 3))
    rep = purify(phi)
    assert cone_contains(rep)
    assert rep.norm() ** 2 == pytest.approx(phi.total(), rel=1e-10)


def test_purification_lies_in_cone(rng):
    # vec(sqrt(D)) is the cone representative of D, singular states included
    for d in (2, 3, 16):
        for density in (
            random_density(rng, d),
            DensityMatrix(np.diag([1.0] + [0.0] * (d - 1))),
        ):
            omega = purify(density)
            assert cone_contains(omega)
            assert omega.norm() == pytest.approx(1.0, rel=1e-12)
