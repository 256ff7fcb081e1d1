import numpy as np
import pytest

from modkit import campaigns, vecops
from modkit.errors import ShapeMismatch
from modkit.sampling import complex_gaussian
from modkit.vecops import (
    BipartiteVector,
    SuperOperator,
    conjugate_vec,
    partial_trace,
    swap_operator,
    unvec,
    vec,
)


def matrix_unit(d, mu, nu):
    e = np.zeros((d, d), dtype=complex)
    e[mu, nu] = 1.0
    return e


def test_vec_of_matrix_unit():
    # vec(E_01) = e_0 (x) e_1
    assert np.array_equal(vec(matrix_unit(2, 0, 1)).amplitudes, [0, 1, 0, 0])


def test_vec_identity():
    assert np.array_equal(vec(np.eye(2)).amplitudes, [1, 0, 0, 1])


def test_vec_outer_product(rng):
    u = complex_gaussian(rng, 3, 1).ravel()
    v = complex_gaussian(rng, 2, 1).ravel()
    got = vec(np.outer(u, np.conj(v)))
    assert got.dims == (3, 2)
    assert np.allclose(got.amplitudes, np.kron(u, np.conj(v)))


def test_unvec_basis():
    v = BipartiteVector(2, 2, [0, 1, 0, 0])
    assert np.array_equal(unvec(v), matrix_unit(2, 0, 1))


def test_unvec_identity():
    v = BipartiteVector(2, 2, [1, 0, 0, 1])
    assert np.array_equal(unvec(v), np.eye(2))


def test_vec_unvec_round_trip_exact(rng):
    a = complex_gaussian(rng, 3, 2)
    v = vec(a)
    assert np.array_equal(unvec(v), a)
    assert np.array_equal(vec(unvec(v)).amplitudes, v.amplitudes)


def test_vec_isometry(rng):
    for _ in range(20):
        a = complex_gaussian(rng, 3, 4)
        b = complex_gaussian(rng, 3, 4)
        assert vec(a).inner(vec(b)) == pytest.approx(
            complex(np.trace(np.conj(a).T @ b)), abs=1e-12
        )


def kron_apply(a, b, x):
    """(A (x) B) vec(X) through the factored superoperator, as vec(A X B^T)."""
    return SuperOperator.factored(a.shape[0], a, b).apply(vec(x))


def test_kron_apply_identity_factors(rng):
    x = complex_gaussian(rng, 3)
    got = kron_apply(np.eye(3), np.eye(3), x)
    assert np.allclose(got.amplitudes, vec(x).amplitudes)


def test_kron_apply_dense_oracle(rng):
    a = complex_gaussian(rng, 3)
    b = complex_gaussian(rng, 3)
    x = complex_gaussian(rng, 3)
    dense = np.kron(a, b) @ vec(x).amplitudes
    assert np.linalg.norm(kron_apply(a, b, x).amplitudes - dense) < 1e-12


def test_kron_apply_rectangular(rng):
    # the row-major vec convention on rectangular shapes:
    # (A (x) B) vec(X) = vec(A X B^T) with A (2, 3), B (4, 5), X (3, 5)
    a = complex_gaussian(rng, 2, 3)
    b = complex_gaussian(rng, 4, 5)
    x = complex_gaussian(rng, 3, 5)
    got = vec(a @ x @ b.T)
    assert got.dims == (2, 4)
    dense = np.kron(a, b) @ vec(x).amplitudes
    assert np.linalg.norm(got.amplitudes - dense) < 1e-12


def test_kron_apply_matrix_units():
    e = matrix_unit(2, 0, 0)
    assert np.array_equal(kron_apply(e, e, e).amplitudes, vec(e).amplitudes)


def test_kron_apply_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        kron_apply(np.eye(2), np.eye(2), complex_gaussian(rng, 3))


def test_partial_trace_identity():
    v = vec(np.eye(2))
    assert np.allclose(partial_trace(v), np.eye(2))


def test_partial_trace_purification():
    d = np.diag([0.75, 0.25])
    v = vec(np.sqrt(d))
    assert np.allclose(partial_trace(v), d)


def test_partial_trace_contraction_oracle(rng):
    for shape in ((3, 3), (2, 5)):
        a = complex_gaussian(rng, *shape)
        # independent index-contraction oracle of Tr_2 |u><u|
        oracle = np.einsum("mn,pn->mp", a, np.conj(a))
        assert np.linalg.norm(partial_trace(vec(a)) - oracle) < 1e-12


def test_swap_scalar():
    p = swap_operator(1)
    assert p.matrix.shape == (1, 1)
    assert p.matrix[0, 0] == 1.0


def test_swap_basis():
    p = swap_operator(2)
    got = p.apply(BipartiteVector(2, 2, [0, 1, 0, 0]))
    assert np.array_equal(got.amplitudes, [0, 0, 1, 0])


def test_swap_is_transpose(rng):
    p = swap_operator(3)
    x = complex_gaussian(rng, 3)
    assert np.allclose(p.apply(vec(x)).amplitudes, vec(x.T).amplitudes)
    assert np.allclose(p.compose(p).matrix, np.eye(9))


def test_conjugate_vec():
    real = BipartiteVector(1, 2, [1.0, 2.0])
    assert np.array_equal(conjugate_vec(real).amplitudes, [1.0, 2.0])
    v = BipartiteVector(1, 2, [1j, 0.0])
    assert np.array_equal(conjugate_vec(v).amplitudes, [-1j, 0.0])


def test_adjoint_via_swap_and_conjugation(rng):
    # K P vec(X) = vec(X*): conjugation after transpose gives the adjoint
    x = complex_gaussian(rng, 3)
    p = swap_operator(3)
    got = conjugate_vec(p.apply(vec(x)))
    assert np.allclose(got.amplitudes, vec(np.conj(x).T).amplitudes)


def test_s_equals_pk_equals_kp(rng):
    x = complex_gaussian(rng, 3)
    p = swap_operator(3)
    pk = p.apply(conjugate_vec(vec(x)))
    kp = conjugate_vec(p.apply(vec(x)))
    target = vec(np.conj(x).T).amplitudes
    assert np.allclose(pk.amplitudes, target)
    assert np.allclose(kp.amplitudes, target)


def test_superoperator_antilinear_composition(rng):
    d = 2
    m1 = complex_gaussian(rng, d * d)
    m2 = complex_gaussian(rng, d * d)
    anti1 = SuperOperator(d, m1, antilinear=True)
    anti2 = SuperOperator(d, m2, antilinear=True)
    v = BipartiteVector(d, d, complex_gaussian(rng, d * d, 1).ravel())
    composed = anti1.compose(anti2)
    assert not composed.antilinear
    assert np.allclose(
        composed.apply(v).amplitudes, anti1.apply(anti2.apply(v)).amplitudes
    )
    mixed = anti1.compose(SuperOperator(d, m2))
    assert mixed.antilinear
    assert np.allclose(
        mixed.apply(v).amplitudes,
        anti1.apply(SuperOperator(d, m2).apply(v)).amplitudes,
    )


def test_antilinear_adjoint_pairing(rng):
    # <F*u, v> = <Fv, u> for antilinear F
    d = 2
    f = SuperOperator(d, complex_gaussian(rng, d * d), antilinear=True)
    u = BipartiteVector(d, d, complex_gaussian(rng, d * d, 1).ravel())
    v = BipartiteVector(d, d, complex_gaussian(rng, d * d, 1).ravel())
    lhs = f.adjoint().apply(u).inner(v)
    rhs = f.apply(v).inner(u)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bipartite_vector_validation():
    with pytest.raises(ShapeMismatch):
        BipartiteVector(2, 2, [1.0, 0.0])


# A planted defect in the swap, the one operator behind vec.s_pk: without its
# transposition it is the identity, so swap(conj(vec X)) = vec(conj X), which
# is not vec(X*). The other two checks of the family do not use the swap.
VEC_IDENTITIES = ("vec.kron", "vec.inner", "vec.s_pk")


def _swap_not_transposed(d):
    return SuperOperator.factored(d, None, None)


@pytest.mark.parametrize(
    "defect, caught",
    [(swap_operator, ()), (_swap_not_transposed, ("vec.s_pk",))],
)
@pytest.mark.parametrize("d", [2, 4, 16])
def test_planted_swap_defect(d, defect, caught, monkeypatch):
    monkeypatch.setattr(vecops, "swap_operator", defect)
    draw, families = campaigns.SUITES["vec"]
    family = next(f for f in families if f.names == VEC_IDENTITIES)
    rng = np.random.default_rng(3)
    for k in range(6):
        for check in campaigns.evaluate(family, draw(rng, d, k)):
            assert check.passed == (check.name not in caught), check.name
