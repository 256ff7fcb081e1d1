"""The factored SuperOperator against its densified matrix algebra.

Property tests (hypothesis) cover the four tau maps X, conj(X), X^T, X*,
both linearities, identity factors and mixed dense/factored compositions
at d = 2, 3 and 16. The dense builders are checked against their loop
definitions, Ogata's route (a) against the dense 256^2-eigh route it
replaced, and the Tomita-Takesaki residuals against the all-dense formula.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.inequalities import ogata_modular
from modkit.linalg import hs_norm, spectral_decomposition
from modkit.modular import (
    _assemble_antilinear,
    modular_flow,
    pi_factored,
    relative_modular_operator,
    relative_modular_unitary,
    verify_tomita_takesaki,
)
from modkit.sampling import (
    complex_gaussian,
    random_faithful_density,
    random_positive_functional,
)
from modkit.states import PositiveFunctional
from modkit.vecops import BipartiteVector, SuperOperator, swap_operator, unvec, vec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
RTOL = 1e-12


@st.composite
def superoperators(draw, d):
    """A dense or factored operator; factors may be the identity (None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    antilinear = draw(st.booleans())
    if draw(st.booleans()):
        return SuperOperator(d, complex_gaussian(rng, d * d), antilinear)
    left, right = (
        None if draw(st.booleans()) else complex_gaussian(rng, d) for _ in range(2)
    )
    return SuperOperator.factored(d, left, right, draw(st.booleans()), antilinear)


@st.composite
def operator_pairs(draw):
    d = draw(st.sampled_from([2, 3, 16]))
    return d, draw(superoperators(d)), draw(superoperators(d))


def dense_copy(op):
    return SuperOperator(op.d, np.array(op.matrix), op.antilinear)


def random_vector(d, seed):
    rng = np.random.default_rng(seed)
    return BipartiteVector(d, d, complex_gaussian(rng, d * d, 1).ravel())


def close(got, want, scale):
    return np.linalg.norm(got - want) <= RTOL * max(1.0, scale)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("antilinear", [False, True])
def test_factored_apply_is_a_tau_b_transpose(rng, transpose, antilinear):
    d = 3
    a, b, x = (complex_gaussian(rng, d) for _ in range(3))
    tau = x.T if transpose else x
    tau = np.conj(tau) if antilinear else tau
    op = SuperOperator.factored(d, a, b, transpose, antilinear)
    assert op.is_factored
    assert np.allclose(unvec(op.apply(vec(x))), a @ tau @ b.T, rtol=0, atol=1e-12)
    # the densified matrix acts the same way: v -> M conj^antilinear(v)
    v = vec(x).amplitudes
    dense = op.matrix @ (np.conj(v) if antilinear else v)
    assert np.allclose(dense, vec(a @ tau @ b.T).amplitudes, rtol=0, atol=1e-12)


@PROPERTY
@given(operator_pairs(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense(pair, seed):
    d, op, _ = pair
    v = random_vector(d, seed)
    want = dense_copy(op).apply(v).amplitudes
    assert close(op.apply(v).amplitudes, want, np.linalg.norm(want))


@PROPERTY
@given(operator_pairs())
def test_compose_matches_dense(pair):
    d, a, b = pair
    got = a.compose(b)
    want = dense_copy(a).compose(dense_copy(b))
    assert got.antilinear == want.antilinear
    assert got.is_factored == (a.is_factored and b.is_factored)
    if got.is_factored:
        scale = np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix)
        assert close(got.matrix, want.matrix, scale)
    else:  # a dense operand: the same matrix product on the same matrices
        assert got.matrix.tobytes() == want.matrix.tobytes()


@PROPERTY
@given(operator_pairs())
def test_adjoint_matches_dense(pair):
    _, op, _ = pair
    got = op.adjoint()
    want = dense_copy(op).adjoint()
    assert got.antilinear == want.antilinear
    assert got.is_factored == op.is_factored
    assert close(got.matrix, want.matrix, np.linalg.norm(op.matrix))


@PROPERTY
@given(operator_pairs(), st.integers(0, 2**32 - 1))
def test_adjoint_pairing(pair, seed):
    # <A* u, v> = <A v, u> (antilinear) or <u, A v> (linear)
    d, op, _ = pair
    u, v = random_vector(d, seed), random_vector(d, seed + 1)
    lhs = op.adjoint().apply(u).inner(v)
    rhs = op.apply(v).inner(u) if op.antilinear else u.inner(op.apply(v))
    scale = np.linalg.norm(op.matrix) * u.norm() * v.norm()
    assert abs(lhs - rhs) <= RTOL * max(1.0, scale)


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_swap_operator_equals_loop(d):
    n = d * d
    loop = np.zeros((n, n), dtype=complex)
    for i in range(d):
        for j in range(d):
            loop[i * d + j, j * d + i] = 1.0
    p = swap_operator(d)
    assert p.is_factored and not p.antilinear
    assert np.array_equal(p.matrix, loop)


@pytest.mark.parametrize("d", [2, 3, 16])
def test_assemble_antilinear_equals_loop(d):
    rng = np.random.default_rng(d)
    left, right = complex_gaussian(rng, d), complex_gaussian(rng, d)
    loop = np.empty((d * d, d * d), dtype=complex)
    for mu in range(d):
        for nu in range(d):
            loop[:, mu * d + nu] = np.outer(left[:, nu], right[mu, :]).ravel()
    got = _assemble_antilinear(left, right)
    assert got.antilinear and not got.is_factored
    assert np.max(np.abs(got.matrix - loop)) <= 1e-15


def dense_ogata_lhs(phi1, phi2, s):
    """Route (a) as it was: the power of the dense d^2 x d^2 Delta."""
    delta = relative_modular_operator(phi2, phi1)
    image = spectral_decomposition(delta.matrix).power(s / 2.0) @ vec(phi1.sqrt()).amplitudes
    return 2.0 * float(np.real(np.vdot(image, image)))


def near_singular(rng, d):
    """A functional with one eigenvalue 1e-13 (below the support floor)
    and, for d > 2, one exact zero."""
    q, _ = np.linalg.qr(complex_gaussian(rng, d))
    lam = rng.uniform(0.1, 1.0, d)
    lam[0] = 1e-13
    if d > 2:
        lam[1] = 0.0
    return PositiveFunctional((q * lam) @ np.conj(q).T)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("d", [2, 3, 8])
def test_ogata_kronecker_route_matches_dense_route(d, s):
    rng = np.random.default_rng(40 + d)
    for _ in range(5):
        phi1 = random_positive_functional(rng, d, faithful=True)
        phi2 = random_positive_functional(rng, d)
        rep = ogata_modular(phi1, phi2, s)
        dense = dense_ogata_lhs(phi1, phi2, s)
        assert abs(rep.lhs - dense) <= RTOL * max(1.0, abs(dense))
        assert rep.passed


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("d", [2, 3, 16])
def test_ogata_near_singular_phi2(d, s):
    """At s = 0 the support floor masks the kernel and at s = 1 its rounding
    noise enters squared, so the dense route is exact to 1e-12 there. At
    s = 1/4 and 1/2 the dense eigh turns the kernel's ~1e-15 noise into
    delta^(s/2) ~ 1e-2, so route (a) is held to the trace route instead."""
    rng = np.random.default_rng(80 + d)
    for _ in range(5):
        phi1 = random_positive_functional(rng, d, faithful=True)
        phi2 = near_singular(rng, d)
        rep = ogata_modular(phi1, phi2, s)
        trace = 2.0 * float(np.real(np.trace(phi2.power(s) @ phi1.power(1.0 - s))))
        assert abs(rep.lhs - trace) <= RTOL * max(1.0, abs(trace))
        assert rep.passed
        if s in (0.0, 1.0):
            dense = dense_ogata_lhs(phi1, phi2, s)
            assert abs(rep.lhs - dense) <= RTOL * max(1.0, abs(dense))


def dense_tomita_takesaki(omega, mats, t_grid):
    """The all-dense residuals: 0/1 matmuls for J, 256^3 products throughout."""
    d = omega.dim
    swap = swap_operator(d).matrix
    comm = []
    for m in mats:
        jmj = swap @ np.conj(pi_factored(m).matrix) @ swap
        # HS projection onto 1 (x) M_d: X is the partial trace over the first factor / d
        x = np.einsum("ikil->kl", jmj.reshape(d, d, d, d)) / d
        comm.append(hs_norm(jmj - np.kron(np.eye(d), x)))
    flow = []
    for t in t_grid:
        u = relative_modular_unitary(omega, omega, t).matrix
        u_inv = relative_modular_unitary(omega, omega, -t).matrix
        for m in mats:
            evolved = u @ pi_factored(m).matrix @ u_inv
            flow.append(hs_norm(evolved - pi_factored(modular_flow(omega, m, t)).matrix))
    return np.array(comm), np.array(flow)


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_tomita_takesaki_residuals_match_dense_formula(d):
    rng = np.random.default_rng(60 + d)
    omega = random_faithful_density(rng, d)
    mats = [complex_gaussian(rng, d) for _ in range(3)]
    t_grid = [0.7, -1.3]
    got_comm, got_flow = verify_tomita_takesaki(omega, mats, t_grid)
    comm, flow = dense_tomita_takesaki(omega, mats, t_grid)
    assert np.max(np.abs(got_comm - comm)) <= 1e-13
    assert np.max(np.abs(got_flow - flow)) <= 1e-13
    assert max(np.max(got_comm), np.max(got_flow)) < 1e-10


def tomita_takesaki_input(d, seed):
    rng = np.random.default_rng(seed)
    omega = random_faithful_density(rng, d)
    return omega, [complex_gaussian(rng, d) for _ in range(4)], [0.3, 1.0, 2.7]


# one d^2 x d^2 complex array at d = 16: both residuals compose d x d
# factors only, so any d^2 x d^2 allocation in the verifier exceeds it
TRACED_PEAK_BYTES = 256 * 256 * 16


def test_tomita_takesaki_traced_peak_within_compose_scheme():
    """Guards that the verifier allocates no d^2 x d^2 array."""
    omega, mats, t_grid = tomita_takesaki_input(16, 80)
    verify_tomita_takesaki(omega, mats, t_grid)
    tracemalloc.start()
    try:
        verify_tomita_takesaki(omega, mats, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TRACED_PEAK_BYTES


@pytest.mark.parametrize("d", [2, 3, 16])
@pytest.mark.parametrize("left_dense", [False, True])
@pytest.mark.parametrize("right_dense", [False, True])
@pytest.mark.parametrize("transpose", [False, True])
def test_factored_matrix_is_the_kronecker_product_bit_for_bit(d, left_dense, right_dense, transpose):
    rng = np.random.default_rng(d)
    left = complex_gaussian(rng, d) if left_dense else None
    right = complex_gaussian(rng, d) if right_dense else None
    a, b = (np.eye(d) if f is None else f for f in (left, right))
    expected = np.kron(a, b).astype(complex)
    if transpose:  # (A (x) B) P permutes the columns
        expected = expected.reshape(d * d, d, d).transpose(0, 2, 1).reshape(d * d, d * d)
    m = SuperOperator.factored(d, left, right, transpose).matrix
    assert m.dtype == complex and m.shape == (d * d, d * d)
    assert np.array_equal(m.view(np.uint64), expected.view(np.uint64))
