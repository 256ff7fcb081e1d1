"""The factored SuperOperator against its densified matrix algebra.

Property tests (hypothesis) cover the four tau maps X, conj(X), X^T, X*,
both linearities, identity factors and mixed dense/factored compositions
at d = 2, 3 and 16. The dense builders are checked against their loop
definitions, Ogata's route (a) against the dense 256^2-eigh route it
replaced, and the Tomita-Takesaki residuals against the all-dense formula.
"""

import json
import platform
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.cli import dump_matrix
from modkit.errors import ShapeMismatch
from modkit.inequalities import ogata_modular
from modkit.linalg import hs_norm, spectral_decomposition
from modkit.modular import (
    _assemble_antilinear,
    modular_conjugation,
    modular_flow,
    pi_factored,
    relative_modular_operator,
    relative_modular_power,
    relative_modular_unitary,
    relative_s_matrix,
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
    if a.is_factored:  # factors multiplied, or applied to b's columns by reshape
        scale = np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix)
        assert close(got.matrix, want.matrix, scale)
    else:  # dense on the left: the same matrix product on the same matrices
        assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("factors", ["both", "left", "right", "none"])
@pytest.mark.parametrize("antilinear", [False, True])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("d", [2, 3, 16])
def test_factored_o_dense_matches_per_column_apply(d, transpose, antilinear, factors):
    """Column c of the product is the factored operator applied to column c
    of the dense one: bit for bit where the product only moves entries (no
    factor), else bit for bit or within the compose bound."""
    rng = np.random.default_rng(d)
    left = complex_gaussian(rng, d) if factors in ("both", "left") else None
    right = complex_gaussian(rng, d) if factors in ("both", "right") else None
    a = SuperOperator.factored(d, left, right, transpose, antilinear)
    b = SuperOperator(d, complex_gaussian(rng, d * d), antilinear=True)
    got = a.compose(b)
    assert not got.is_factored and got.antilinear == (not antilinear)
    want = np.empty((d * d, d * d), dtype=complex)
    for c in range(d * d):
        unit = np.zeros(d * d)
        unit[c] = 1.0  # real, so conj^antilinear leaves it as it is
        want[:, c] = a.apply(b.apply(BipartiteVector(d, d, unit))).amplitudes
    if factors == "none":  # a permutation of b's entries
        assert np.array_equal(got.matrix, want)
    elif not np.array_equal(got.matrix, want):
        assert close(got.matrix, want, np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix))


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
    op = SuperOperator.factored(d, left, right, transpose)
    # a None factor is stored as the identity matrix, so no method sees None
    for got, want in zip(op.factors, (a, b)):
        assert got.dtype == complex and np.array_equal(got, want)
    m = op.matrix
    assert m.dtype == complex and m.shape == (d * d, d * d)
    assert np.array_equal(m.view(np.uint64), expected.view(np.uint64))


# Workspace: the d^2 x d^2 arrays that never leave a call (the difference in
# distance; the conjugated operand or the factored o dense intermediate in
# compose) live in a per-thread buffer; every returned array is fresh.
ARRAY_BYTES = 256 * 256 * 16  # one d^2 x d^2 complex array at d = 16
KINDS = ("dense", "factored", "transposed", "identity")


def operand(d, kind, antilinear, seed):
    """A superoperator of one kind, the same for the same arguments."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return SuperOperator(d, complex_gaussian(rng, d * d), antilinear)
    if kind == "identity":
        return SuperOperator.factored(d, None, None, antilinear=antilinear)
    left, right = complex_gaussian(rng, d), complex_gaussian(rng, d)
    return SuperOperator.factored(d, left, right, kind == "transposed", antilinear)


@pytest.mark.parametrize("right", KINDS)
@pytest.mark.parametrize("left", KINDS)
@pytest.mark.parametrize("antilinear", [False, True])
@pytest.mark.parametrize("d", [2, 3, 16])
def test_distance_is_the_fresh_difference_norm_bit_for_bit(d, antilinear, left, right):
    want = hs_norm(
        operand(d, left, antilinear, 1).matrix - operand(d, right, antilinear, 2).matrix
    )
    a, b = operand(d, left, antilinear, 1), operand(d, right, antilinear, 2)
    first = a.distance(b)  # factored sides written into the workspace
    a.matrix, b.matrix  # cached now, subtracted as they are
    for got in (first, a.distance(b)):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_distance_rejects_unequal_dimensions():
    for a, b in [
        (operand(2, "identity", False, 0), operand(3, "identity", False, 0)),
        (operand(2, "dense", True, 0), operand(3, "factored", False, 0)),
    ]:
        with pytest.raises(ShapeMismatch):
            a.distance(b)
        with pytest.raises(ShapeMismatch):
            b.distance(a)


def test_returned_arrays_survive_later_workspace_use():
    d = 16
    rng = np.random.default_rng(70)
    phi, omega = random_faithful_density(rng, d), random_faithful_density(rng, d)
    s = relative_s_matrix(phi, omega)  # an assembly
    half = relative_modular_power(phi, omega, 0.5)
    mixed = modular_conjugation(d).compose(half).compose(s)  # factored o dense
    dense = s.adjoint().compose(s)  # antilinear dense o dense
    matrix = half.matrix  # a densified factored operator
    kept = [x.copy() for x in (s.matrix, mixed.matrix, dense.matrix, matrix)]
    # every workspace use again, on other operands of the same d
    s2 = relative_s_matrix(omega, phi)
    j_half2 = modular_conjugation(d).compose(relative_modular_power(omega, phi, 0.5))
    for op in (j_half2, operand(d, "factored", True, 5)):
        op.compose(s2).distance(operand(d, "identity", False, 0))
    s2.adjoint().compose(s2).distance(relative_modular_operator(omega, phi))
    j_half2.distance(s2)
    for got, want in zip((s.matrix, mixed.matrix, dense.matrix, matrix), kept):
        assert np.array_equal(got, want)


def test_distance_in_threads_matches_one_thread():
    """More threads than cores, each on its own pair, switching often: a
    buffer shared between threads would mix their differences."""
    d, rounds = 16, 40
    kinds = [("transposed", "dense"), ("dense", "factored"), ("identity", "dense"),
             ("factored", "transposed")]
    pairs = [(operand(d, a, k % 2 == 0, 10 * k), operand(d, b, k % 2 == 0, 10 * k + 1))
             for k, (a, b) in enumerate(kinds)]
    want = [a.distance(b) for a, b in pairs]
    assert len(set(want)) == len(want)
    got = [[] for _ in pairs]
    start = threading.Barrier(len(pairs), timeout=30)

    def run(k):
        a, b = pairs[k]
        start.wait()
        for _ in range(rounds):
            got[k].append(a.distance(b))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * rounds for w in want]


def traced_peak(fn):
    """Peak traced bytes of a warm call: fn runs once untraced first."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("left, right", [
    ("transposed", "dense"), ("dense", "factored"), ("dense", "dense"), ("identity", "factored"),
])
def test_warm_distance_allocates_no_d2_array(left, right):
    a, b = operand(16, left, True, 30), operand(16, right, True, 31)
    assert traced_peak(lambda: a.distance(b)) < ARRAY_BYTES


def test_warm_s_assembly_allocates_only_its_matrix():
    # the broadcast product is written in C order into S's own array, so the
    # reshape is a view and no second d^2 x d^2 array is alive
    rng = np.random.default_rng(45)
    phi, omega = random_faithful_density(rng, 16), random_faithful_density(rng, 16)
    assert ARRAY_BYTES <= traced_peak(lambda: relative_s_matrix(phi, omega)) < 1.5 * ARRAY_BYTES


# a fresh interpreter, so the allocator starts from its defaults
FAULTS_PER_WARM_RUN = """
import contextlib, io, resource, sys
from modkit.cli import main

def run():
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])

for _ in range(3):
    run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    run()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap pages")
def test_warm_modular_verify_maps_no_fresh_pages(tmp_path):
    # the workspace buffers sit on the heap and keep its pages, so each
    # run's fresh S and S*S arrays reuse them (about 720 faults otherwise)
    rng = np.random.default_rng(46)
    paths = []
    for name in ("phi", "omega"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_matrix(random_faithful_density(rng, 16).matrix)))
        paths.append(str(path))
    child = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_WARM_RUN, "modular", *paths, "--verify", "--json"],
        capture_output=True, text=True, check=True,
    )
    assert float(child.stdout) < 50


@pytest.mark.parametrize("left", ["dense", "factored", "transposed"])
def test_warm_antilinear_compose_allocates_only_its_product(left):
    a, b = operand(16, left, True, 40), operand(16, "dense", True, 41)
    assert ARRAY_BYTES <= traced_peak(lambda: a.compose(b)) < 2 * ARRAY_BYTES
