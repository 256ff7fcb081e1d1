import numpy as np
import pytest
import scipy.linalg

from modkit import campaigns, modular
from modkit.errors import ShapeMismatch, SingularState
from modkit.modular import (
    connes_cocycle,
    modular_conjugation,
    modular_flow,
    pi_factored,
    relative_modular_operator,
    relative_modular_power,
    relative_modular_unitary,
    relative_s_matrix,
    verify_tomita_takesaki,
)
from modkit.sampling import complex_gaussian, random_faithful_density
from modkit.states import DensityMatrix, purify
from modkit.vecops import SuperOperator, swap_operator, unvec, vec


def matrix_unit(d, mu, nu):
    e = np.zeros((d, d), dtype=complex)
    e[mu, nu] = 1.0
    return e


def dense_s_oracle(phi: DensityMatrix, omega: DensityMatrix) -> np.ndarray:
    """Kronecker closed form of the S matrix, independent of column assembly.

    S vec(X) = M conj(vec X) with M = (D_om^-1/2 (x) (D_phi^1/2)^T) P_swap,
    because P vec(conj X) = vec(X*) and the Kronecker factor then sandwiches.
    """
    d = omega.dim
    w = scipy.linalg.fractional_matrix_power(omega.matrix, -0.5)
    p = scipy.linalg.fractional_matrix_power(phi.matrix, 0.5)
    return np.kron(w, p.T) @ swap_operator(d).matrix


def test_s_matrix_tracial_state_is_pk(rng):
    d = 3
    tracial = DensityMatrix(np.eye(d) / d)
    s = relative_s_matrix(tracial, tracial)
    x = complex_gaussian(rng, d)
    assert np.allclose(s.apply(vec(x)).amplitudes, vec(np.conj(x).T).amplitudes)


def test_s_matrix_star_action_on_basis(rng):
    d = 3
    omega = random_faithful_density(rng, d)
    s = relative_s_matrix(omega, omega)
    root = omega.sqrt()
    for mu in range(d):
        for nu in range(d):
            x = matrix_unit(d, mu, nu)
            got = s.apply(vec(x @ root))
            want = vec(np.conj(x).T @ root)
            assert np.linalg.norm(got.amplitudes - want.amplitudes) < 1e-10


def test_s_matrix_closed_form_oracle(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    s = relative_s_matrix(phi, omega)
    assert s.antilinear
    assert np.linalg.norm(s.matrix - dense_s_oracle(phi, omega)) < 1e-9


def test_s_matrix_requires_faithful(rng):
    phi = random_faithful_density(rng, 2)
    with pytest.raises(SingularState):
        relative_s_matrix(phi, DensityMatrix(np.diag([1.0, 0.0])))


def test_modular_operator_tracial_identity():
    tracial = DensityMatrix(np.eye(2) / 2)
    delta = relative_modular_operator(tracial, tracial)
    assert np.allclose(delta.matrix, np.eye(4))


def test_modular_operator_diagonal_formula():
    a, b = 0.3, 0.4
    phi = DensityMatrix(np.diag([a, 1 - a]))
    omega = DensityMatrix(np.diag([b, 1 - b]))
    delta = relative_modular_operator(phi, omega)
    expected = np.diag([a / b, a / (1 - b), (1 - a) / b, (1 - a) / (1 - b)])
    assert np.linalg.norm(delta.matrix - expected) < 1e-12


def test_modular_operator_equals_star_s(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    s = relative_s_matrix(phi, omega)
    delta = relative_modular_operator(phi, omega)
    assert s.adjoint().compose(s).distance(delta) < 1e-10


def test_half_power_maps_omega_to_phi(rng):
    phi = random_faithful_density(rng, 4)
    omega = random_faithful_density(rng, 4)
    half = relative_modular_power(phi, omega, 0.5)
    assert (half.apply(purify(omega)) - purify(phi)).norm() < 1e-10


def test_modular_conjugation_properties(rng):
    d = 3
    j = modular_conjugation(d)
    herm = complex_gaussian(rng, d)
    herm = herm + np.conj(herm).T
    assert np.allclose(j.apply(vec(herm)).amplitudes, vec(herm).amplitudes)
    assert np.allclose(
        j.apply(vec(matrix_unit(d, 0, 1))).amplitudes,
        vec(matrix_unit(d, 1, 0)).amplitudes,
    )
    j_squared = j.compose(j)
    assert not j_squared.antilinear
    assert np.linalg.norm(j_squared.matrix - np.eye(d * d)) < 1e-12


def test_polar_decomposition(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    s = relative_s_matrix(phi, omega)
    j = modular_conjugation(3)
    half = relative_modular_power(phi, omega, 0.5)
    assert j.compose(half).distance(s) < 1e-10


def test_fs_is_delta_and_absolute_sf_is_inverse(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    # in finite dimensions F = S*
    s = relative_s_matrix(phi, omega)
    f = s.adjoint()
    assert f.compose(s).distance(relative_modular_operator(phi, omega)) < 1e-10
    # SF = Delta^-1 verbatim in the absolute case; relative SF flips indices
    s0 = relative_s_matrix(omega, omega)
    f0 = s0.adjoint()
    assert s0.compose(f0).distance(relative_modular_power(omega, omega, -1.0)) < 1e-9
    assert s.compose(f).distance(relative_modular_power(omega, phi, -1.0)) < 1e-9


# Planted defects in the one S assembler, each a wrapper of the real one.
# modular.s_inverse composes two assemblies, so a defect that commutes with
# that composition, such as conjugating both factors, still gives the
# identity: only sstar_s and polar, which hold S to the closed-form Delta,
# catch it.
def _unpatched(real):
    return real


def _right_not_transposed(real):
    return lambda left, right: real(left, right.T)


def _antilinear_dropped(real):
    def assemble(left, right):
        op = real(left, right)
        return SuperOperator(op.d, op.matrix, antilinear=False)

    return assemble


def _factors_conjugated(real):
    return lambda left, right: real(np.conj(left), np.conj(right))


def _left_transposed(real):
    return lambda left, right: real(left.T, right)


S_CHECKS = ("modular.sstar_s", "modular.polar", "modular.s_inverse")


def s_check_verdicts(d, seed, count=6):
    """Pass/fail of each of S_CHECKS on the first ``count`` modular
    campaign instances."""
    draw, families = campaigns.SUITES["modular"]
    rng = np.random.default_rng(seed)
    verdicts = {name: [] for name in S_CHECKS}
    for k in range(count):
        instance = draw(rng, d, k)
        for family in families:
            if family is not campaigns.TOMITA_TAKESAKI:
                for check in campaigns.evaluate(family, instance):
                    if check.name in verdicts:
                        verdicts[check.name].append(check.passed)
    return verdicts


@pytest.mark.parametrize(
    "defect, caught",
    [
        (_unpatched, ()),
        (_right_not_transposed, S_CHECKS),
        (_antilinear_dropped, S_CHECKS),
        (_factors_conjugated, ("modular.sstar_s", "modular.polar")),
        (_left_transposed, S_CHECKS),
    ],
)
@pytest.mark.parametrize("d", [2, 4, 16])
def test_planted_assembler_defect(d, defect, caught, monkeypatch):
    monkeypatch.setattr(modular, "_assemble_antilinear", defect(modular._assemble_antilinear))
    for name, passed in s_check_verdicts(d, seed=3).items():
        assert passed == [name not in caught] * len(passed), name


def test_quadratic_form_identity(rng):
    # ||Delta^(1/2)_(phi,omega) vec(A sqrt(D_omega))||^2 = Tr(D_phi A A*)
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    half = relative_modular_power(phi, omega, 0.5)
    for _ in range(10):
        a = complex_gaussian(rng, 3)
        lhs = half.apply(vec(a @ omega.sqrt())).norm() ** 2
        rhs = np.trace(phi.matrix @ a @ np.conj(a).T).real
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_modular_flow_time_zero(rng):
    omega = random_faithful_density(rng, 3)
    a = complex_gaussian(rng, 3)
    assert np.allclose(modular_flow(omega, a, 0.0), a)


def test_modular_flow_fixes_commutant_of_density(rng):
    omega = random_faithful_density(rng, 3)
    # anything commuting with D is a fixed point; D itself is the easy case
    assert np.linalg.norm(
        modular_flow(omega, omega.matrix, 1.7) - omega.matrix
    ) < 1e-12


def test_modular_flow_is_star_automorphism(rng):
    omega = random_faithful_density(rng, 3)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    t = 0.9
    assert np.linalg.norm(
        modular_flow(omega, a @ b, t)
        - modular_flow(omega, a, t) @ modular_flow(omega, b, t)
    ) < 1e-12
    assert np.linalg.norm(
        modular_flow(omega, np.conj(a).T, t) - np.conj(modular_flow(omega, a, t)).T
    ) < 1e-12


def test_modular_flow_dense_superoperator_oracle(rng):
    # independent route: Schur-based logm/expm of the dense Delta
    omega = random_faithful_density(rng, 3)
    a = complex_gaussian(rng, 3)
    t = 1.3
    delta = relative_modular_operator(omega, omega).matrix
    u_dense = scipy.linalg.expm(1j * t * scipy.linalg.logm(delta))
    evolved_dense = (u_dense @ vec(a).amplitudes).reshape(3, 3)
    assert np.linalg.norm(evolved_dense - modular_flow(omega, a, t)) < 1e-9
    kron_route = unvec(relative_modular_unitary(omega, omega, t).apply(vec(a)))
    assert np.linalg.norm(kron_route - modular_flow(omega, a, t)) < 1e-10


def test_modular_flow_requires_faithful():
    with pytest.raises(SingularState):
        modular_flow(DensityMatrix(np.diag([1.0, 0.0])), np.eye(2), 0.5)


def test_cocycle_trivial_cases(rng):
    omega = random_faithful_density(rng, 3)
    phi = random_faithful_density(rng, 3)
    assert np.allclose(connes_cocycle(omega, omega, 0.8), np.eye(3))
    assert np.allclose(connes_cocycle(phi, omega, 0.0), np.eye(3))


def test_cocycle_unitary_and_dense_product(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    t = 0.7
    u = connes_cocycle(phi, omega, t)
    assert np.linalg.norm(u @ np.conj(u).T - np.eye(3)) < 1e-12
    dense = (
        relative_modular_unitary(phi, omega, t).matrix
        @ relative_modular_unitary(omega, omega, -t).matrix
    )
    assert np.linalg.norm(pi_factored(u).matrix - dense) < 1e-10


def test_cocycle_chain_rule(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    for t, s in [(0.3, 0.5), (-1.2, 0.8), (2.0, -0.7)]:
        u_ts = connes_cocycle(phi, omega, t + s)
        chained = connes_cocycle(phi, omega, t) @ modular_flow(
            omega, connes_cocycle(phi, omega, s), t
        )
        assert np.linalg.norm(u_ts - chained) < 1e-10


def test_cocycle_intertwines_flows(rng):
    phi = random_faithful_density(rng, 3)
    omega = random_faithful_density(rng, 3)
    a = complex_gaussian(rng, 3)
    for t in (0.4, -1.1):
        u = connes_cocycle(phi, omega, t)
        lhs = modular_flow(phi, a, t)
        rhs = u @ modular_flow(omega, a, t) @ np.conj(u).T
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_verify_tt_matrix_units_d2(rng):
    omega = random_faithful_density(rng, 2)
    units = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]
    comm, flow = verify_tomita_takesaki(omega, units, [0.3, 1.0])
    assert comm.shape == (4,) and flow.shape == (8,)
    assert np.max(comm) < 1e-12
    assert np.max(flow) < 1e-12


def test_verify_tt_tracial_exact(rng):
    omega = DensityMatrix(np.eye(3) / 3)
    comm, flow = verify_tomita_takesaki(
        omega, [complex_gaussian(rng, 3) for _ in range(3)], [0.5]
    )
    assert np.max(comm) < 1e-14
    assert np.max(flow) < 1e-10


def test_verify_tt_random_faithful_d4(rng):
    omega = random_faithful_density(rng, 4)
    comm, flow = verify_tomita_takesaki(
        omega, [complex_gaussian(rng, 4) for _ in range(4)], [0.3, 1.0, 2.7]
    )
    assert max(np.max(comm), np.max(flow)) < 1e-10


@pytest.mark.parametrize("bad", [(3, 3), (4, 3)])
@pytest.mark.parametrize("bad_first", [False, True])
def test_verify_tt_rejects_a_probe_of_another_shape(rng, bad, bad_first):
    omega = random_faithful_density(rng, 4)
    probes = [complex_gaussian(rng, 4), rng.standard_normal(bad)]
    if bad_first:
        probes.reverse()
    with pytest.raises(ShapeMismatch):
        verify_tomita_takesaki(omega, probes, [0.5])


@pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
def test_pi_rejects_a_non_square_matrix(shape):
    with pytest.raises(ShapeMismatch):
        pi_factored(np.ones(shape))


def test_dimension_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        relative_modular_operator(
            random_faithful_density(rng, 2), random_faithful_density(rng, 3)
        )


def test_faithfulness_threshold_keeps_inverse_powers():
    # eigenvalue ratio 1e-11: faithful at the 1e-12 threshold, but below the
    # 1e-10 support floor of nonnegative powers
    from modkit.errors import DomainError
    from modkit.states import is_faithful

    p = np.array([1 - 1e-11, 1e-11])
    d = DensityMatrix(np.diag(p))
    assert is_faithful(d)

    s = relative_s_matrix(d, d)
    delta = relative_modular_operator(d, d)
    cross = s.adjoint().compose(s).distance(delta)
    assert cross < 1e-12 * np.linalg.norm(delta.matrix)

    inv_half = relative_modular_power(d, d, -0.5)
    oracle = np.kron(np.diag(p**-0.5), np.diag(p**0.5))
    assert np.allclose(inv_half.matrix, oracle, rtol=1e-12, atol=0.0)

    flat = DensityMatrix(np.diag([0.5, 0.5]))
    u = connes_cocycle(flat, d, 0.7)
    assert np.allclose(np.diag(u), np.exp(0.7j * (np.log(0.5) - np.log(p))))

    # inverse powers go through the spectrum after a faithfulness check
    with pytest.raises(DomainError):
        d.power(-0.5)
