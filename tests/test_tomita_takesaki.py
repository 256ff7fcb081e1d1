"""The Tomita-Takesaki flow residual: its O(d^3) norm against the dense one,
and planted defects that the modular.tt_flow and modular.tt_commutant
checks must catch; the commutant residual on a non-finite probe; the
stacked verifier against the loop over probes and times, and a stack of
probes against the list of the same probes, bit for bit."""

import math

import numpy as np
import pytest

from modkit import campaigns, modular
from modkit.linalg import hs_norm
from modkit.modular import _flow_residual
from modkit.sampling import complex_gaussian, complex_gaussian_stack, random_faithful_density
from modkit.vecops import SuperOperator


def dense_residual(a, b, c):
    d = a.shape[0]
    return np.linalg.norm(np.kron(a, b) - np.kron(c, np.eye(d)))


@pytest.mark.parametrize("d", [2, 5, 16])
def test_flow_residual_equals_dense_norm(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(5):
        a, b, c = (complex_gaussian(rng, d) for _ in range(3))
        dense = dense_residual(a, b, c)
        assert abs(_flow_residual(a, b, c) - dense) <= 1e-13 * dense


@pytest.mark.parametrize("d", [2, 5, 16])
def test_flow_residual_equals_dense_norm_at_rounding_size(d):
    # the verifier's own operands: Delta^(it) pi(M) Delta^(-it) as A (x) B
    # against pi(sigma_t(M)), whose difference is rounding only
    rng = np.random.default_rng(50 + d)
    omega = random_faithful_density(rng, d)
    for t in (0.3, -1.0, 2.7):
        u = modular.relative_modular_unitary(omega, omega, t)
        u_inv = modular.relative_modular_unitary(omega, omega, -t)
        m = complex_gaussian(rng, d)
        a, b = u.compose(modular.pi_factored(m)).compose(u_inv).factors
        c = modular.modular_flow(omega, m, t)
        dense = dense_residual(a, b, c)
        assert 0.0 < dense < 1e-12
        assert abs(_flow_residual(a, b, c) - dense) <= 1e-13 * dense


@pytest.mark.parametrize("d", [2, 5, 16])
def test_flow_residual_is_exactly_zero_on_equal_factors(d):
    a = complex_gaussian(np.random.default_rng(d), d)
    assert _flow_residual(a, np.eye(d), a) == 0.0
    assert _flow_residual(a, np.eye(d, dtype=complex), a.copy()) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("factor", [0, 1, 2])
def test_flow_residual_is_non_finite_on_a_non_finite_entry(factor, bad):
    for d in (2, 5, 16):
        for entry in [(0, 0), (0, d - 1)]:  # on and off the diagonal
            factors = [complex_gaussian(np.random.default_rng(d), d) for _ in range(3)]
            factors[factor][entry] = bad
            assert not np.isfinite(_flow_residual(*factors))


def _pi_transposed(monkeypatch):
    real = modular.pi_factored
    monkeypatch.setattr(modular, "pi_factored", lambda m: real(np.swapaxes(m, -1, -2)))


def _inverse_unitary_not_inverted(monkeypatch):
    # Delta^(+i|t|) wherever Delta^(-i|t|) is asked for
    real = modular.relative_modular_unitary
    monkeypatch.setattr(
        modular, "relative_modular_unitary", lambda phi, omega, t: real(phi, omega, abs(t))
    )


def _conjugation_not_transposed(monkeypatch):
    # J = K, vec(X) -> vec(conj(X)): K pi(M) K = conj(M) (x) 1 is not in pi(M)'
    monkeypatch.setattr(
        modular, "modular_conjugation",
        lambda d: SuperOperator.factored(d, None, None, antilinear=True),
    )


def tt_checks(d, seed, name, count=3):
    """The check ``name`` on the first ``count`` modular campaign instances."""
    draw, _ = campaigns.SUITES["modular"]
    rng = np.random.default_rng(seed)
    checks = []
    for k in range(count):
        tt = campaigns.evaluate(campaigns.TOMITA_TAKESAKI, draw(rng, d, k))
        checks += [check for check in tt if check.name == name]
    assert len(checks) == count
    return checks


@pytest.mark.parametrize("d", [2, 4, 16])
def test_tt_flow_passes_unpatched(d):
    assert all(check.passed for check in tt_checks(d, 3, "modular.tt_flow"))


@pytest.mark.parametrize("defect", [_pi_transposed, _inverse_unitary_not_inverted])
@pytest.mark.parametrize("d", [2, 4, 16])
def test_planted_defect_fails_tt_flow(d, defect, monkeypatch):
    defect(monkeypatch)
    assert not any(check.passed for check in tt_checks(d, 3, "modular.tt_flow"))


@pytest.mark.parametrize("d", [2, 4, 16])
def test_planted_defect_fails_tt_commutant(d, monkeypatch):
    assert all(check.passed for check in tt_checks(d, 3, "modular.tt_commutant"))
    _conjugation_not_transposed(monkeypatch)
    assert not any(check.passed for check in tt_checks(d, 3, "modular.tt_commutant"))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("d", [2, 16])
def test_commutant_residual_is_non_finite_on_a_non_finite_probe(d, bad):
    rng = np.random.default_rng(90 + d)
    phi, omega = (random_faithful_density(rng, d) for _ in range(2))
    probes = [complex_gaussian(rng, d) for _ in range(3)]
    probes[1][0, d - 1] = bad
    comm, _ = modular.verify_tomita_takesaki(omega, probes, [0.7])
    assert np.array_equal(np.isfinite(comm), [True, False, True])
    pair = campaigns.modular_instance(phi, omega, probes, [0.7])
    commutant, _ = campaigns.evaluate(campaigns.TOMITA_TAKESAKI, pair)
    assert commutant.name == "modular.tt_commutant"
    assert not commutant.passed and np.isnan(commutant.margin)


def _one_residual(a, b, c):
    """The flow residual of one probe, as the loop over probes computed it."""
    off = b[~np.eye(b.shape[0], dtype=bool)]
    on = a[:, :, None] * np.diagonal(b) - c[:, :, None]
    return math.hypot(hs_norm(a) * hs_norm(off), hs_norm(on))


def per_probe_tomita_takesaki(omega, mats, t_grid):
    """The two residuals one probe and one time at a time: the reference for
    the stacked verifier."""
    d = omega.dim
    flow = []
    for t in t_grid:
        u = modular.relative_modular_unitary(omega, omega, t)
        u_inv = modular.relative_modular_unitary(omega, omega, -t)
        for m in mats:
            left, right = u.compose(modular.pi_factored(m)).compose(u_inv).factors
            flow.append(_one_residual(left, right, modular.modular_flow(omega, m, t)))
    j = modular.modular_conjugation(d)
    comm = []
    for m in mats:
        a, b = j.compose(modular.pi_factored(m)).compose(j).factors
        comm.append(_one_residual(b, a, np.trace(a) / d * b))
    return np.array(comm), np.array(flow)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("count", [1, 4, 9])
def test_stacked_verifier_equals_the_per_probe_loop_bit_for_bit(d, count):
    # time-major flow residuals, then sample; one value per probe, each
    # reduced as it would be alone
    rng = np.random.default_rng(100 + d)
    omega = random_faithful_density(rng, d)
    mats = [complex_gaussian(rng, d) for _ in range(count)]
    t_grid = [0.3, -1.0, 2.7]
    got = modular.verify_tomita_takesaki(omega, mats, t_grid)
    want = per_probe_tomita_takesaki(omega, mats, t_grid)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [2, 5, 16])
def test_flow_residual_of_a_stack_is_the_per_probe_residual_bit_for_bit(d):
    # a (d, d) argument stands for every probe of the stacks
    rng = np.random.default_rng(110 + d)
    a, c = (complex_gaussian_stack(rng, 3, d) for _ in range(2))
    b = complex_gaussian(rng, d)
    got = _flow_residual(a, b, c)
    want = [_one_residual(a[i], b, c[i]) for i in range(3)]
    assert got.tobytes() == np.array(want).tobytes()
    swapped = _flow_residual(b, a, c)
    assert swapped.tobytes() == np.array([_one_residual(b, a[i], c[i]) for i in range(3)]).tobytes()


def test_verifier_takes_no_probes_and_no_times():
    omega = random_faithful_density(np.random.default_rng(7), 3)
    comm, flow = modular.verify_tomita_takesaki(omega, [], [0.5])
    assert comm.shape == flow.shape == (0,)
    comm, flow = modular.verify_tomita_takesaki(omega, [np.eye(3)], [])
    assert comm.shape == (1,) and flow.shape == (0,)


@pytest.mark.parametrize("d", [2, 4, 16])
def test_verifier_reads_a_stack_as_the_list_of_its_probes(d):
    # a (k, d, d) array is k probes, one (d, d) array is one probe
    rng = np.random.default_rng(120 + d)
    omega = random_faithful_density(rng, d)
    stack = complex_gaussian_stack(rng, 5, d)
    t_grid = [0.3, -1.0, 2.7]
    got = modular.verify_tomita_takesaki(omega, stack, t_grid)
    want = modular.verify_tomita_takesaki(omega, [m.copy() for m in stack], t_grid)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    one = modular.verify_tomita_takesaki(omega, stack[2], t_grid)
    assert [g.tobytes() for g in one] == [w.tobytes() for w in (want[0][2:3], want[1][2::5])]
