"""The Tomita-Takesaki flow residual: its O(d^3) norm against the dense one,
and planted defects that the modular.tt_flow and modular.tt_commutant
checks must catch; the commutant residual on a non-finite probe."""

import numpy as np
import pytest

from modkit import campaigns, modular
from modkit.modular import _flow_residual
from modkit.sampling import complex_gaussian, random_faithful_density
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
    monkeypatch.setattr(modular, "pi_factored", lambda m: real(np.transpose(m)))


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
