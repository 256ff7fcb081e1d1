import numpy as np
import pytest

from modkit.errors import NotPSD, OrderViolation, SingularState
from modkit.inequalities import (
    MONOTONE_FUNCTIONS,
    S_GRID,
    T_GRID,
    MonotoneFunction,
    hoa_generalized,
    norm_sandwich,
    ogata_modular,
    ozawa_s,
    phillips,
    powers_stormer,
)
from modkit.linalg import check_psd, schatten_norm, spectral_decomposition, trace_norm
from modkit.sampling import random_psd
from modkit.states import DensityMatrix, PositiveFunctional


def diag_pf(*vals):
    return PositiveFunctional(np.diag(np.asarray(vals, dtype=float)))


def pfs(*matrices):
    """One PositiveFunctional per matrix."""
    return [PositiveFunctional(m) for m in matrices]


def shipped(name):
    """The shipped MonotoneFunction called ``name``."""
    return next(mf for mf in MONOTONE_FUNCTIONS if mf.name == name)


def ozawa_at(a, b, s):
    """The s-family's report at the grid point s."""
    return ozawa_s(a, b)[S_GRID.index(s)]


def hoa_at(a, b, name):
    """The monotone form's report for the shipped function called ``name``."""
    return hoa_generalized(a, b)[MONOTONE_FUNCTIONS.index(shipped(name))]


def phillips_at(a, b, t):
    """Phillips' report at the grid point t."""
    return phillips(a, b)[T_GRID.index(t)]


def test_norm_sandwich_degenerate():
    x = diag_pf(0.4, 0.6)
    low, high = norm_sandwich(x, x)
    assert low.lhs == low.rhs == 0.0
    assert high.lhs == high.rhs == 0.0
    assert low.passed and high.passed


def test_norm_sandwich_frozen_values():
    # X = diag(1,0), Y = diag(0,1): all three quantities equal 2
    x, y = diag_pf(1.0, 0.0), diag_pf(0.0, 1.0)
    low, high = norm_sandwich(x, y)
    assert low.lhs == pytest.approx(2.0)
    assert low.rhs == pytest.approx(2.0)
    assert high.rhs == pytest.approx(2.0)
    assert low.passed and high.passed


def test_norm_sandwich_campaign(rng):
    for _ in range(200):
        x = random_psd(rng, 4, trace_one=False)
        y = random_psd(rng, 4, trace_one=False)
        low, high = norm_sandwich(*pfs(x, y))
        assert low.passed and high.passed


def test_norm_sandwich_rejects_non_psd(rng):
    with pytest.raises(NotPSD):
        norm_sandwich(*pfs(np.diag([1.0, -1.0]), np.eye(2)))


def test_powers_stormer_trivial():
    a = diag_pf(0.3, 0.7)
    rep = powers_stormer(a, a)
    assert rep.lhs == rep.rhs == 0.0


def test_powers_stormer_equality_case():
    rep = powers_stormer(diag_pf(1.0, 0.0), diag_pf(0.0, 1.0))
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(2.0)


def test_powers_stormer_campaign(rng):
    for _ in range(200):
        a = random_psd(rng, 5, trace_one=False)
        b = random_psd(rng, 5, trace_one=False)
        assert powers_stormer(*pfs(a, b)).passed


def test_powers_stormer_chain_to_ozawa(rng):
    # ||sqrt A - sqrt B||_2^2 = TrA + TrB - 2Tr(sqrtA sqrtB) <= ||A - B||_1
    a = random_psd(rng, 4, trace_one=False)
    b = random_psd(rng, 4, trace_one=False)
    expand = (
        np.trace(a).real
        + np.trace(b).real
        - 2
        * np.trace(
            spectral_decomposition(a).power(0.5) @ spectral_decomposition(b).power(0.5)
        ).real
    )
    rep = powers_stormer(*pfs(a, b))
    assert rep.lhs == pytest.approx(expand, abs=1e-10)
    half = ozawa_at(*pfs(a, b), 0.5)
    bound = np.trace(a).real + np.trace(b).real - half.rhs
    assert rep.lhs <= bound + 1e-10
    assert bound == pytest.approx(trace_norm(a - b), abs=1e-10)


def test_ozawa_equality_at_equal_inputs(rng):
    a = random_psd(rng, 3, trace_one=False)
    rep = ozawa_at(*pfs(a, a), 0.5)
    assert rep.lhs == pytest.approx(2 * np.trace(a).real, rel=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_ozawa_commuting_scalar_oracle():
    rep = ozawa_at(diag_pf(0.7, 0.3), diag_pf(0.4, 0.6), 0.5)
    # independent scalar computation on the diagonal
    lhs = 2 * (np.sqrt(0.4 * 0.7) + np.sqrt(0.6 * 0.3))
    rhs = 2 * (min(0.7, 0.4) + min(0.3, 0.6))
    assert lhs == pytest.approx(2 * (np.sqrt(0.28) + np.sqrt(0.18)))
    assert rep.lhs == pytest.approx(lhs, abs=1e-12)
    assert rep.rhs == pytest.approx(rhs, abs=1e-12)
    assert rep.rhs == pytest.approx(1.4, abs=1e-12)


def test_ozawa_grid_campaign(rng):
    for _ in range(100):
        a = random_psd(rng, 4, trace_one=False)
        b = random_psd(rng, 4, trace_one=False)
        for rep in ozawa_s(*pfs(a, b)):
            assert rep.passed


def test_ozawa_endpoints_use_support(rng):
    # singular inputs: s = 0 reduces to 2 Tr(supp(B) A) >= Tr(A+B-|A-B|)
    a = np.diag([0.5, 0.0, 0.7])
    b = np.diag([0.2, 0.3, 0.0])
    rep0, *_, rep1 = ozawa_s(*pfs(a, b))
    lhs_oracle = 2 * np.trace(spectral_decomposition(b).power(0.0) @ a).real
    assert rep0.lhs == pytest.approx(lhs_oracle, abs=1e-12)
    assert rep0.passed
    lhs_oracle1 = 2 * np.trace(b @ spectral_decomposition(a).power(0.0)).real
    assert rep1.lhs == pytest.approx(lhs_oracle1, abs=1e-12)
    assert rep1.passed


def test_ogata_equality_for_equal_states(rng):
    d = DensityMatrix(random_psd(rng, 3))
    rep = ogata_modular(d, d, 0.5)
    assert rep.lhs == pytest.approx(2.0, rel=1e-10)
    assert rep.rhs == pytest.approx(2.0, rel=1e-10)
    assert rep.passed


def test_ogata_routes_agree(rng):
    for _ in range(25):
        phi1 = PositiveFunctional(
            random_psd(rng, 4, trace_one=False) + 1e-3 * np.eye(4)
        )
        phi2 = PositiveFunctional(random_psd(rng, 4, trace_one=False))
        for s in (0.0, 0.3, 0.5, 1.0):
            rep = ogata_modular(phi1, phi2, s)
            assert rep.passed
            assert rep.route_residual is not None
            assert rep.route_residual < 1e-10


def test_ogata_equality_structure_case():
    # phi2 = psi, phi1 = (phi2 - phi1)_- + psi with orthogonal supports:
    # D1 = diag(b, c) faithful, D2 = diag(0, c)
    b, c = 0.6, 0.9
    phi1 = diag_pf(b, c)
    phi2 = diag_pf(0.0, c)
    for s in (0.25, 0.5, 0.75):
        rep = ogata_modular(phi1, phi2, s)
        assert abs(rep.slack) < 1e-10  # equality
        assert rep.passed
    # the three-block orthogonal-support instance, checked arithmetically:
    # D2 = diag(a,0,c), D1 = diag(0,b,c) gives 2 Tr(D2^s D1^(1-s)) = 2c
    # and Tr D1 + Tr D2 - ||D1-D2||_1 = 2c for every s in [0,1]
    a2, b2, c2 = 0.3, 0.5, 0.8
    lhs = 2 * c2  # only the shared support survives the product
    rhs = (b2 + c2) + (a2 + c2) - (a2 + b2)
    assert lhs == pytest.approx(rhs)


def test_ogata_requires_faithful_phi1():
    with pytest.raises(SingularState):
        ogata_modular(diag_pf(1.0, 0.0), diag_pf(0.5, 0.5), 0.5)


def test_registry_functions_pass_hoa(rng):
    # the fixed table, in campaign order
    names = [mf.name for mf in MONOTONE_FUNCTIONS]
    assert names == ["t^0.5", "t/(1+t)", "log(1+t)"]
    for _ in range(50):
        a = random_psd(rng, 4, trace_one=False)
        b = random_psd(rng, 4, trace_one=False)
        for rep in hoa_generalized(*pfs(a, b)):
            assert rep.passed


def _monotone_spot_check(f) -> bool:
    """Positivity of f on a log grid, then f(B) - f(A) PSD on 20 pairs A <= B.

    A spot check, not a proof of operator monotonicity: the pairs are drawn
    at d = 4 from seed 2024 and f(B) - f(A) must be PSD within 1e-10.
    """
    if np.any(np.asarray(f(np.geomspace(1e-6, 1e3, 48))) <= 0.0):
        return False
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a = random_psd(rng, 4, trace_one=False)
        b = a + random_psd(rng, 4, trace_one=False)
        f_a, f_b = (
            spectral_decomposition(m).apply(lambda lam: f(np.maximum(lam, 0.0)))
            for m in (a, b)
        )
        if not check_psd(f_b - f_a, 1e-10):
            return False
    return True


def test_monotone_functions_pass_the_spot_check():
    for mf in MONOTONE_FUNCTIONS:
        assert _monotone_spot_check(mf.f), mf.name
    # the check has teeth: a sign flip on (0, 1) and a non-monotone square
    assert not _monotone_spot_check(lambda t: t - 1.0)
    assert not _monotone_spot_check(lambda t: t**2)


def test_monotone_functions_clip_rounding_noise():
    # f lives on [0, inf): a PSD spectrum's negative rounding noise is
    # clipped to zero before it reaches f, and g vanishes off the support
    mf = MonotoneFunction("t", lambda t: t)
    dec = spectral_decomposition(np.diag([-1e-14, 4.0]))
    with np.errstate(invalid="raise"):
        assert np.allclose(mf.apply_sqrt_f(dec), np.diag([0.0, 2.0]))
        assert np.allclose(mf.apply_g(dec), np.diag([0.0, 1.0]))


def test_hoa_identity_function_reduces_to_support(rng):
    # f(t) = t gives g = supp(B): 2 Tr(sqrt(f(A)) g(B) sqrt(f(A))) =
    # 2 Tr(sqrt(A) supp(B) sqrt(A))
    mf = MonotoneFunction("t", lambda t: t)
    a = spectral_decomposition(random_psd(rng, 3, trace_one=False))
    b = spectral_decomposition(np.diag([0.5, 0.0, 0.25]))
    root = mf.apply_sqrt_f(a)
    lhs = 2 * np.trace(root @ mf.apply_g(b) @ root).real
    sqrt_a = a.power(0.5)
    oracle = 2 * np.trace(sqrt_a @ b.power(0.0) @ sqrt_a).real
    assert lhs == pytest.approx(oracle, abs=1e-10)


def test_hoa_sqrt_reproduces_ozawa_half(rng):
    # f = t^(1/2): 2 Tr(A^(1/4) B^(1/2) A^(1/4)) = 2 Tr(B^(1/2) A^(1/2))
    a = random_psd(rng, 4, trace_one=False)
    b = random_psd(rng, 4, trace_one=False)
    a, b = pfs(a, b)
    rep_hoa = hoa_at(a, b, "t^0.5")
    rep_oz = ozawa_at(a, b, 0.5)
    assert rep_hoa.lhs == pytest.approx(rep_oz.lhs, rel=1e-10)
    assert rep_hoa.rhs == pytest.approx(rep_oz.rhs, rel=1e-12)


def test_phillips_t_one_equality(rng):
    a = random_psd(rng, 3, trace_one=False)
    b = random_psd(rng, 3, trace_one=False)
    rep = phillips_at(*pfs(a + b, b), 1.0)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_phillips_frozen_scalar_case():
    # A = 2B with B = diag(1,2), t = 2:
    # ||sqrt(2B) - sqrt(B)||_2^2 = (sqrt2 - 1)^2 * Tr(B) = (sqrt2-1)^2 * 3
    rep = phillips_at(diag_pf(2.0, 4.0), diag_pf(1.0, 2.0), 2.0)
    assert rep.lhs == pytest.approx((np.sqrt(2) - 1) ** 2 * 3.0, rel=1e-12)
    assert rep.rhs == pytest.approx(3.0, rel=1e-12)
    assert rep.passed


def test_phillips_campaign(rng):
    for _ in range(100):
        b = random_psd(rng, 4, trace_one=False)
        a = b + random_psd(rng, 4, trace_one=False)
        for rep in phillips(*pfs(a, b)):
            assert rep.passed


def test_phillips_order_violation(rng):
    b = random_psd(rng, 3, trace_one=False) + 0.5 * np.eye(3)
    a = random_psd(rng, 3, trace_one=False)
    with pytest.raises(OrderViolation):
        phillips(*pfs(a, a + b @ b))  # a < a + b^2, order reversed


def test_slack_scaling(rng):
    # degree-1 homogeneity for the trace-form inequalities, degree 2 for the
    # squared-norm sandwich lower bound
    a = random_psd(rng, 3, trace_one=False)
    b = random_psd(rng, 3, trace_one=False)
    base_oz = ozawa_at(*pfs(a, b), 0.5).slack
    base_ps = powers_stormer(*pfs(a, b)).slack
    base_ph = phillips_at(*pfs(a + b, b), 2.0).slack
    base_low, _ = norm_sandwich(*pfs(a, b))
    for c in (0.1, 10.0):
        assert ozawa_at(*pfs(c * a, c * b), 0.5).slack == pytest.approx(
            c * base_oz, rel=1e-9
        )
        assert powers_stormer(*pfs(c * a, c * b)).slack == pytest.approx(
            c * base_ps, rel=1e-9
        )
        assert phillips_at(*pfs(c * (a + b), c * b), 2.0).slack == pytest.approx(
            c * base_ph, rel=1e-9
        )
        low_c, _ = norm_sandwich(*pfs(c * a, c * b))
        assert low_c.slack == pytest.approx(c * c * base_low.slack, rel=1e-9)


def test_commuting_inputs_reduce_to_scalars(rng):
    # every family, on simultaneously diagonal inputs, against elementary
    # real arithmetic computed independently
    diag_a = rng.uniform(0.05, 2.0, size=4)
    diag_b = rng.uniform(0.05, 2.0, size=4)
    a, b, big = pfs(np.diag(diag_a), np.diag(diag_b), np.diag(diag_a + diag_b))

    low, high = norm_sandwich(a, b)
    assert low.lhs == pytest.approx(np.sum((diag_a - diag_b) ** 2), abs=1e-12)
    assert low.rhs == pytest.approx(np.sum(np.abs(diag_a**2 - diag_b**2)), abs=1e-12)
    assert high.rhs == pytest.approx(
        np.sqrt(np.sum((diag_a - diag_b) ** 2))
        * np.sqrt(np.sum((diag_a + diag_b) ** 2)),
        abs=1e-12,
    )

    assert powers_stormer(a, b).lhs == pytest.approx(
        np.sum((np.sqrt(diag_a) - np.sqrt(diag_b)) ** 2), abs=1e-12
    )

    for s in (0.25, 0.5, 0.75):
        rep = ozawa_at(a, b, s)
        assert rep.lhs == pytest.approx(
            2 * np.sum(diag_b**s * diag_a ** (1 - s)), abs=1e-12
        )
        assert rep.rhs == pytest.approx(2 * np.sum(np.minimum(diag_a, diag_b)), abs=1e-12)

    rep = hoa_at(a, b, "t/(1+t)")
    f_a = diag_a / (1 + diag_a)
    g_b = 1 + diag_b
    assert rep.lhs == pytest.approx(2 * np.sum(f_a * g_b), abs=1e-12)

    for t in (1.5, 2.0):
        rep = phillips_at(big, b, t)
        assert rep.lhs == pytest.approx(
            np.sum(np.abs((diag_a + diag_b) ** (1 / t) - diag_b ** (1 / t)) ** t),
            abs=1e-12,
        )


def test_checks_decompose_each_input_once(rng, monkeypatch):
    a = random_psd(rng, 4, trace_one=False)
    b = random_psd(rng, 4, trace_one=False)
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(m, *args, _real=real, **kwargs):
            calls.append(m.shape)
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    # one eigenproblem per input, when its functional is built; |A - B|
    # enters only through ||A - B||_1
    for check, expected in (
        (lambda: norm_sandwich(*pfs(a, b)), 2),
        (lambda: powers_stormer(*pfs(a, b)), 2),
        (lambda: ozawa_s(*pfs(a, b)), 2),
        (lambda: hoa_generalized(*pfs(a, b)), 2),
        (lambda: phillips(*pfs(a + b, b)), 3),
    ):
        calls.clear()
        check()
        assert len(calls) == expected


def test_psd_power_domain_error_survives_single_decomposition():
    # below the one PSD floor (-1e-10 lambda_max = -1.2e-10) though above
    # -1e-10 ||A||_HS: the operand is rejected when it is validated, before
    # any power is taken
    with pytest.raises(NotPSD):
        diag_pf(-1.5e-10, 1.2, 1.2)
    with pytest.raises(NotPSD):
        diag_pf(-1e-9, 1.0, 1.0)


def _count_calls(monkeypatch, names=("eigh", "eigvalsh")) -> list[str]:
    """Record the name of every numpy.linalg call among ``names`` from here on."""
    calls = []
    for name in names:
        real = getattr(np.linalg, name)

        def counted(m, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _checks():
    """Each matrix check as a function of (A, B, A + B)."""
    return {
        "norm_sandwich": lambda a, b, ab: norm_sandwich(a, b),
        "powers_stormer": lambda a, b, ab: powers_stormer(a, b),
        "ozawa_s": lambda a, b, ab: ozawa_s(a, b),
        "hoa_generalized": lambda a, b, ab: hoa_generalized(a, b),
        "phillips": lambda a, b, ab: phillips(ab, b),
    }


def test_functional_operands_are_not_decomposed_again(rng, monkeypatch):
    a = random_psd(rng, 4, trace_one=False)
    b = random_psd(rng, 4, trace_one=False)
    operands = [PositiveFunctional(m) for m in (a, b, a + b)]
    calls = _count_calls(monkeypatch)
    # what is left is phillips' order check, once for its whole grid
    expected = {
        "norm_sandwich": [],
        "powers_stormer": [],
        "ozawa_s": [],
        "hoa_generalized": [],
        "phillips": ["eigvalsh"],
    }
    for name, check in _checks().items():
        calls.clear()
        check(*operands)
        assert calls == expected[name], name


def test_density_matrix_operands_are_accepted():
    a, b = DensityMatrix(np.diag([0.2, 0.8])), DensityMatrix(np.diag([0.6, 0.4]))
    assert ozawa_s(a, b) == ozawa_s(*pfs(a.matrix, b.matrix))


def test_non_hermitian_matrix_operand_is_not_psd():
    # an operand is validated where it is built
    with pytest.raises(NotPSD):
        PositiveFunctional(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_ogata_support_floor_of_small_phi2_eigenvalue():
    # 1e-9 lies above D2's support floor (1e-10) but below 1e-10 times the
    # largest ratio lambda_i / mu_j (~1e-8); both routes keep it at s = 0
    rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
    phi1 = diag_pf(0.01, 0.99)
    phi2 = PositiveFunctional(rot @ np.diag([1e-9, 1.0]) @ rot.T)
    rep = ogata_modular(phi1, phi2, 0.0)
    assert rep.route_residual < 1e-10
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0 * phi1.total(), rel=1e-12)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_ogata_routes_agree_near_the_support_floor(d):
    from modkit.sampling import random_positive_functional, random_unitary

    rng = np.random.default_rng(d)
    failed = []
    for lam_min in (1e-11, 1e-10, 3e-10, 1e-9, 1e-8):
        for _ in range(20):
            phi1 = random_positive_functional(rng, d, faithful=True)
            u = random_unitary(rng, d)
            vals = np.concatenate([[lam_min], rng.uniform(0.05, 1.0, d - 1)])
            phi2 = PositiveFunctional((u * vals) @ np.conj(u).T)
            for s in (0.0, 0.25, 1.0):
                rep = ogata_modular(phi1, phi2, s)
                if not rep.passed:
                    failed.append((lam_min, s, rep.route_residual))
    assert failed == []


def test_inequality_suite_decomposes_each_instance_once(monkeypatch):
    from modkit.campaigns import run_suite

    calls = _count_calls(monkeypatch, ("eigh", "eigvalsh", "svd"))
    samples = 3
    run_suite("inequalities", seed=5, dimension=4, samples=samples)
    # A, B and A + B once each and the Ogata pair; eigvalsh is phillips'
    # A >= B check, once per instance; svd is one ||.||_1 per right-hand
    # side (the norm sandwich's middle term, Powers-Stormer, the s-family,
    # the monotone form, Phillips and Ogata) and Phillips' 4 Schatten norms
    assert calls.count("eigh") == 5 * samples
    assert calls.count("eigvalsh") == 1 * samples
    assert calls.count("svd") == 10 * samples


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_each_family_reports_its_table_in_order(rng):
    # one report per table entry, in table order, all on one right-hand
    # side; each equal bit for bit to its point's formula on the operands
    b = random_psd(rng, 4, trace_one=False)
    a = b + random_psd(rng, 4, trace_one=False)
    a, b = pfs(a, b)
    distance = trace_norm(a.matrix - b.matrix)
    overlap = a.total() + b.total() - distance
    roots = [mf.apply_sqrt_f(a.spectrum) for mf in MONOTONE_FUNCTIONS]
    expected = {
        ozawa_s: (
            [2.0 * float(np.real(np.trace(b.power(s) @ a.power(1.0 - s)))) for s in S_GRID],
            overlap,
        ),
        hoa_generalized: (
            [2.0 * float(np.real(np.trace(r @ mf.apply_g(b.spectrum) @ r)))
             for r, mf in zip(roots, MONOTONE_FUNCTIONS)],
            overlap,
        ),
        phillips: (
            [schatten_norm(a.power(1.0 / t) - b.power(1.0 / t), t) ** t for t in T_GRID],
            distance,
        ),
    }
    for family, (lhs, rhs) in expected.items():
        reports = family(a, b)
        assert isinstance(reports, tuple), family.__name__
        assert _bits([r.lhs for r in reports]) == _bits(lhs), family.__name__
        assert _bits([r.rhs for r in reports]) == _bits([rhs] * len(lhs)), family.__name__
        assert all(r.passed for r in reports), family.__name__
