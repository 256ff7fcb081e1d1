import numpy as np
import pytest

from modkit.errors import BadExponent, DomainError, NotHermitian, NotPSD
from modkit.linalg import (
    check_psd,
    psd_power_values,
    schatten_norm,
    spectral_decomposition,
    trace_norm,
)
from modkit.modular import (
    connes_cocycle,
    modular_flow,
    relative_modular_power,
    relative_modular_unitary,
)
from modkit.sampling import complex_gaussian, random_hermitian, random_psd
from modkit.states import DensityMatrix, PositiveFunctional


def test_spectral_function_identity():
    a = np.diag([2.0, 3.0])
    assert np.allclose(spectral_decomposition(a).apply(lambda t: t), a)


def test_spectral_function_sqrt_diagonal():
    a = np.diag([4.0, 9.0])
    assert np.allclose(spectral_decomposition(a).apply(np.sqrt), np.diag([2.0, 3.0]))


def test_spectral_sqrt_squares_back(rng):
    # oracle: the square of the computed root must reproduce the input
    a = random_psd(rng, 3, trace_one=False)
    root = spectral_decomposition(a).apply(lambda t: np.sqrt(np.maximum(t, 0.0)))
    assert np.linalg.norm(root @ root - a) < 1e-12 * max(1.0, np.linalg.norm(a))


def test_spectral_function_rejects_non_hermitian(rng):
    with pytest.raises(NotHermitian):
        spectral_decomposition(complex_gaussian(rng, 3)).apply(np.sqrt)


def test_spectral_decomposition_orthonormal(rng):
    dec = spectral_decomposition(random_hermitian(rng, 5))
    v = dec.eigenvectors
    assert np.linalg.norm(np.conj(v).T @ v - np.eye(5)) < 1e-12
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_jordan_diagonal_split():
    plus, minus = spectral_decomposition(np.diag([1.0, -2.0])).jordan()
    assert np.allclose(plus, np.diag([1.0, 0.0]))
    assert np.allclose(minus, np.diag([0.0, 2.0]))


def test_jordan_psd_input(rng):
    a = random_psd(rng, 3)
    plus, minus = spectral_decomposition(a).jordan()
    assert np.linalg.norm(plus - a) < 1e-12
    assert np.linalg.norm(minus) < 1e-12


def test_jordan_random_spectral_oracle(rng):
    t = random_hermitian(rng, 4)
    plus, minus = spectral_decomposition(t).jordan()
    # independent oracle: split the spectrum by sign
    vals, vecs = np.linalg.eigh(t)
    plus_oracle = (vecs * np.where(vals > 0, vals, 0.0)) @ np.conj(vecs).T
    minus_oracle = (vecs * np.where(vals < 0, -vals, 0.0)) @ np.conj(vecs).T
    assert np.linalg.norm(plus - plus_oracle) < 1e-12
    assert np.linalg.norm(minus - minus_oracle) < 1e-12
    assert np.linalg.norm(plus @ minus) < 1e-12
    assert np.linalg.norm(t - (plus - minus)) < 1e-12


def test_jordan_trace_identity(rng):
    t = random_hermitian(rng, 5)
    plus, minus = spectral_decomposition(t).jordan()
    assert abs(trace_norm(t) - np.trace(plus + minus).real) < 1e-12


@pytest.mark.parametrize(
    "p, expected", [(1, 7.0), (2, 5.0), (np.inf, 4.0)]
)
def test_schatten_diagonal(p, expected):
    assert schatten_norm(np.diag([3.0, -4.0]), p) == pytest.approx(expected)


def test_schatten_two_is_hs(rng):
    a = complex_gaussian(rng, 5)
    assert schatten_norm(a, 2) == pytest.approx(
        np.sqrt(np.trace(np.conj(a).T @ a).real), abs=1e-12
    )


def test_schatten_monotone_in_p(rng):
    for _ in range(10):
        a = complex_gaussian(rng, 4)
        assert (
            schatten_norm(a, 1) >= schatten_norm(a, 2) >= schatten_norm(a, np.inf)
        )


def test_schatten_bad_exponent():
    with pytest.raises(BadExponent):
        schatten_norm(np.eye(2), 0.5)


def test_nan_exponent_raises_at_every_entry_point():
    # a NaN exponent fails the guards written as "not p >= 1", "not s >= 0"
    pf = PositiveFunctional(np.diag([0.25, 0.75]))
    with pytest.raises(BadExponent):
        schatten_norm(np.eye(2), np.nan)
    for power in (
        lambda s: psd_power_values(np.array([0.25, 0.75]), s),
        lambda s: spectral_decomposition(pf.matrix).power(s),
        pf.power,
        lambda s: relative_modular_power(pf, pf, s),
    ):
        with pytest.raises(DomainError):
            power(np.nan)


def test_non_finite_time_raises_at_every_unitary_entry_point():
    # exp(i t log A) at t = nan or +-inf is a non-finite matrix, not a unitary
    omega = DensityMatrix(np.diag([0.25, 0.75]))
    for unitary in (
        omega.spectrum.unitary,
        lambda t: modular_flow(omega, np.eye(2), t),
        lambda t: relative_modular_unitary(omega, omega, t),
        lambda t: connes_cocycle(omega, omega, t),
    ):
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="finite t"):
                unitary(t)


def test_check_psd_identity():
    assert check_psd(np.eye(3))


def test_check_psd_negative_eigenvalue():
    assert not check_psd(np.diag([1.0, -1e-6]), tol=1e-12)


def test_check_psd_gram(rng):
    b = complex_gaussian(rng, 4)
    assert check_psd(b @ np.conj(b).T)


def test_check_psd_non_hermitian_false(rng):
    assert not check_psd(complex_gaussian(rng, 3))


def test_power_round_trip(rng):
    a = random_psd(rng, 4, trace_one=False) + 0.05 * np.eye(4)
    for s in (0.3, 0.5, 0.9, 1.0):
        back = spectral_decomposition(spectral_decomposition(a).power(s)).power(1.0 / s)
        assert np.linalg.norm(back - a) < 1e-10 * max(1.0, np.linalg.norm(a))


def test_psd_power_support_convention(rng):
    proj = spectral_decomposition(np.diag([0.0, 0.5, 2.0])).power(0.0)
    assert np.allclose(proj, np.diag([0.0, 1.0, 1.0]))


def test_psd_power_negative_needs_full_support():
    with pytest.raises(DomainError):
        spectral_decomposition(np.diag([0.0, 1.0])).power(-0.5)


def test_psd_power_rejects_indefinite():
    with pytest.raises(DomainError):
        spectral_decomposition(np.diag([1.0, -1.0])).power(0.5)


def test_spectral_power_matches_scipy(rng):
    import scipy.linalg

    a = random_psd(rng, 4, trace_one=False) + 0.05 * np.eye(4)
    dec = spectral_decomposition(a)
    for s in (-1.0, -0.5, 0.3, 1.7):
        oracle = scipy.linalg.fractional_matrix_power(a, s)
        assert np.linalg.norm(dec.power(s) - oracle) < 1e-10 * np.linalg.norm(oracle)


def test_spectral_power_support_and_clip():
    dec = spectral_decomposition(np.diag([-1e-14, 1e-12, 0.5, 2.0]))
    assert np.allclose(dec.power(0.0), np.diag([0.0, 0.0, 1.0, 1.0]))
    assert np.allclose(dec.power(0.5), np.diag([0.0, 1e-6, 0.5**0.5, 2.0**0.5]))
    assert dec.support().tolist() == [False, False, True, True]


def test_spectral_negative_power_needs_positive_spectrum_only():
    # below the 1e-10 support floor of s >= 0, yet strictly positive
    tiny = spectral_decomposition(np.diag([1e-11, 1.0]))
    assert np.allclose(tiny.power(-0.5), np.diag([1e-11**-0.5, 1.0]), rtol=1e-12)
    singular = spectral_decomposition(np.diag([0.0, 1.0]))
    with pytest.raises(DomainError):
        singular.power(-0.5)
    with pytest.raises(DomainError):
        singular.unitary(0.3)


def test_spectral_unitary_matches_scipy(rng):
    import scipy.linalg

    a = random_psd(rng, 4, trace_one=False) + 0.05 * np.eye(4)
    u = spectral_decomposition(a).unitary(0.7)
    oracle = scipy.linalg.expm(0.7j * scipy.linalg.logm(a))
    assert np.linalg.norm(u - oracle) < 1e-10
    assert np.linalg.norm(np.conj(u).T @ u - np.eye(4)) < 1e-12


def test_psd_power_rejects_negative_exponent():
    # full support, far from any floor: inverse powers still belong to
    # SpectralDecomposition.power alone
    a = np.diag([0.5, 2.0])
    for s in (-0.5, -1.0):
        with pytest.raises(DomainError):
            psd_power_values(np.array([0.5, 2.0]), s)
    assert np.allclose(spectral_decomposition(a).power(-1.0), np.diag([2.0, 0.5]))


def _accepts(call, error) -> bool:
    try:
        call()
    except error:
        return False
    return True


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("k", [0.5, 0.99, 1.01, 2.0])
def test_one_psd_floor(d, c, k):
    # diag(lambda_min, c, ..., c) with lambda_min = -k * 1e-10 * max(1, c):
    # above the floor -1e-10 * max(1, lambda_max) for k < 1, below for k > 1
    vals = np.array([-k * 1e-10 * max(1.0, c)] + [c] * (d - 1))
    m = np.diag(vals)
    verdicts = [
        _accepts(lambda: PositiveFunctional(m), NotPSD),
        check_psd(m),
        _accepts(lambda: psd_power_values(vals, 0.5), DomainError),
        _accepts(lambda: spectral_decomposition(m).power(0.5), DomainError),
    ]
    assert verdicts == [k < 1] * 4


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_spectra_fail_closed(d, bad):
    # NaN and inf never pass as PSD: eigensolvers return arbitrary finite
    # values for such matrices, and max(1, nan) is 1, so no floor catches them
    from modkit.cone import cone_contains
    from modkit.vecops import vec

    vals = np.ones(d)
    vals[-1] = bad
    m = np.diag(vals)
    assert check_psd(m) is False
    assert cone_contains(vec(m)) is False
    with pytest.raises(NotPSD):
        PositiveFunctional(m)
    with pytest.raises(DomainError):
        psd_power_values(vals, 0.5)
