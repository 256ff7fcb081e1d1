import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from modkit import campaigns, cli, kms, linalg
from modkit.cli import dump_matrix, main
from modkit.errors import BadBeta, DomainError, OutsideStrip, ShapeMismatch, SingularState
from modkit.kms import (
    GAP_RTOL,
    GibbsSystem,
    _antisymmetric_block,
    _householder_tridiagonal,
    centralizer_dimension,
    commutant_dimension,
    gibbs_hamiltonian,
    heisenberg_evolve,
    kms_boundary_defect,
    kms_function,
    state_invariance_defect,
)
from modkit.modular import modular_flow
from modkit.sampling import (
    complex_gaussian,
    random_degenerate_density,
    random_faithful_density,
    random_unitary,
)
from modkit.states import DensityMatrix
from modkit.vecops import BipartiteVector, unvec, vec


def kronecker_commutator_map(d: np.ndarray) -> np.ndarray:
    """The row-major matrix of B -> BD - DB, 1 (x) D^T - D (x) 1."""
    eye = np.eye(d.shape[0])
    return np.kron(eye, d.T) - np.kron(d, eye)


def commutant_nullity(d: np.ndarray, tol: float = 1e-8) -> int:
    """Independent oracle: nullity of the dense commutator map B -> BD - DB.

    The cutoff is absolute at the scale of a density matrix (singular values
    of the map are eigenvalue gaps, all <= 1), so a numerically zero map
    counts as fully null.
    """
    sigma = np.linalg.svd(kronecker_commutator_map(d), compute_uv=False)
    return int(np.count_nonzero(sigma <= tol * max(1.0, float(sigma[0]))))


def gibbs_oracle(density: DensityMatrix, beta: float) -> np.ndarray:
    """H = -log(D) / beta by scipy's Schur-based logm, independent of the
    eigenbasis energies the module carries."""
    return -scipy.linalg.logm(density.matrix) / beta


def test_gibbs_flat_spectrum():
    sys = gibbs_hamiltonian(DensityMatrix(np.eye(3) / 3), beta=1.0)
    assert np.allclose(sys.energies, np.log(3))


def test_gibbs_diagonal_logs():
    sys = gibbs_hamiltonian(DensityMatrix(np.diag([0.75, 0.25])), beta=1.0)
    # ascending eigenvalues 0.25, 0.75
    assert np.allclose(sys.energies, [-np.log(0.25), -np.log(0.75)])


def test_gibbs_energies_are_the_logm_hamiltonian(rng):
    # the energies on D's eigenvectors synthesize -log(D) / beta, whose
    # exponential gives D back
    for beta in (0.5, 1.0, 2.0):
        density = random_faithful_density(rng, 4)
        sys = gibbs_hamiltonian(density, beta)
        v = density.spectrum.eigenvectors
        h = gibbs_oracle(density, beta)
        assert np.linalg.norm((v * sys.energies) @ np.conj(v).T - h) < 1e-10
        back = scipy.linalg.expm(-beta * h)
        assert np.linalg.norm(back - density.matrix) < 1e-10


def test_gibbs_rejects_bad_beta(rng):
    with pytest.raises(BadBeta):
        gibbs_hamiltonian(random_faithful_density(rng, 2), 0.0)


def test_gibbs_rejects_a_beta_whose_energies_overflow(rng):
    # -log(lambda) / beta overflows to inf for beta = 1e-310
    density = random_faithful_density(rng, 3)
    with pytest.raises(BadBeta, match="overflow"):
        gibbs_hamiltonian(density, 1e-310)
    assert np.all(np.isfinite(gibbs_hamiltonian(density, 1e-6).energies))


def test_gibbs_rejects_singular():
    with pytest.raises(SingularState):
        gibbs_hamiltonian(DensityMatrix(np.diag([1.0, 0.0])), 1.0)


def test_evolve_time_zero(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a = complex_gaussian(rng, 3)
    assert np.allclose(heisenberg_evolve(sys, a, [0.0])[0], a)


def test_evolve_conserves_energy(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.3)
    h = gibbs_oracle(sys.density, sys.beta)
    assert np.linalg.norm(heisenberg_evolve(sys, h, [2.1])[0] - h) < 1e-12


def test_evolve_dense_exponential_oracle(rng):
    # expm of the dense commutator generator, fully independent route
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 0.8)
    a = complex_gaussian(rng, 3)
    t = 0.4
    # X -> HX - XH as the dense matrix H (x) 1 - 1 (x) H^T (row-major vec)
    h, eye = gibbs_oracle(sys.density, sys.beta), np.eye(3)
    gen = np.kron(h, eye) - np.kron(eye, h.T)
    propagator = scipy.linalg.expm(1j * t * gen)
    dense = unvec(BipartiteVector(3, 3, propagator @ vec(a).amplitudes))
    assert np.linalg.norm(dense - heisenberg_evolve(sys, a, [t])[0]) < 1e-11


def test_kms_function_at_zero(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    assert kms_function(sys, a, b, [0.0])[0] == pytest.approx(
        complex(np.trace(sys.density.matrix @ a @ b)), abs=1e-12
    )


def test_kms_function_real_time(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    t = 0.9
    u = scipy.linalg.expm(1j * t * gibbs_oracle(sys.density, sys.beta))
    oracle = complex(
        np.trace(sys.density.matrix @ a @ u @ b @ np.conj(u).T)
    )
    assert kms_function(sys, a, b, [t])[0] == pytest.approx(oracle, abs=1e-11)


def test_kms_boundary_condition(rng):
    for beta in (0.5, 1.0, 2.0):
        sys = gibbs_hamiltonian(random_faithful_density(rng, 4), beta)
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
            a, b = complex_gaussian(rng, 4), complex_gaussian(rng, 4)
            assert kms_boundary_defect(sys, a, b, [t])[0] < 1e-10


def test_kms_function_strip_contract(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 2), 1.0)
    a, b = complex_gaussian(rng, 2), complex_gaussian(rng, 2)
    kms_function(sys, a, b, [0.3 + 0.5j])  # inside
    kms_function(sys, a, b, [0.3 + 1.0j])  # upper boundary
    with pytest.raises(OutsideStrip):
        kms_function(sys, a, b, [0.3 - 0.1j])
    with pytest.raises(OutsideStrip):
        kms_function(sys, a, b, [0.3 + 1.1j])


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_time_arrays_match_scalar_times(d, beta):
    # a grid of times against each of its times alone, a one-element array
    rng = np.random.default_rng(int(100 * beta) + d)
    sys = gibbs_hamiltonian(random_faithful_density(rng, d), beta)
    a, b = complex_gaussian(rng, d), complex_gaussian(rng, d)
    t_grid = np.array([-2.0, -0.4, 0.0, 1.0, 2.7])
    boundary = kms_boundary_defect(sys, a, b, t_grid)
    invariance = state_invariance_defect(sys, a, t_grid)
    evolved = heisenberg_evolve(sys, a, t_grid)
    values = kms_function(sys, a, b, t_grid + 0.5j * beta)
    assert boundary.shape == invariance.shape == values.shape == (5,)
    assert evolved.shape == (5, d, d)
    for k in range(len(t_grid)):
        t = t_grid[k : k + 1]
        single = kms_boundary_defect(sys, a, b, t)
        assert single.shape == (1,)
        assert abs(boundary[k] - single[0]) <= 1e-15
        assert abs(invariance[k] - state_invariance_defect(sys, a, t)[0]) <= 1e-15
        assert np.max(np.abs(evolved[k] - heisenberg_evolve(sys, a, t)[0])) <= 1e-15
        value = kms_function(sys, a, b, t + 0.5j * beta)
        assert value.shape == (1,)
        assert abs(values[k] - value[0]) <= 1e-15


@pytest.mark.parametrize("d", [2, 4, 16])
def test_stacked_probes_match_the_per_probe_loop(d):
    # kms-verify evaluates its probes as (k, d, d) stacks; every defect must
    # equal, bit for bit, the one-probe-at-a-time loop it replaced
    rng = np.random.default_rng(70 + d)
    sys = gibbs_hamiltonian(random_faithful_density(rng, d), 1.3)
    t_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    probes = np.array([complex_gaussian(rng, d) for _ in range(2 * 7)])
    a, b = probes[0::2], probes[1::2]  # a_0, b_0, a_1, ... as the CLI draws

    boundary = kms_boundary_defect(sys, a, b, t_grid)
    invariance = state_invariance_defect(sys, a, t_grid)
    assert boundary.shape == invariance.shape == (7, 5)
    assert np.array_equal(
        boundary, [kms_boundary_defect(sys, x, y, t_grid) for x, y in zip(a, b)]
    )
    assert np.array_equal(
        invariance, [state_invariance_defect(sys, x, t_grid) for x in a]
    )

    t = np.array([0.7])
    boundary = kms_boundary_defect(sys, a, b, t)
    invariance = state_invariance_defect(sys, a, t)
    assert boundary.shape == invariance.shape == (7, 1)
    assert np.array_equal(
        boundary, [kms_boundary_defect(sys, x, y, t) for x, y in zip(a, b)]
    )
    assert np.array_equal(invariance, [state_invariance_defect(sys, x, t) for x in a])

    z = t_grid + 0.5j * sys.beta
    assert np.array_equal(
        kms_function(sys, a, b, z), [kms_function(sys, x, y, z) for x, y in zip(a, b)]
    )
    evolved = heisenberg_evolve(sys, a, t_grid)
    assert evolved.shape == (7, 5, d, d)
    assert np.array_equal(evolved, [heisenberg_evolve(sys, x, t_grid) for x in a])

    # the time axis is an array axis: the whole grid gives the bits of its
    # one-time calls, concatenated along the time axis
    def whole_and_by_time(f, *ops, shift=0.0, axis=-1):
        whole = f(sys, *ops, t_grid + shift)
        times = [t_grid[i : i + 1] + shift for i in range(len(t_grid))]
        return whole, np.concatenate([f(sys, *ops, t) for t in times], axis=axis)

    for whole, single in (
        whole_and_by_time(kms_function, a, b, shift=0.5j * sys.beta),
        whole_and_by_time(kms_boundary_defect, a, b),
        whole_and_by_time(state_invariance_defect, a),
        whole_and_by_time(heisenberg_evolve, a, axis=1),
    ):
        assert whole.shape == single.shape
        assert np.array_equal(whole.view(np.uint64), single.view(np.uint64))


@pytest.mark.parametrize("d", [2, 4, 16])
def test_one_default_probe_block_stays_within_four_block_bounds(d):
    # kms-verify's probe block is the only memory bound on the KMS path:
    # one block of the default size keeps both defects' traced peak within
    # a few (probes, times, d, d) arrays of KMS_BLOCK_BYTES each
    rng = np.random.default_rng(90 + d)
    sys = gibbs_hamiltonian(random_faithful_density(rng, d), 1.0)
    t_grid = np.array(campaigns.KMS_TIMES)
    pairs = max(1, cli.KMS_BLOCK_BYTES // (16 * len(t_grid) * d * d))
    probes = np.array([complex_gaussian(rng, d) for _ in range(2 * pairs)])
    a, b = probes[0::2], probes[1::2]
    kms_boundary_defect(sys, a, b, t_grid)
    state_invariance_defect(sys, a, t_grid)
    tracemalloc.start()
    try:
        kms_boundary_defect(sys, a, b, t_grid)
        state_invariance_defect(sys, a, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cli.KMS_BLOCK_BYTES


def test_an_empty_time_grid_or_probe_stack_gives_empty_results(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    none = np.array([])
    assert kms_function(sys, a, b, none).shape == (0,)
    assert kms_boundary_defect(sys, a, b, none).shape == (0,)
    assert state_invariance_defect(sys, a, none).shape == (0,)
    assert heisenberg_evolve(sys, a, none).shape == (0, 3, 3)
    empty = np.empty((0, 3, 3), dtype=complex)
    t = np.array([0.5, 1.0])
    assert kms_function(sys, empty, empty, t).shape == (0, 2)
    assert kms_boundary_defect(sys, empty, empty, t).shape == (0, 2)
    assert state_invariance_defect(sys, empty, t).shape == (0, 2)


def test_stacked_operands_are_validated(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a = np.stack([complex_gaussian(rng, 3) for _ in range(4)])
    for bad in (a[0, 0], a[:, :2], a[None]):
        with pytest.raises(ShapeMismatch):
            heisenberg_evolve(sys, bad, [0.5])
    with pytest.raises(ShapeMismatch):
        kms_boundary_defect(sys, a, a[:3], [0.5])
    with pytest.raises(ShapeMismatch):
        kms_function(sys, a, a[0], [0.5])


# a ragged stack, which numpy refuses to convert to one array
RAGGED = [np.eye(2), np.eye(3)]


def test_heisenberg_evolve_rejects_a_ragged_stack(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 2), 1.0)
    with pytest.raises(ShapeMismatch, match="unequal shapes"):
        heisenberg_evolve(sys, RAGGED, [0.0])


def test_kms_function_rejects_a_ragged_stack(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 2), 1.0)
    with pytest.raises(ShapeMismatch, match="unequal shapes"):
        kms_function(sys, RAGGED, np.eye(2), [0.0])


def test_an_operator_numpy_cannot_convert_keeps_its_error_type(rng):
    # only a ragged stack becomes a ShapeMismatch, which is no ValueError
    sys = gibbs_hamiltonian(random_faithful_density(rng, 2), 1.0)
    with pytest.raises(ValueError, match="complex"):
        heisenberg_evolve(sys, [["1", "x"], ["0", "1"]], [0.0])


@pytest.mark.parametrize(
    "t", [0.5, np.array(0.5), [[0.5]], np.zeros((2, 3))], ids=["float", "0-d", "1x1", "2x3"]
)
def test_times_must_form_a_1d_array(rng, t):
    # one time is an array of length one; a 0-d or 2-d time is refused
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    for call in (
        lambda: heisenberg_evolve(sys, a, t),
        lambda: kms_function(sys, a, b, t),
        lambda: kms_boundary_defect(sys, a, b, t),
        lambda: state_invariance_defect(sys, a, t),
    ):
        with pytest.raises(ShapeMismatch, match="times must form a 1-D array"):
            call()


def test_times_that_are_not_real_numbers_raise_domain_error(rng):
    # a physical time with an imaginary part is refused, not cut to its real
    # part; an entry numpy cannot convert to a number is refused everywhere
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    real_time = (
        lambda t: heisenberg_evolve(sys, a, t),
        lambda t: state_invariance_defect(sys, a, t),
        lambda t: kms_boundary_defect(sys, a, b, t),
    )
    for call in real_time:
        for t in (np.array([1 + 1j]), [0.5, 1j]):
            with pytest.raises(DomainError, match="is not real"):
                call(t)
    for call in (*real_time, lambda z: kms_function(sys, a, b, z)):
        for t in (["a"], [0.5, object()], [np.nan], [np.inf], [1j * np.nan]):
            with pytest.raises(DomainError, match="times must be numbers"):
                call(t)


def test_kms_function_strip_contract_for_time_arrays(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 3), 1.0)
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    kms_function(sys, a, b, np.array([0.0, 0.5j, 2.0 + 1.0j]))  # all inside
    for bad in (-0.1j, 1.1j):
        with pytest.raises(OutsideStrip):
            kms_function(sys, a, b, np.array([0.5j, 0.3 + bad, 1.0j]))


def test_state_invariance(rng):
    sys = gibbs_hamiltonian(random_faithful_density(rng, 4), 1.7)
    for t in (-1.0, 0.3, 2.5):
        a = complex_gaussian(rng, 4)
        assert state_invariance_defect(sys, a, [t])[0] < 1e-12


def test_time_convention_bridge(rng):
    # sigma_s^modular = sigma_(-beta s)^physical
    density = random_faithful_density(rng, 3)
    for beta in (0.5, 2.0):
        sys = gibbs_hamiltonian(density, beta)
        a = complex_gaussian(rng, 3)
        for s in (-1.0, 0.7):
            lhs = modular_flow(density, a, s)
            rhs = heisenberg_evolve(sys, a, [-beta * s])[0]
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_centralizer_distinct_spectrum():
    # spanned by the two spectral projectors
    assert centralizer_dimension(DensityMatrix(np.diag([0.7, 0.3]))) == 2


def test_centralizer_flat_spectrum():
    assert centralizer_dimension(DensityMatrix(np.eye(3) / 3)) == 9


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("factor, merged", [(0.5, True), (2.0, False)])
def test_centralizer_gap_at_its_threshold(d, factor, merged):
    # the threshold is max(GAP_RTOL * diameter, 1e-13 * max(1, lambda_max)):
    # its noise floor at d = 2, whose diameter is the gap itself, and its
    # diameter term at d = 16, with 15 levels 1e-3 apart
    base = (1.0 - 1e-3 * (d - 2) * (d + 1) / 2) / d  # trace one, gap aside
    levels = base + 1e-3 * np.arange(d - 1)
    threshold = max(GAP_RTOL * (levels[-1] - levels[0]), 1e-13)
    vals = np.append(levels, levels[-1] + factor * threshold)
    # the top two levels form one 2 x 2 block or two 1 x 1 blocks
    assert centralizer_dimension(DensityMatrix(np.diag(vals))) == (d - 2) + (4 if merged else 2)


def test_centralizer_partial_degeneracy():
    d = DensityMatrix(np.diag([0.4, 0.4, 0.2]))
    assert centralizer_dimension(d) == 5  # 2^2 + 1^2


def test_centralizer_dimension_matches_drawn_blocks(rng):
    density, blocks = random_degenerate_density(rng, 5)
    assert centralizer_dimension(density) == sum(m * m for m in blocks)


def test_centralizer_matches_nullspace_oracle(rng):
    for _ in range(10):
        density, _ = random_degenerate_density(rng, 4)
        assert centralizer_dimension(density) == commutant_nullity(density.matrix)
    rotated = random_faithful_density(rng, 4)
    assert centralizer_dimension(rotated) == commutant_nullity(rotated.matrix)


@pytest.mark.parametrize("d", [2, 16])
def test_kms_verify_commutant_route_matches_blocks(rng, d):
    # the routes kms-verify compares: the nullity of the commutator map and
    # the centralizer dimension, both the sum of m^2 over blocks
    cases = [random_degenerate_density(rng, d) for _ in range(10)]
    if d == 16:
        cases.append((DensityMatrix(np.eye(16) / 16), [16]))
    for density, blocks in cases:
        expected = sum(m * m for m in blocks)
        assert commutant_dimension(density) == expected
        assert centralizer_dimension(density) == expected


def _gapped_density(mults, gap):
    """Rotated density with eigenvalue blocks of sizes ``mults``, ``gap`` apart."""
    d = sum(mults)
    steps = np.repeat(np.arange(len(mults)), mults)
    vals = (1.0 - gap * steps.sum()) / d + gap * steps  # trace one, exact gaps
    u = random_unitary(np.random.default_rng(d), d)
    return DensityMatrix((u * vals) @ np.conj(u).T)


@pytest.mark.parametrize(
    "mults,gap",
    [(m, g) for m in ((1, 1), (3, 1, 5, 7)) for g in (1e-6, 1e-4, 1e-2)]
    + [((2,), 0.0), ((16,), 0.0)],
)
def test_kms_verify_counts_agree_away_from_the_cutoffs(mults, gap):
    # kms-verify passes only if the eigenblock count of centralizer_dimension and
    # the nullity of B -> BD - DB agree. They do for eigenvalue gaps of
    # 1e-6 or more and for exact degeneracy (one level), at d = 2 and d = 16;
    # gaps between ~1e-13 and 1e-8 fall between the two cutoffs
    density = _gapped_density(mults, gap)
    expected = sum(m * m for m in mults)
    assert centralizer_dimension(density) == expected
    assert commutant_dimension(density) == expected


@pytest.mark.parametrize("d", [2, 16])
def test_commutant_dimension_matches_the_svd_oracle(rng, d):
    # commutant_dimension counts the singular values of the real map's
    # antisymmetric block at the cutoff the SVD oracle applies to the map's
    mults = (1, 1) if d == 2 else (3, 1, 5, 7)
    cases = [random_degenerate_density(rng, d)[0] for _ in range(10)]
    cases.append(DensityMatrix(np.eye(d) / d))
    cases += [_gapped_density(mults, gap) for gap in (1e-6, 1e-4, 1e-2)]
    for density in cases:
        assert commutant_dimension(density) == commutant_nullity(density.matrix)


def _block_of_map(k: np.ndarray) -> np.ndarray:
    """The symmetric-to-antisymmetric block of an n^2 x n^2 map ``k``, read
    from its rows (i, j), i < j, and folded as the module folds the rows it
    builds."""
    n = math.isqrt(k.shape[0])
    i, j = np.triu_indices(n, 1)
    rows = k.reshape(n, n, n, n)[i, j]
    p, q = np.triu_indices(n)
    return (rows[:, p, q] + rows[:, q, p]) * np.where(p == q, math.sqrt(0.5), 1.0)


def _complex_commutant_count(density: DensityMatrix) -> int:
    """The commutant count from the complex map of D itself, at the module's cutoff."""
    size = np.abs(np.linalg.eigvalsh(kronecker_commutator_map(density.matrix)))
    return int(np.count_nonzero(size <= kms.COMMUTANT_NULL_RTOL * max(1.0, float(size.max()))))


def _route_cases(d):
    """Random faithful, degenerate, flat and gapped densities of dimension d."""
    rng = np.random.default_rng(90 + d)
    cases = [random_faithful_density(rng, d) for _ in range(5)]
    cases += [random_degenerate_density(rng, d)[0] for _ in range(5)]
    cases.append(DensityMatrix(np.eye(d) / d))
    mults = (d,) if d == 1 else (d // 2, d - d // 2)
    return cases + [_gapped_density(mults, gap) for gap in (1e-10, 1e-6, 1e-2)]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_householder_tridiagonal_is_similar_to_d(d):
    for density in _route_cases(d):
        m = density.matrix
        t = _householder_tridiagonal(m)
        assert t.dtype == np.float64 and t.shape == (d, d)
        assert np.array_equal(t, t.T)
        assert not np.any(np.triu(t, 2))
        scale = max(1.0, float(np.linalg.norm(m, 2)))
        assert np.max(np.abs(np.linalg.eigvalsh(t) - np.linalg.eigvalsh(m))) <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_antisymmetric_block_is_the_kronecker_maps_block_bit_for_bit(d):
    # the rows built from T's entries are the Kronecker form's rows (i, j),
    # i < j, to the bit apart from the sign of a zero, for the real
    # tridiagonal form and for a complex Hermitian matrix alike
    rng = np.random.default_rng(d)
    for density in _route_cases(d):
        g = complex_gaussian(rng, d)
        for m in (_householder_tridiagonal(density.matrix), g + np.conj(g).T):
            block = _antisymmetric_block(m)
            expected = _block_of_map(kronecker_commutator_map(m))
            assert block.dtype == expected.dtype and block.shape == expected.shape
            # np.kron's products 0 * x may carry the sign of x; + 0.0 clears it
            assert (block + 0.0).tobytes() == (expected + 0.0).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_commutator_map_of_the_tridiagonal_form_keeps_the_moduli(d):
    # {lambda_i - lambda_j} is invariant under the similarity; the real map
    # of T has the moduli of the complex map of D
    for density in _route_cases(d):
        t = _householder_tridiagonal(density.matrix)
        k_t, k_d = kronecker_commutator_map(t), kronecker_commutator_map(density.matrix)
        assert k_t.dtype == np.float64 and k_d.dtype == complex
        real = np.sort(np.abs(np.linalg.eigvalsh(k_t)))
        dense = np.sort(np.abs(np.linalg.eigvalsh(k_d)))
        assert np.max(np.abs(real - dense)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_antisymmetric_block_singular_values_are_the_map_moduli(d):
    # K = [[0, B^T], [B, 0]] on the symmetric and antisymmetric bases: each
    # singular value of B is the modulus of two eigenvalues of K, and the
    # d columns B has beyond its rows add d zeros
    for density in _route_cases(d):
        t = _householder_tridiagonal(density.matrix)
        k = kronecker_commutator_map(t)
        block = _antisymmetric_block(t)
        assert block.dtype == np.float64
        assert block.shape == (d * (d - 1) // 2, d * (d + 1) // 2)
        sigma = np.linalg.svd(block, compute_uv=False)
        moduli = np.sort(np.abs(np.linalg.eigvalsh(k)))
        counted = np.sort(np.concatenate([sigma, sigma, np.zeros(d)]))
        assert np.max(np.abs(counted - moduli)) <= 1e-12


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("gap", [1e-14, 1e-12, 1e-10, 9e-9, 1.1e-8, 1e-7, 1e-6])
def test_commutant_dimension_matches_the_complex_route_across_the_window(d, gap):
    # gaps on both sides of the 1e-8 null cutoff, and inside the window where
    # the count differs from centralizer_dimension's; a gap of exactly 1e-8
    # lies on the cutoff, where rounding decides either route
    mults = (1, 1) if d == 2 else (3, 1, 5, 7)
    density = _gapped_density(mults, gap)
    assert commutant_dimension(density) == _complex_commutant_count(density)


# The certificate: a Cholesky factorization of the antisymmetric block's
# shifted Gram matrix stands in for the SVD whenever it proves that no
# singular value is null. The oracle is the SVD count the certificate skips.
_SVD = np.linalg.svd
SWEEP_DIMS = (2, 3, 4, 8, 16)
SWEEP_GAPS = (1e-2, 1e-4, 1e-5, 1e-6, 3e-7, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 0.0)


def _svd_block_count(density: DensityMatrix) -> int:
    """d plus twice the singular values of the antisymmetric block at or
    below the module's cutoff, all computed by the SVD."""
    block = _antisymmetric_block(_householder_tridiagonal(density.matrix))
    sigma = _SVD(block, compute_uv=False)
    cutoff = kms.COMMUTANT_NULL_RTOL * max(1.0, float(sigma.max(initial=0.0)))
    return density.dim + 2 * int(np.count_nonzero(sigma <= cutoff))


def _sweep(dims=SWEEP_DIMS):
    """Rotated densities with random spectra, two of whose eigenvalues lie
    ``gap`` apart: 40 seeds per dimension and gap."""
    for d in dims:
        for gap in SWEEP_GAPS:
            for seed in range(40):
                rng = np.random.default_rng(seed)
                vals = rng.uniform(1.0, 2.0, d)
                vals /= vals.sum()
                mid = (vals[0] + vals[1]) / 2
                vals[0], vals[1] = mid - gap / 2, mid + gap / 2
                u = random_unitary(rng, d)
                yield DensityMatrix((u * vals) @ np.conj(u).T)


def _counting_svd(monkeypatch):
    """Patch np.linalg.svd to count its calls; returns the list of calls."""
    calls = []

    def svd(*args, **kwargs):
        calls.append(None)
        return _SVD(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


@pytest.mark.parametrize("d", SWEEP_DIMS)
def test_certified_count_matches_the_svd_oracle_across_gaps(d, monkeypatch):
    # every count, certified or not, equals the SVD count; gaps of 1e-5 and
    # more certify, gaps of 1e-8 and less take the SVD
    calls = _counting_svd(monkeypatch)
    certified = 0
    for density in _sweep((d,)):
        before = len(calls)
        assert commutant_dimension(density) == _svd_block_count(density)
        certified += len(calls) == before
    assert certified >= 3 * 40


def test_a_certificate_without_its_shift_fails_the_sweep(monkeypatch):
    # tau^2 = 0 certifies any numerically positive Gram matrix, so gaps at
    # or below the cutoff count as simple
    monkeypatch.setattr(kms, "_certificate_shift", lambda block: 0.0)
    assert any(commutant_dimension(den) != _svd_block_count(den) for den in _sweep())


def test_statepair_densities_are_certified_without_an_svd(monkeypatch):
    calls = _counting_svd(monkeypatch)
    rng = np.random.default_rng(30)
    for _ in range(20):
        assert commutant_dimension(random_faithful_density(rng, 16)) == 16
    assert len(calls) == 0
    density = _gapped_density((1,) * 16, 1e-10)
    assert commutant_dimension(density) == _svd_block_count(density)
    assert len(calls) == 1


def test_one_level_takes_neither_factorization(monkeypatch):
    calls = _counting_svd(monkeypatch)
    monkeypatch.setattr(np.linalg, "cholesky", lambda *args: pytest.fail("Cholesky at d = 1"))
    assert commutant_dimension(DensityMatrix(np.eye(1))) == 1
    assert len(calls) == 0


def _left_reflections_only(d: np.ndarray) -> np.ndarray:
    """The Householder reduction with its right-hand reflections left out,
    so that T is no longer similar to D."""
    a = np.array(d, dtype=complex)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
        v /= np.linalg.norm(v)
        a[k + 1 :, k:] -= 2.0 * np.outer(v, np.conj(v) @ a[k + 1 :, k:])
    off = np.abs(np.diagonal(a, -1))
    return np.diag(np.real(np.diagonal(a))) + np.diag(off, -1) + np.diag(off, 1)


def _anticommutator_block(t: np.ndarray) -> np.ndarray:
    """The block of B -> Bt + tB: the commutator map with its sign flipped,
    which commutes with the swap instead of anticommuting with it."""
    eye = np.eye(t.shape[0])
    return _block_of_map(np.kron(eye, t.T) + np.kron(t, eye))


_CENTRALIZER_WINDOW = kms.centralizer_window


def _window_without_grouping(density):
    """centralizer_window with its grouping threshold set to 0."""
    gap, _, cutoff = _CENTRALIZER_WINDOW(density)
    return gap, 0.0, cutoff


@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize(
    "target, defect",
    [
        ("_householder_tridiagonal", _left_reflections_only),
        ("centralizer_window", _window_without_grouping),
        ("_antisymmetric_block", _anticommutator_block),
    ],
    ids=["no-right-reflection", "zero-grouping-threshold", "anticommutator"],
)
def test_planted_defects_split_the_kms_verify_routes(tmp_path, capsys, monkeypatch, d, target, defect):
    # one defect per route; a simple spectrum would hide the reduction's,
    # since any T with d distinct eigenvalues still counts d. The commutant
    # count reads only K's symmetric-to-antisymmetric block, so a map
    # outside that structure, the anticommutator, must miscount rather than
    # hide in the blocks the count never reads
    for seed in range(4):
        density, blocks = random_degenerate_density(np.random.default_rng(seed), d)
        assert max(blocks) >= 2
        path = tmp_path / f"omega-{seed}.json"
        path.write_text(json.dumps(dump_matrix(density.matrix)))
        reports = []
        for patched in (False, True):
            with monkeypatch.context() as m:
                if patched:
                    m.setattr(kms, target, defect)
                code = main(["kms-verify", str(path), "--json"])
            reports.append((code, json.loads(capsys.readouterr().out)))
        (good_code, good), (bad_code, bad) = reports
        assert good_code == 0 and good["centralizer_dimension"] == good["commutant_dimension"]
        assert bad_code == 1 and bad["centralizer_dimension"] != bad["commutant_dimension"]


# A planted defect in the direction of the modular flow: unitary(t) gives
# A^(-it). Only kms.time_bridge compares the modular flow with an
# independent one, the physical flow at -beta s; the other families
# either do not flow or take every phase from the same unitary.
_UNITARY = linalg.SpectralDecomposition.unitary


@pytest.mark.parametrize("d, samples", [(2, 12), (4, 12), (16, 3)])
@pytest.mark.parametrize("patched", [False, True], ids=["unpatched", "reversed-flow"])
def test_planted_flow_direction_defect(d, samples, patched, monkeypatch):
    if patched:
        monkeypatch.setattr(
            linalg.SpectralDecomposition, "unitary", lambda self, t: _UNITARY(self, -t)
        )
    draw, families = campaigns.SUITES["kms"]
    family = next(f for f in families if "kms.time_bridge" in f.names)
    rng = np.random.default_rng(3)
    for k in range(samples):
        checks = campaigns.evaluate(family, draw(rng, d, k))
        bridge = next(check for check in checks if check.name == "kms.time_bridge")
        assert bridge.passed is not patched, (k, bridge.value)


def test_gibbs_system_invariants_hold(rng):
    density = random_faithful_density(rng, 3)
    sys = gibbs_hamiltonian(density, 1.1)
    assert isinstance(sys, GibbsSystem)
    u = random_unitary(rng, 3)
    evolved = heisenberg_evolve(sys, u, [1.0])[0]
    # unitarity is preserved by a *-automorphism
    assert np.linalg.norm(evolved @ np.conj(evolved).T - np.eye(3)) < 1e-12


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
def test_gibbs_rejects_non_finite_beta(rng, beta):
    with pytest.raises(BadBeta):
        gibbs_hamiltonian(random_faithful_density(rng, 2), beta)
