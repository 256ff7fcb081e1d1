"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to also see the per-criterion residual summaries.
Everything is seeded; total runtime stays well under a minute.
"""

import json
import subprocess
import sys

import numpy as np

from modkit.campaigns import run_suite
from modkit.cli import dump_matrix
from modkit.cone import cone_contains, cone_element, cone_pairing, decompose_j_fixed
from modkit.inequalities import (
    MONOTONE_FUNCTIONS,
    hoa_generalized,
    norm_sandwich,
    ogata_modular,
    ozawa_s,
    phillips,
    powers_stormer,
)
from modkit.kms import gibbs_hamiltonian, kms_boundary_defect, state_invariance_defect
from modkit.kms import centralizer_dimension
from modkit.modular import (
    connes_cocycle,
    modular_conjugation,
    modular_flow,
    pi_factored,
    relative_modular_operator,
    relative_modular_power,
    relative_s_matrix,
    verify_tomita_takesaki,
)
from modkit.sampling import (
    complex_gaussian,
    random_degenerate_density,
    random_faithful_density,
    random_hermitian,
    random_positive_functional,
    random_psd,
    random_rank_deficient,
    random_unitary,
)
from modkit.schmidt import is_cyclic_separating, schmidt_decompose
from modkit.states import PositiveFunctional
from modkit.vecops import SuperOperator, partial_trace, vec


def _report(num, label, worst, bound, ok):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}: worst {worst:.3e} vs {bound:g}")


def test_criterion_01_vec_kronecker_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(100):
        d = 2 + k % 5  # dimensions 2..6
        a, b, x = (complex_gaussian(rng, d) for _ in range(3))
        dense = np.kron(a, b) @ vec(x).amplitudes
        factored = SuperOperator.factored(d, a, b).apply(vec(x)).amplitudes
        res = float(np.linalg.norm(dense - factored))
        worst = max(worst, res)
    ok = worst < 1e-12
    _report(1, "(A x B) vec(X) = vec(A X B^T), 100 triples", worst, 1e-12, ok)
    assert ok


def test_criterion_02_schmidt_reconstruction_and_spectrum():
    rng = np.random.default_rng(102)
    worst_recon = worst_spec = 0.0
    for k in range(100):
        dy = 2 + k % 4
        dx = 2 + (k // 4) % 4
        u = vec(complex_gaussian(rng, dy, dx))
        data = schmidt_decompose(u)
        worst_recon = max(worst_recon, (data.reconstruct() - u).norm())
        reduced = partial_trace(u)
        eigs = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        padded = np.zeros(dy)
        padded[: data.rank] = data.coefficients**2
        worst_spec = max(worst_spec, float(np.max(np.abs(eigs - padded))))
    ok = worst_recon < 1e-10 and worst_spec < 1e-10
    _report(2, "Schmidt reconstruction", worst_recon, 1e-10, ok)
    _report(2, "Schmidt coefficients^2 vs reduced spectrum", worst_spec, 1e-10, ok)
    assert ok


def test_criterion_03_cyclic_separating_characterization():
    rng = np.random.default_rng(103)
    ok = True
    for k in range(50):
        d = 2 + k % 5
        # guaranteed nonsingular: unitary x positive diagonal x unitary
        a = (
            random_unitary(rng, d)
            @ np.diag(rng.uniform(0.5, 1.5, size=d))
            @ random_unitary(rng, d)
        )
        ok = ok and is_cyclic_separating(vec(a))
    for k in range(50):
        d = 2 + k % 5
        rank = 1 + int(rng.integers(0, d - 1))
        ok = ok and not is_cyclic_separating(vec(random_rank_deficient(rng, d, rank)))
    _report(3, "vec(A) cyclic+separating iff A nonsingular, 50+50", 0.0, 1.0, ok)
    assert ok


def test_criterion_04_modular_cross_route_and_polar():
    rng = np.random.default_rng(104)
    worst_cross = worst_polar = 0.0
    for k in range(50):
        d = 2 + k % 4  # dimensions 2..5
        phi = random_faithful_density(rng, d)
        omega = random_faithful_density(rng, d)
        s = relative_s_matrix(phi, omega)
        delta = relative_modular_operator(phi, omega)
        cross = float(
            np.max(np.abs(s.adjoint().compose(s).matrix - delta.matrix))
        )
        polar = modular_conjugation(d).compose(
            relative_modular_power(phi, omega, 0.5)
        ).distance(s)
        worst_cross = max(worst_cross, cross)
        worst_polar = max(worst_polar, polar)
    ok = worst_cross < 1e-10 and worst_polar < 1e-10
    _report(4, "Delta(Kronecker) vs S*S entrywise", worst_cross, 1e-10, ok)
    _report(4, "polar residual ||S - J Delta^(1/2)||", worst_polar, 1e-10, ok)
    assert ok


def test_criterion_05_tomita_takesaki():
    rng = np.random.default_rng(105)
    worst_comm = worst_flow = 0.0
    for d in (2, 3, 4):
        omega = random_faithful_density(rng, d)
        units = [
            np.eye(d, dtype=complex)[:, [i]] @ np.eye(d, dtype=complex)[[j], :]
            for i in range(d)
            for j in range(d)
        ]
        comm, flow = verify_tomita_takesaki(omega, units, [0.3, 1.0, 2.7])
        worst_comm = max(worst_comm, float(np.max(comm)))
        worst_flow = max(worst_flow, float(np.max(flow)))
    ok = worst_comm < 1e-10 and worst_flow < 1e-10
    _report(5, "commutant membership residual over matrix-unit bases", worst_comm, 1e-10, ok)
    _report(5, "flow membership residual, t in {0.3, 1, 2.7}", worst_flow, 1e-10, ok)
    assert ok


def test_criterion_06_kms_boundary_and_invariance():
    rng = np.random.default_rng(106)
    worst_boundary = worst_invariance = 0.0
    t_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for k in range(50):
        d = 2 + k % 3  # dimensions 2..4
        beta = (0.5, 1.0, 2.0)[k % 3]
        sys_ = gibbs_hamiltonian(random_faithful_density(rng, d), beta)
        a, b = complex_gaussian(rng, d), complex_gaussian(rng, d)
        worst_boundary = max(worst_boundary, np.max(kms_boundary_defect(sys_, a, b, t_grid)))
        worst_invariance = max(
            worst_invariance, np.max(state_invariance_defect(sys_, a, t_grid))
        )
    ok = worst_boundary < 1e-10 and worst_invariance < 1e-12
    _report(6, "|F(t+i beta) - omega(sigma_t(B) A)|", worst_boundary, 1e-10, ok)
    _report(6, "|omega(sigma_t(A)) - omega(A)|", worst_invariance, 1e-12, ok)
    assert ok


def test_criterion_07_cocycle_identities():
    rng = np.random.default_rng(107)
    worst_chain = worst_twine = 0.0
    for k in range(50):
        d = 2 + k % 4
        phi = random_faithful_density(rng, d)
        omega = random_faithful_density(rng, d)
        t, s = rng.uniform(-2, 2, size=2)
        u_t = connes_cocycle(phi, omega, t)
        u_s = connes_cocycle(phi, omega, s)
        chain = np.linalg.norm(
            connes_cocycle(phi, omega, t + s)
            - u_t @ modular_flow(omega, u_s, t)
        )
        a = complex_gaussian(rng, d)
        twine = np.linalg.norm(
            modular_flow(phi, a, t) - u_t @ modular_flow(omega, a, t) @ np.conj(u_t).T
        )
        worst_chain = max(worst_chain, float(chain))
        worst_twine = max(worst_twine, float(twine))
    ok = worst_chain < 1e-10 and worst_twine < 1e-10
    _report(7, "U_(t+s) = U_t sigma_t(U_s)", worst_chain, 1e-10, ok)
    _report(7, "sigma^phi_t = U_t sigma^omega_t U_t*", worst_twine, 1e-10, ok)
    assert ok


def test_criterion_08_cone_properties():
    rng = np.random.default_rng(108)
    d = 4
    j = modular_conjugation(d)
    elements = [cone_element(random_psd(rng, d)) for _ in range(200)]
    worst_pairing = min(
        cone_pairing(xi, eta) for xi in elements for eta in elements
    )
    worst_jfix = max(
        (j.apply(e) - e).norm() for e in elements
    )
    worst_jordan = 0.0
    for _ in range(100):
        plus, minus = decompose_j_fixed(vec(random_hermitian(rng, d)))
        worst_jordan = max(worst_jordan, abs(plus.inner(minus)))
    invariance_ok = True
    for _ in range(100):
        m = complex_gaussian(rng, d)
        pim = SuperOperator(d, pi_factored(m).matrix)
        image = pim.compose(j).compose(pim).compose(j).apply(
            elements[int(rng.integers(0, len(elements)))]
        )
        invariance_ok = invariance_ok and cone_contains(image)
    ok = (
        worst_pairing >= -1e-12
        and worst_jfix <= 1e-12
        and worst_jordan < 1e-12
        and invariance_ok
    )
    _report(8, "self-duality pairing (200x200)", worst_pairing, -1e-12, ok)
    _report(8, "J-fixedness of cone elements", worst_jfix, 1e-12, ok)
    _report(8, "Jordan orthogonality |<z1, z2>|", worst_jordan, 1e-12, ok)
    _report(8, "M j(M) invariance (100 samples)", 0.0 if invariance_ok else 1.0, 1.0, ok)
    assert ok


def test_criterion_09_inequality_campaigns():
    rng = np.random.default_rng(109)
    s_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    t_grid = (1.0, 1.5, 2.0, 3.0)
    worst_slack = np.inf
    worst_route = 0.0
    failures = 0
    for k in range(1000):
        d = 2 + k % 5  # dimensions 2..6
        a = random_psd(rng, d, trace_one=False)
        b = random_psd(rng, d, trace_one=False)
        a, b, a_plus_b = (PositiveFunctional(m) for m in (a, b, a + b))
        reports = list(norm_sandwich(a, b))
        reports.append(powers_stormer(a, b))
        reports.extend(ozawa_s(a, b, s) for s in s_grid)
        reports.extend(hoa_generalized(a, b, mf) for mf in MONOTONE_FUNCTIONS)
        reports.extend(phillips(a_plus_b, b, t) for t in t_grid)
        phi1 = random_positive_functional(rng, d, faithful=True)
        phi2 = random_positive_functional(rng, d)
        og = ogata_modular(phi1, phi2, s_grid[k % 5])
        reports.append(og)
        worst_route = max(worst_route, og.route_residual)
        for rep in reports:
            floor = 1e-11 * max(1.0, abs(rep.lhs), abs(rep.rhs))
            worst_slack = min(worst_slack, rep.slack / max(1.0, abs(rep.lhs), abs(rep.rhs)))
            if rep.slack < -floor or not rep.passed:
                failures += 1
    scalar_ok = _commuting_scalar_oracles()
    ok = failures == 0 and worst_route < 1e-10 and scalar_ok
    _report(9, "relative slack across 6 families x 1000", worst_slack, -1e-11, ok)
    _report(9, "Ogata dual-route agreement", worst_route, 1e-10, ok)
    _report(9, "commuting-input scalar oracles", 0.0 if scalar_ok else 1.0, 1e-12, ok)
    assert ok


def _commuting_scalar_oracles() -> bool:
    """Every family against elementary real arithmetic on diagonal inputs."""
    rng = np.random.default_rng(1090)
    da = rng.uniform(0.05, 2.0, size=5)
    db = rng.uniform(0.05, 2.0, size=5)
    a, b, a_plus_b = (PositiveFunctional(np.diag(v)) for v in (da, db, da + db))
    checks = []

    low, high = norm_sandwich(a, b)
    checks.append(abs(low.lhs - np.sum((da - db) ** 2)))
    checks.append(abs(low.rhs - np.sum(np.abs(da**2 - db**2))))
    checks.append(
        abs(
            high.rhs
            - np.sqrt(np.sum((da - db) ** 2)) * np.sqrt(np.sum((da + db) ** 2))
        )
    )
    checks.append(
        abs(powers_stormer(a, b).lhs - np.sum((np.sqrt(da) - np.sqrt(db)) ** 2))
    )
    for s in (0.25, 0.5, 0.75):
        rep = ozawa_s(a, b, s)
        checks.append(abs(rep.lhs - 2 * np.sum(db**s * da ** (1 - s))))
        checks.append(abs(rep.rhs - 2 * np.sum(np.minimum(da, db))))
    mf = MONOTONE_FUNCTIONS[2]  # log(1+t)
    rep = hoa_generalized(a, b, mf)
    checks.append(abs(rep.lhs - 2 * np.sum(np.log1p(da) * db / np.log1p(db))))
    for t in (1.5, 2.0):
        rep = phillips(a_plus_b, b, t)
        checks.append(
            abs(rep.lhs - np.sum(((da + db) ** (1 / t) - db ** (1 / t)) ** t))
        )
    og = ogata_modular(a, b, 0.5)
    checks.append(abs(og.lhs - 2 * np.sum(db**0.5 * da**0.5)))
    return max(checks) < 1e-12


def test_criterion_10_centralizer_dimension():
    rng = np.random.default_rng(110)
    ok = True
    for k in range(30):
        d = 2 + k % 7  # dimensions 2..8, degeneracies included by construction
        density, blocks = random_degenerate_density(rng, d)
        got = centralizer_dimension(density)
        want = _nullity(density.matrix)
        ok = ok and got == want and got == sum(m * m for m in blocks)
    _report(10, "centralizer dim = commutator nullity, 30 spectra", 0.0, 1.0, ok)
    assert ok


def _nullity(d: np.ndarray, tol: float = 1e-8) -> int:
    n = d.shape[0]
    k = np.kron(np.eye(n), d.T) - np.kron(d, np.eye(n))
    sigma = np.linalg.svd(k, compute_uv=False)
    return int(np.count_nonzero(sigma <= tol * max(1.0, float(sigma[0]))))


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    def run(*args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "modkit", *args],
            capture_output=True,
            text=True,
            input=stdin,
        )

    args = (
        "campaign", "--suite", "all", "--seed", "42", "--dim", "3",
        "--samples", "8", "--json",
    )
    first, second = run(*args), run(*args)
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    a.pop("wall_time"), b.pop("wall_time")
    deterministic = json.dumps(a) == json.dumps(b)

    bell = tmp_path / "bell.json"
    bell.write_text(json.dumps(dump_matrix(np.eye(2) / np.sqrt(2))))
    tracial = tmp_path / "tracial.json"
    tracial.write_text(json.dumps(dump_matrix(np.eye(2) / 2)))
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps(dump_matrix(np.diag([1.0, 0.0]))))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")

    codes = {
        "pass": run("schmidt", str(bell)).returncode,
        "parse": run("schmidt", str(broken)).returncode,
        "domain": run("modular", str(tracial), str(singular)).returncode,
        "usage": run("campaign", "--suite", "bogus").returncode,
    }
    expected = {"pass": 0, "parse": 2, "domain": 3, "usage": 4}
    ok = (
        deterministic
        and first.returncode == 0
        and second.returncode == 0
        and codes == expected
    )
    _report(11, f"CLI determinism + exit codes {codes}", 0.0, 1.0, ok)
    assert ok


def test_criterion_suites_aggregate_clean():
    # the CLI-exposed campaign suites stay green at acceptance scale
    for suite in ("vec", "modular", "kms", "cone"):
        (result,) = run_suite(suite, seed=2024, dimension=4, samples=25)
        assert result.failures == 0, f"{suite} recorded failures"
