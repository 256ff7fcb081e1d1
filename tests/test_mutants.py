"""A planted-defect table: each row plants one defect in the library and
names the check families that must fail on the seeded campaign instances.

Every suite of :data:`modkit.campaigns.SUITES` is drawn at seed 3, with 12,
12 and 3 instances at d = 2, 4 and 16, and each family is judged by
``campaigns.evaluate`` at its own bound. Unpatched, no check fails. With a
row's defect planted, the families the row lists at d fail, each on at
least one instance, and no other family does. A residual or yes/no
family that no row lists has not been shown able to fail: those
families are :data:`BLIND_SPOTS`, and a row that covers one must take it
out of the set. The report families are held to their equality witnesses
elsewhere.

Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4) (1978).
"""

import dataclasses

import numpy as np
import pytest

from modkit import campaigns, cone, inequalities, kms, linalg, modular, schmidt, vecops
from modkit.vecops import BipartiteVector, SuperOperator, swap_operator, unvec

SEED = 3
SAMPLES = {2: 12, 4: 12, 16: 3}
DIMENSIONS = tuple(SAMPLES)

_POWER = linalg.SpectralDecomposition.power
_UNITARY = linalg.SpectralDecomposition.unitary
_DELTA_POWER = modular.relative_modular_power
_GIBBS = kms.gibbs_hamiltonian
_PI = modular.pi_factored
_JORDAN = linalg.SpectralDecomposition.jordan
_COCYCLE = modular.connes_cocycle
_SCHMIDT = schmidt.schmidt_decompose
_APPLY = SuperOperator.apply

PHILLIPS = {f"ineq.phillips[{t}]" for t in inequalities.T_GRID}


def _j_without_k(mp):
    # J = P: linear, vec(X) -> vec(X^T)
    mp.setattr(modular, "modular_conjugation", swap_operator)


def _j_without_transposition(mp):
    # J = K: vec(X) -> vec(conj(X))
    mp.setattr(modular, "modular_conjugation",
               lambda d: SuperOperator.factored(d, None, None, antilinear=True))


def _pi_transposed(mp):
    mp.setattr(modular, "pi_factored", lambda m: _PI(np.swapaxes(m, -1, -2)))


def _delta_right_not_transposed(mp):
    # D_phi^s (x) D_omega^(-s) in place of D_phi^s (x) (D_omega^(-s))^T
    def power(phi, omega, s):
        op = _DELTA_POWER(phi, omega, s)
        return SuperOperator.factored(op.d, op.factors[0], op.factors[1].T)

    mp.setattr(modular, "relative_modular_power", power)


def _gibbs_energies_negated(mp):
    def gibbs(density, beta):
        sys = _GIBBS(density, beta)
        return dataclasses.replace(sys, energies=-sys.energies)

    mp.setattr(kms, "gibbs_hamiltonian", gibbs)


def _unitary_reversed(mp):
    # A^(-it) wherever A^(it) is asked for
    mp.setattr(linalg.SpectralDecomposition, "unitary", lambda self, t: _UNITARY(self, -t))


def _j_right_factor_off(mp):
    # J with right factor I + 1e-5 E_01
    def conjugation(d):
        right = np.eye(d, dtype=complex)
        right[0, 1] = 1e-5
        return SuperOperator.factored(d, None, right, transpose=True, antilinear=True)

    mp.setattr(modular, "modular_conjugation", conjugation)


def _power_transposed(mp):
    mp.setattr(linalg.SpectralDecomposition, "power", lambda self, s: _POWER(self, s).T)


def _power_doubled(mp):
    mp.setattr(linalg.SpectralDecomposition, "power", lambda self, s: _POWER(self, 2 * s))


def _swap_not_transposed(mp):
    # P = 1: vec(X) -> vec(X)
    mp.setattr(vecops, "swap_operator", lambda d: SuperOperator.factored(d, None, None))


def _inner_unconjugated(mp):
    mp.setattr(BipartiteVector, "inner", lambda self, other: complex(
        np.einsum("i,i->", self.amplitudes, other.amplitudes)))


def _jordan_swapped(mp):
    # (A_minus, A_plus) in place of (A_plus, A_minus)
    mp.setattr(linalg.SpectralDecomposition, "jordan", lambda self: _JORDAN(self)[::-1])


def _cocycle_same_sign(mp):
    # D_phi^(it) D_omega^(+it)
    mp.setattr(modular, "connes_cocycle", lambda phi, omega, t: (
        phi.spectrum.unitary(t) @ omega.spectrum.unitary(t)))


def _cocycle_swapped(mp):
    mp.setattr(modular, "connes_cocycle", lambda phi, omega, t: _COCYCLE(omega, phi, t))


def _evolve(basis, right_phase):
    """heisenberg_evolve as kms computes it, with D's eigenvectors passed
    through ``basis`` and, without ``right_phase``, the phase on the left only."""
    def evolve(sys, a, t):
        v = basis(sys.density.spectrum.eigenvectors)
        phases = np.exp(np.multiply.outer(1j * np.asarray(t, dtype=float), sys.energies))
        outer = phases[:, :, None] * (np.conj(phases)[:, None, :] if right_phase else 1.0)
        a_eig = np.conj(v).T @ linalg.as_operators(a, sys.dim) @ v
        return v @ (outer * a_eig[..., None, :, :]) @ np.conj(v).T

    return evolve


def _evolve_conjugated_basis(mp):
    mp.setattr(kms, "heisenberg_evolve", _evolve(np.conj, right_phase=True))


def _evolve_one_sided_phase(mp):
    mp.setattr(kms, "heisenberg_evolve", _evolve(lambda v: v, right_phase=False))


def _schmidt_with(field, f):
    """The plant of schmidt_decompose with ``f`` applied to ``field`` of its result."""
    def plant(mp):
        def decompose(u):
            data = _SCHMIDT(u)
            return dataclasses.replace(data, **{field: f(getattr(data, field))})

        mp.setattr(schmidt, "schmidt_decompose", decompose)

    return plant


def _cone_hermiticity_only(mp):
    mp.setattr(cone, "cone_contains", lambda v: (
        linalg.hermiticity_defect(unvec(v)) <= linalg.HERMITICITY_RTOL))


def _centralizer_distinct_eigenvalues(mp):
    # the number of eigenblocks, not the sum of their squared sizes
    def count(density):
        gaps = np.diff(density.spectrum.eigenvalues)
        return 1 + int(np.count_nonzero(~(gaps <= kms.centralizer_window(density)[1])))

    mp.setattr(kms, "centralizer_dimension", count)


def _apply_right_untransposed(mp):
    # A X B in place of A X B^T, on a factored operator without transposition
    # or conjugation
    def apply(self, v):
        if not self.is_factored or self.transpose or self.antilinear:
            return _APPLY(self, v)
        left, right = self.factors
        return BipartiteVector(self.d, self.d, (left @ unvec(v) @ right).ravel())

    mp.setattr(SuperOperator, "apply", apply)


def _at_every_d(*names):
    return {d: frozenset(names) for d in DIMENSIONS}


# (planted defect, {d: the families that must fail at d})
ROWS = {
    "j-without-k": (_j_without_k, _at_every_d(
        "modular.polar", "modular.s_inverse", "cone.j_fixed", "cone.pi_j_invariance")),
    "j-without-transposition": (_j_without_transposition, _at_every_d(
        "modular.polar", "modular.s_inverse", "modular.tt_commutant", "cone.j_fixed",
        "cone.pi_j_invariance")),
    "pi-transposed": (_pi_transposed, _at_every_d("modular.tt_flow")),
    "delta-right-not-transposed": (_delta_right_not_transposed, _at_every_d(
        "modular.sstar_s", "modular.polar", "modular.s_inverse", "modular.half_vector",
        "modular.half_expectation")),
    "gibbs-energies-negated": (_gibbs_energies_negated, _at_every_d(
        "kms.boundary", "kms.time_bridge")),
    "unitary-reversed": (_unitary_reversed, _at_every_d("kms.time_bridge")),
    "j-right-factor-off": (_j_right_factor_off, _at_every_d(
        "modular.polar", "modular.s_inverse", "modular.tt_commutant", "cone.j_fixed",
        "cone.pi_j_invariance")),
    "power-transposed": (_power_transposed, _at_every_d(
        "vec.purify", "modular.half_expectation", "ineq.ogata_modular")),
    "power-doubled": (_power_doubled, {
        d: frozenset({"modular.half_expectation", "vec.purify", "ineq.powers_stormer",
                      "ineq.ogata_modular", *PHILLIPS}
                     | ({"modular.sstar_s", "modular.s_inverse"} if d == 16 else set()))
        for d in DIMENSIONS}),
    "swap-not-transposed": (_swap_not_transposed, _at_every_d("vec.s_pk")),
    "inner-unconjugated": (_inner_unconjugated, _at_every_d(
        "vec.inner", "cone.jordan_orthogonal")),
    "jordan-swapped": (_jordan_swapped, _at_every_d("cone.jordan_sum", "cone.four_part_sum")),
    "cocycle-same-sign": (_cocycle_same_sign, _at_every_d(
        "modular.cocycle", "modular.cocycle_flow")),
    "cocycle-swapped": (_cocycle_swapped, _at_every_d("modular.cocycle", "modular.cocycle_flow")),
    "evolve-conjugated-basis": (_evolve_conjugated_basis, _at_every_d(
        "kms.invariance", "kms.fixed_point", "kms.boundary", "kms.time_bridge")),
    "evolve-one-sided-phase": (_evolve_one_sided_phase, _at_every_d(
        "kms.invariance", "kms.fixed_point", "kms.boundary", "kms.time_bridge")),
    "schmidt-right-conjugated": (_schmidt_with("right_vectors", np.conj), _at_every_d(
        "vec.schmidt_reconstruct")),
    "schmidt-squared": (_schmidt_with("coefficients", np.square), _at_every_d(
        "vec.schmidt_reconstruct", "vec.schmidt_spectrum")),
    "cone-hermiticity-only": (_cone_hermiticity_only, _at_every_d("cone.pointed")),
    "centralizer-distinct-eigenvalues": (_centralizer_distinct_eigenvalues, _at_every_d(
        "kms.centralizer")),
    "apply-right-untransposed": (_apply_right_untransposed, _at_every_d(
        "vec.kron", "modular.half_vector", "modular.half_expectation", "cone.pi_j_invariance")),
}

# the residual and yes/no families no row fails
BLIND_SPOTS = {"cone.self_dual", "vec.cyclic_separating"}


def failing(d):
    """The names of the checks that fail on some instance of some suite at d."""
    failed = set()
    for draw, families in campaigns.SUITES.values():
        rng = np.random.default_rng(SEED)
        for k in range(SAMPLES[d]):
            instance = draw(rng, d, k)
            for family in families:
                if family.applies is None or family.applies(instance):
                    checks = campaigns.evaluate(family, instance)
                    failed.update(check.name for check in checks if not check.passed)
    return failed


@pytest.mark.parametrize("d", DIMENSIONS)
def test_nothing_fails_unpatched(d):
    assert failing(d) == set()


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("row", ROWS)
def test_planted_defect_fails_its_families(row, d, monkeypatch):
    plant, must_fail = ROWS[row]
    plant(monkeypatch)
    assert failing(d) == must_fail[d]


def test_blind_spots_are_the_families_in_no_row():
    families = [f for _, suite in campaigns.SUITES.values() for f in suite]
    covered = set().union(*(names for _, must_fail in ROWS.values()
                            for names in must_fail.values()))
    assert covered <= {name for f in families for name in f.names}
    judged = {name for f in families if f.kind != "report" for name in f.names}
    assert judged - covered == BLIND_SPOTS
