"""Seeded verification campaigns over the library's invariants.

Each suite draws its instances from a ``numpy.random.Generator`` seeded by
the caller and evaluates a battery of checks; identical (seed, dimension,
samples) produce identical instances and identical outcomes. A check
yields a signed margin that is nonnegative when the check passes: residual
checks use ``tolerance - residual``, inequality checks use the report's
slack (which may be a hair negative yet still pass its relative floor).

``worst_slack`` in the aggregate is the minimum margin observed, so a run
with zero failures can still report a slightly negative worst slack from
an inequality that held within tolerance.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import cone as cone_mod
from . import inequalities as ineq
from . import kms as kms_mod
from . import modular, sampling, schmidt, states, vecops
from .errors import UnknownSuite
from .linalg import adjoint, hs_norm
from .vecops import vec

# default residual tolerances per check family
TOL_VEC = 1e-12
TOL_RESIDUAL = 1e-10
TOL_STRICT = 1e-12


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    suite: str
    seed: int
    dimension: int
    samples: int
    checks: int
    failures: int
    worst_slack: float

    def to_dict(self) -> dict:
        """The fields in declaration order."""
        return dataclasses.asdict(self)


class _Tally:
    """Accumulates (margin, passed) pairs; fails closed.

    A check passes only if its predicate holds and its margin is finite, so
    a NaN or infinite residual, value or slack always counts as a failure.
    """

    def __init__(self):
        self.margins: list[float] = []
        self.failures = 0

    def _add(self, margin: float, passed: bool) -> None:
        self.margins.append(margin)
        if not (passed and math.isfinite(margin)):
            self.failures += 1

    def residual(self, value: float, tol: float) -> None:
        self._add(tol - value, value < tol)

    def bound_below(self, value: float, tol: float) -> None:
        """Check value >= -tol (e.g. cone pairings nonnegative up to rounding)."""
        self._add(value + tol, value >= -tol)

    def report(self, rep: ineq.InequalityReport) -> None:
        self._add(rep.slack, rep.passed)

    def boolean(self, ok: bool, tol: float = TOL_RESIDUAL) -> None:
        """A yes/no check: margin ``tol`` (the suite's tolerance) if it holds."""
        ok = isinstance(ok, (bool, np.bool_)) and bool(ok)
        self._add(tol if ok else -1.0, ok)

    def result(self, suite: str, seed: int, dimension: int, samples: int) -> CampaignResult:
        # np.min propagates NaN, where the builtin min depends on list order
        worst = float(np.min(self.margins)) if self.margins else 0.0
        return CampaignResult(
            suite, seed, dimension, samples, len(self.margins), self.failures, worst
        )


def run_vec_suite(
    seed: int, dimension: int, samples: int, tol: float | None = None
) -> CampaignResult:
    """Kronecker identity, isometry, S = PK, purification, and Schmidt checks."""
    rng = np.random.default_rng(seed)
    t_vec = tol if tol is not None else TOL_VEC
    t_res = tol if tol is not None else TOL_RESIDUAL
    tally = _Tally()
    d = dimension
    swap = vecops.swap_operator(d)
    for _ in range(samples):
        a = sampling.complex_gaussian(rng, d)
        b = sampling.complex_gaussian(rng, d)
        x = sampling.complex_gaussian(rng, d)

        lhs = np.kron(a, b) @ vec(x).amplitudes
        rhs = vecops.SuperOperator.factored(d, a, b).apply(vec(x)).amplitudes
        tally.residual(float(np.linalg.norm(lhs - rhs)), t_vec)
        tally.residual(
            abs(vec(a).inner(vec(b)) - np.trace(adjoint(a) @ b)), t_vec
        )
        # S = PK: swap(conj(vec X)) = vec(X*)
        s_image = swap.apply(vecops.conjugate_vec(vec(x)))
        tally.residual(
            float(np.linalg.norm(s_image.amplitudes - vec(adjoint(x)).amplitudes)),
            t_vec,
        )

        density = sampling.random_density(rng, d)
        omega = states.purify(density)
        reduced = vecops.partial_trace(omega)
        tally.residual(hs_norm(reduced - density.matrix), t_res)

        u = vec(sampling.complex_gaussian(rng, d))
        data = schmidt.schmidt_decompose(u)
        tally.residual(
            float(np.linalg.norm(data.reconstruct().amplitudes - u.amplitudes)),
            t_res,
        )
        red = vecops.partial_trace(u)
        eigs = np.sort(np.linalg.eigvalsh(red))[::-1]
        coeff_sq = np.zeros(d)
        coeff_sq[: data.rank] = data.coefficients**2
        tally.residual(float(np.max(np.abs(eigs - coeff_sq))), t_res)

        faithful = sampling.random_faithful_density(rng, d)
        tally.boolean(schmidt.is_cyclic_separating(states.purify(faithful)), t_res)
    return tally.result("vec", seed, dimension, samples)


def run_modular_suite(
    seed: int, dimension: int, samples: int, tol: float | None = None
) -> CampaignResult:
    """Cross-route, polar, cocycle, and Tomita-Takesaki checks."""
    rng = np.random.default_rng(seed)
    t_res = tol if tol is not None else TOL_RESIDUAL
    tally = _Tally()
    d = dimension
    j = modular.modular_conjugation(d)
    for _ in range(samples):
        phi = sampling.random_faithful_density(rng, d)
        omega = sampling.random_faithful_density(rng, d)

        s_op = modular.relative_s_matrix(phi, omega)
        delta = modular.relative_modular_operator(phi, omega)
        tally.residual(s_op.adjoint().compose(s_op).distance(delta), t_res)

        half = modular.relative_modular_power(phi, omega, 0.5)
        tally.residual(j.compose(half).distance(s_op), t_res)

        f_op = modular.relative_f_matrix(phi, omega)
        tally.residual(f_op.compose(s_op).distance(delta), t_res)

        image = half.apply(states.purify(omega))
        tally.residual(
            float(np.linalg.norm(image.amplitudes - states.purify(phi).amplitudes)),
            t_res,
        )

        a = sampling.complex_gaussian(rng, d)
        lhs = half.apply(vec(a @ omega.sqrt())).norm() ** 2
        rhs = float(np.real(np.trace(phi.matrix @ a @ adjoint(a))))
        tally.residual(abs(lhs - rhs) / max(1.0, abs(rhs)), t_res)

        t, s = rng.uniform(-2, 2, size=2)
        u_ts = modular.connes_cocycle(phi, omega, t + s)
        u_t = modular.connes_cocycle(phi, omega, t)
        u_s = modular.connes_cocycle(phi, omega, s)
        tally.residual(
            hs_norm(u_ts - u_t @ modular.modular_flow(omega, u_s, t)), t_res
        )
        evolved = modular.modular_flow(phi, a, t)
        chained = u_t @ modular.modular_flow(omega, a, t) @ adjoint(u_t)
        tally.residual(hs_norm(evolved - chained) / max(1.0, hs_norm(evolved)), t_res)

        mats = [sampling.complex_gaussian(rng, d) for _ in range(2)]
        rep = modular.verify_tomita_takesaki(omega, mats, [0.7], tol=t_res)
        tally.residual(rep.max_commutant_residual, t_res)
        tally.residual(rep.max_flow_residual, t_res)
    return tally.result("modular", seed, dimension, samples)


def run_kms_suite(
    seed: int, dimension: int, samples: int, tol: float | None = None
) -> CampaignResult:
    """Boundary condition, state invariance, time bridge, centralizer."""
    rng = np.random.default_rng(seed)
    t_res = tol if tol is not None else TOL_RESIDUAL
    t_strict = tol if tol is not None else TOL_STRICT
    tally = _Tally()
    d = dimension
    betas = (0.5, 1.0, 2.0)
    t_grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for i in range(samples):
        density = sampling.random_faithful_density(rng, d)
        sys = kms_mod.gibbs_hamiltonian(density, betas[i % len(betas)])
        a = sampling.complex_gaussian(rng, d)
        b = sampling.complex_gaussian(rng, d)
        t = t_grid[i % len(t_grid)]

        tally.residual(kms_mod.kms_boundary_defect(sys, a, b, t), t_res)
        tally.residual(kms_mod.state_invariance_defect(sys, a, t), t_strict)
        # the density commutes with H, so it is a fixed point of the flow
        tally.residual(
            hs_norm(density.matrix - kms_mod.heisenberg_evolve(sys, density.matrix, t)),
            t_res,
        )
        # physical vs modular time bridge
        s = float(rng.uniform(-1.5, 1.5))
        bridge = hs_norm(
            modular.modular_flow(density, a, s)
            - kms_mod.heisenberg_evolve(sys, a, -sys.beta * s)
        )
        tally.residual(bridge, t_res)

        if i % 5 == 0:
            deg, blocks = sampling.random_degenerate_density(rng, d)
            basis = kms_mod.centralizer_basis(deg)
            tally.boolean(len(basis) == sum(m * m for m in blocks), t_res)
    return tally.result("kms", seed, dimension, samples)


def run_cone_suite(
    seed: int, dimension: int, samples: int, tol: float | None = None
) -> CampaignResult:
    """Self-duality, pointedness, J-fixing, decompositions, invariance."""
    rng = np.random.default_rng(seed)
    t_res = tol if tol is not None else TOL_RESIDUAL
    t_strict = tol if tol is not None else TOL_STRICT
    tally = _Tally()
    d = dimension
    j = modular.modular_conjugation(d)
    for _ in range(samples):
        xi = cone_mod.ConeElement.from_witness(sampling.random_psd(rng, d))
        eta = cone_mod.ConeElement.from_witness(sampling.random_psd(rng, d))
        # self-duality: pairing >= 0 up to rounding
        tally.bound_below(cone_mod.cone_pairing(xi, eta), t_strict)

        tally.residual(
            float(np.linalg.norm(j.apply(xi.vector).amplitudes - xi.vector.amplitudes)),
            t_strict,
        )
        tally.boolean(not cone_mod.cone_contains(-xi.vector), t_res)

        herm = sampling.random_hermitian(rng, d)
        v = vec(herm)
        plus, minus = cone_mod.decompose_j_fixed(v)
        tally.residual(abs(plus.vector.inner(minus.vector)), t_strict)
        tally.residual(
            float(
                np.linalg.norm(
                    (plus.vector - minus.vector).amplitudes - v.amplitudes
                )
            ),
            t_strict,
        )

        w = vec(sampling.complex_gaussian(rng, d))
        c1, c2, c3, c4 = cone_mod.decompose_general(w)
        recon = (
            c1.vector.amplitudes
            - c2.vector.amplitudes
            + 1j * c3.vector.amplitudes
            - 1j * c4.vector.amplitudes
        )
        tally.residual(float(np.linalg.norm(recon - w.amplitudes)), t_strict)

        m = sampling.complex_gaussian(rng, d)
        pim = modular.pi_factored(m)
        invariance = pim.compose(j).compose(pim).compose(j)  # pi(M) j(pi(M))
        tally.boolean(cone_mod.cone_contains(invariance.apply(xi.vector), t_res), t_res)
    return tally.result("cone", seed, dimension, samples)


def run_inequality_suite(
    seed: int, dimension: int, samples: int, tol: float | None = None
) -> CampaignResult:
    """The full trace-inequality battery on seeded PSD instances."""
    rng = np.random.default_rng(seed)
    tally = _Tally()
    d = dimension
    s_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    t_grid = (1.0, 1.5, 2.0, 3.0)
    for k in range(samples):
        a = sampling.random_psd(rng, d, trace_one=False)
        b = sampling.random_psd(rng, d, trace_one=False)
        # one decomposition per operand, shared by all 14 checks
        a, b, a_plus_b = (states.PositiveFunctional(m) for m in (a, b, a + b))

        low, high = ineq.norm_sandwich(a, b)
        tally.report(low)
        tally.report(high)
        tally.report(ineq.powers_stormer(a, b))
        for s in s_grid:
            tally.report(ineq.ozawa_s(a, b, s))
        for mf in ineq.MONOTONE_FUNCTIONS:
            tally.report(ineq.hoa_generalized(a, b, mf))
        for t in t_grid:
            tally.report(ineq.phillips(a_plus_b, b, t))

        phi1 = sampling.random_positive_functional(rng, d, faithful=True)
        phi2 = sampling.random_positive_functional(rng, d)
        s = s_grid[k % len(s_grid)]
        tally.report(ineq.ogata_modular(phi1, phi2, s))
    return tally.result("inequalities", seed, dimension, samples)


_SUITES = {
    "vec": run_vec_suite,
    "modular": run_modular_suite,
    "kms": run_kms_suite,
    "cone": run_cone_suite,
    "inequalities": run_inequality_suite,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(
    suite: str, seed: int, dimension: int, samples: int, tol: float | None = None
) -> list[CampaignResult]:
    """Run one named suite (or 'all'); returns one result per suite run."""
    if suite == "all":
        return [fn(seed, dimension, samples, tol) for fn in _SUITES.values()]
    if suite not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return [_SUITES[suite](seed, dimension, samples, tol)]
