"""Seeded verification campaigns over the library's invariants.

A suite is a ``draw(rng, d, k)`` that makes every random draw of instance
k, and a table of check families evaluated on it; :func:`run_suite` is the
one loop over both, so equal (seed, dimension, samples) give equal
outcomes. Each check has a name ``<suite>.<check>`` (``ineq.`` for the
inequalities):

* vec: kron, inner, s_pk, purify, schmidt_reconstruct, schmidt_spectrum,
  cyclic_separating
* modular: sstar_s, polar, s_inverse, half_vector, half_expectation,
  cocycle, cocycle_flow, tt_commutant, tt_flow
* kms: boundary, invariance, fixed_point, time_bridge, and centralizer on
  every 5th instance
* cone: self_dual, j_fixed, jordan_orthogonal, jordan_sum, four_part_sum,
  pointed, pi_j_invariance
* inequalities: norm_sandwich_low, norm_sandwich_high, powers_stormer,
  ozawa_s[s] (s = 0.0, 0.25, .., 1.0), hoa[f] per monotone function,
  phillips[t] (t = 1.0, 1.5, 2.0, 3.0), ogata_modular; the grids of s and
  t and the monotone functions are tables of :mod:`modkit.inequalities`,
  and each of those three families is one call per instance

``modkit modular`` evaluates the same modular.sstar_s and polar checks
(with ``--verify`` also tt_commutant and tt_flow) on the pair its files
define, ``modkit kms-verify`` kms.boundary and invariance plus its own
kms.centralizer_routes, all judged by :func:`judge` against
:meth:`Family.bound`: a family's own tolerance, or the one override a
command is given, for every family it evaluates. Only :func:`judge` sees
that bound: a check function takes the instance alone, so an override
moves residual verdicts and every margin, but no yes/no value (a cone
membership tests its fixed PSD floor). A report family judges each
inequality against its own relative floor, so an override leaves it
unchanged. ``worst_slack`` is the least margin, so it can be slightly
negative with no failures, from an inequality within its relative floor.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import cone as cone_mod
from . import inequalities as ineq
from . import kms as kms_mod
from . import modular, sampling, schmidt, states, vecops
from .errors import UnknownSuite
from .linalg import adjoint, hs_norm
from .vecops import vec

# default residual tolerances per check family
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


@dataclasses.dataclass(frozen=True)
class Family:
    """Named checks of one kind: ``fn(instance)`` returns one value per
    name, judged against :meth:`bound`, and ``applies(instance)``, when
    given, says whether they run."""

    names: tuple[str, ...]
    kind: str  # "residual", "boolean" or "report"
    tol: float
    fn: Callable
    applies: Callable | None = None

    def bound(self, tol: float | None = None) -> float:
        """The bound its checks are judged against: ``tol`` if given, else its own."""
        return self.tol if tol is None else tol


Check = collections.namedtuple("Check", "name value margin passed")


def judge(kind: str, value, tol: float) -> tuple[float, bool]:
    """(margin, passed) of one value: residual value < tol, margin tol - value;
    report its verdict and slack; boolean margin tol if True, -1 if False.
    Fails closed: a NaN or infinite value, or a yes/no value that is not a
    bool, gives a non-finite margin, which fails and is recorded as NaN (so
    is its suite's worst)."""
    if kind == "residual":
        margin, ok = tol - value, value < tol
    elif kind == "report":
        margin, ok = value.slack, value.passed
    elif isinstance(value, (bool, np.bool_)):
        margin, ok = (tol, True) if value else (-1.0, False)
    else:
        margin, ok = math.nan, False
    margin = float(margin)
    return (margin, bool(ok)) if math.isfinite(margin) else (math.nan, False)


def evaluate(family: Family, instance, tol: float | None = None) -> list[Check]:
    """The judged checks of ``family`` on ``instance``; ``tol`` beats its own
    bound in :func:`judge` and never reaches ``family.fn``."""
    tol = family.bound(tol)
    values = zip(family.names, family.fn(instance), strict=True)
    return [Check(name, value, *judge(family.kind, value, tol)) for name, value in values]


def _draw_vec(rng, d, k):
    a, b, x = (sampling.complex_gaussian(rng, d) for _ in range(3))
    density = sampling.random_density(rng, d)
    u = vec(sampling.complex_gaussian(rng, d))
    faithful = sampling.random_faithful_density(rng, d)
    return SimpleNamespace(a=a, b=b, x=x, density=density, u=u, faithful=faithful)


def _vec_identities(v):
    """Kronecker identity, isometry, and S = PK: swap(conj(vec X)) = vec(X*)."""
    d = v.a.shape[0]
    lhs = np.kron(v.a, v.b) @ vec(v.x).amplitudes
    rhs = vecops.SuperOperator.factored(d, v.a, v.b).apply(vec(v.x)).amplitudes
    s_image = vecops.swap_operator(d).apply(vecops.conjugate_vec(vec(v.x)))
    return (
        hs_norm(lhs - rhs),
        abs(vec(v.a).inner(vec(v.b)) - np.trace(adjoint(v.a) @ v.b)),
        hs_norm(s_image.amplitudes - vec(adjoint(v.x)).amplitudes),
    )


def _vec_schmidt(v):
    """Purification marginal, Schmidt reconstruction and Schmidt spectrum."""
    reduced = vecops.partial_trace(states.purify(v.density))
    data = schmidt.schmidt_decompose(v.u)
    eigs = np.linalg.eigvalsh(vecops.partial_trace(v.u))[::-1]
    coeff_sq = np.zeros(len(eigs))
    coeff_sq[: data.rank] = data.coefficients**2
    return (
        hs_norm(reduced - v.density.matrix),
        hs_norm(data.reconstruct().amplitudes - v.u.amplitudes),
        float(np.max(np.abs(eigs - coeff_sq))),
    )


VEC = (
    Family(("vec.kron", "vec.inner", "vec.s_pk"), "residual", TOL_STRICT, _vec_identities),
    Family(("vec.purify", "vec.schmidt_reconstruct", "vec.schmidt_spectrum"),
           "residual", TOL_RESIDUAL, _vec_schmidt),
    Family(("vec.cyclic_separating",), "boolean", TOL_RESIDUAL,
           lambda v: (schmidt.is_cyclic_separating(states.purify(v.faithful)),)),
)


def modular_instance(phi, omega, probes, flow_times, a=None, t=0.0, s=0.0):
    """A faithful pair with its S, Delta and Delta^(1/2), formed once for all
    checks; Tomita-Takesaki probes and flow times; the suite's probe ``a``
    and cocycle times ``t``, ``s``."""
    return SimpleNamespace(
        phi=phi, omega=omega, probes=probes, flow_times=flow_times, a=a, t=t, s=s,
        s_op=modular.relative_s_matrix(phi, omega),
        delta=modular.relative_modular_operator(phi, omega),
        half=modular.relative_modular_power(phi, omega, 0.5),
    )


def _draw_modular(rng, d, k):
    phi = sampling.random_faithful_density(rng, d)
    omega = sampling.random_faithful_density(rng, d)
    a = sampling.complex_gaussian(rng, d)
    t, s = rng.uniform(-2, 2, size=2)
    probes = sampling.complex_gaussian_stack(rng, 2, d)
    return modular_instance(phi, omega, probes, [0.7], a, t, s)


def _modular_relations(m):
    """S_(omega,phi) S_(phi,omega) = 1, Delta^(1/2) xi_omega = xi_phi and its
    expectation form, the cocycle identity, and the flow of phi chained
    through the cocycle. S_(omega,phi) is the closed form
    J Delta^(1/2)_(omega,phi), composed at O(d^5) with the assembled
    S_(phi,omega): the two factors come from different routes. The product
    is a fresh array, so the identity is subtracted from its diagonal in
    place; an antilinear product reads inf, as ``distance`` reads it."""
    phi, omega, a, t, s = m.phi, m.omega, m.a, m.t, m.s
    s_reverse = modular.modular_conjugation(omega.dim).compose(
        modular.relative_modular_power(omega, phi, 0.5))
    product = s_reverse.compose(m.s_op)
    product.matrix[np.diag_indices(omega.dim**2)] -= 1
    s_inverse = math.inf if product.antilinear else hs_norm(product.matrix)
    image = m.half.apply(states.purify(omega))
    lhs = m.half.apply(vec(a @ omega.sqrt())).norm() ** 2
    rhs = float(np.real(np.trace(phi.matrix @ a @ adjoint(a))))
    u_ts, u_t, u_s = (modular.connes_cocycle(phi, omega, x) for x in (t + s, t, s))
    evolved = modular.modular_flow(phi, a, t)
    chained = u_t @ modular.modular_flow(omega, a, t) @ adjoint(u_t)
    return (
        s_inverse,
        hs_norm(image.amplitudes - states.purify(phi).amplitudes),
        abs(lhs - rhs) / max(1.0, abs(rhs)),
        hs_norm(u_ts - u_t @ modular.modular_flow(omega, u_s, t)),
        hs_norm(evolved - chained) / max(1.0, hs_norm(evolved)),
    )


# S*S = Delta (basis assembly vs closed form) and S = J Delta^(1/2)
MODULAR_CROSS_ROUTE = Family(
    ("modular.sstar_s", "modular.polar"), "residual", TOL_RESIDUAL,
    lambda m: (
        m.s_op.adjoint().compose(m.s_op).distance(m.delta),
        modular.modular_conjugation(m.omega.dim).compose(m.half).distance(m.s_op),
    ),
)
# the largest residual of each kind (np.max propagates NaN)
TOMITA_TAKESAKI = Family(
    ("modular.tt_commutant", "modular.tt_flow"), "residual", TOL_RESIDUAL,
    lambda m: tuple(float(np.max(residuals)) for residuals in
                    modular.verify_tomita_takesaki(m.omega, m.probes, m.flow_times)),
)
MODULAR = (
    MODULAR_CROSS_ROUTE,
    Family(("modular.s_inverse", "modular.half_vector", "modular.half_expectation",
            "modular.cocycle", "modular.cocycle_flow"),
           "residual", TOL_RESIDUAL, _modular_relations),
    TOMITA_TAKESAKI,
)


KMS_TIMES = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _draw_kms(rng, d, k):
    """A Gibbs system, probes a, b on one time t (kms.ProbePairs, formed once
    for both defects) and a modular time s; on every 5th instance also a
    degenerate density and its block multiplicities."""
    density = sampling.random_faithful_density(rng, d)
    sys = kms_mod.gibbs_hamiltonian(density, (0.5, 1.0, 2.0)[k % 3])
    a = sampling.complex_gaussian(rng, d)
    b = sampling.complex_gaussian(rng, d)
    s = float(rng.uniform(-1.5, 1.5))
    deg, blocks = sampling.random_degenerate_density(rng, d) if k % 5 == 0 else (None, ())
    pairs = kms_mod.probe_pairs(kms_mod.time_grid(sys, [KMS_TIMES[k % 5]]), a, b)
    return SimpleNamespace(sys=sys, pairs=pairs, s=s, degenerate=deg, blocks=blocks)


def _kms_dynamics(inst):
    """D is a fixed point of the flow (it commutes with H), and the time
    bridge: the modular flow at s is the physical flow at -beta s."""
    sys, density, a, s = inst.sys, inst.sys.density, inst.pairs.a, inst.s
    evolved = kms_mod.heisenberg_evolve(sys, density.matrix, inst.pairs.grid.t)[0]
    physical = kms_mod.heisenberg_evolve(sys, a, np.array([-sys.beta * s]))[0]
    bridge = modular.modular_flow(density, a, s) - physical
    return hs_norm(density.matrix - evolved), hs_norm(bridge)


# on probe pairs (kms.ProbePairs: one pair or a (k, d, d) stack of them, on
# an array of times), the largest defect
KMS_BOUNDARY = Family(("kms.boundary",), "residual", TOL_RESIDUAL, lambda i: (
    float(np.max(i.pairs.boundary_defect())),))
KMS_INVARIANCE = Family(("kms.invariance",), "residual", TOL_STRICT, lambda i: (
    float(np.max(i.pairs.invariance_defect())),))
# kms-verify's cross-check: the eigenblock count and the commutator-map
# nullity of one density, both computed by the driver
KMS_CENTRALIZER_ROUTES = Family(("kms.centralizer_routes",), "boolean", TOL_RESIDUAL,
                                lambda i: (i.centralizer == i.commutant,))
KMS = (
    KMS_BOUNDARY,
    KMS_INVARIANCE,
    Family(("kms.fixed_point", "kms.time_bridge"), "residual", TOL_RESIDUAL, _kms_dynamics),
    Family(("kms.centralizer",), "boolean", TOL_RESIDUAL, lambda i: (
        kms_mod.centralizer_dimension(i.degenerate) == sum(m * m for m in i.blocks),),
        applies=lambda i: i.degenerate is not None),
)


def _draw_cone(rng, d, k):
    xi, eta = (cone_mod.cone_element(sampling.random_psd(rng, d)) for _ in range(2))
    herm = sampling.random_hermitian(rng, d)
    w = vec(sampling.complex_gaussian(rng, d))
    return SimpleNamespace(xi=xi, eta=eta, herm=herm, w=w, m=sampling.complex_gaussian(rng, d))


def _cone_decompositions(c):
    """J xi = xi; the Jordan split of a J-fixed vector into orthogonal cone
    elements, and the four-part split of a general one, sum back to it."""
    v = vec(c.herm)
    plus, minus = cone_mod.decompose_j_fixed(v)
    c1, c2, c3, c4 = (e.amplitudes for e in cone_mod.decompose_general(c.w))
    j_xi = modular.modular_conjugation(c.xi.dim_left).apply(c.xi)
    return (
        hs_norm(j_xi.amplitudes - c.xi.amplitudes),
        abs(plus.inner(minus)),
        hs_norm((plus - minus).amplitudes - v.amplitudes),
        hs_norm(c1 - c2 + 1j * c3 - 1j * c4 - c.w.amplitudes),
    )


def _cone_membership(c):
    """-xi is outside the cone (pointedness); pi(M) j(pi(M)) xi is inside."""
    j = modular.modular_conjugation(c.xi.dim_left)
    pim = modular.pi_factored(c.m)
    invariance = pim.compose(j).compose(pim).compose(j)
    return not cone_mod.cone_contains(-c.xi), cone_mod.cone_contains(invariance.apply(c.xi))


# self-duality <xi, eta> >= 0 as a residual on -<xi, eta>: margin tol + <xi, eta>
CONE = (
    Family(("cone.self_dual",), "residual", TOL_STRICT,
           lambda c: (-cone_mod.cone_pairing(c.xi, c.eta),)),
    Family(("cone.j_fixed", "cone.jordan_orthogonal", "cone.jordan_sum", "cone.four_part_sum"),
           "residual", TOL_STRICT, _cone_decompositions),
    Family(("cone.pointed", "cone.pi_j_invariance"), "boolean", TOL_RESIDUAL, _cone_membership),
)

def _draw_inequalities(rng, d, k):
    a = sampling.random_psd(rng, d, trace_one=False)
    b = sampling.random_psd(rng, d, trace_one=False)
    # one decomposition per operand, shared by all 15 checks on them
    a, b, a_plus_b = (states.PositiveFunctional(m) for m in (a, b, a + b))
    phi1 = sampling.random_positive_functional(rng, d, faithful=True)
    phi2 = sampling.random_positive_functional(rng, d)
    return SimpleNamespace(a=a, b=b, a_plus_b=a_plus_b, phi1=phi1, phi2=phi2,
                           s=ineq.S_GRID[k % 5])


def _trace_inequalities(p):
    a, b = p.a, p.b
    return (
        *ineq.norm_sandwich(a, b),
        ineq.powers_stormer(a, b),
        *ineq.ozawa_s(a, b),
        *ineq.hoa_generalized(a, b),
        *ineq.phillips(p.a_plus_b, b),
    )


# a report family's tolerance is unused: each report has its own floor
INEQUALITIES = (
    Family(("ineq.norm_sandwich_low", "ineq.norm_sandwich_high", "ineq.powers_stormer",
            *(f"ineq.ozawa_s[{s}]" for s in ineq.S_GRID),
            *(f"ineq.hoa[{mf.name}]" for mf in ineq.MONOTONE_FUNCTIONS),
            *(f"ineq.phillips[{t}]" for t in ineq.T_GRID)),
           "report", TOL_RESIDUAL, _trace_inequalities),
    Family(("ineq.ogata_modular",), "report", TOL_RESIDUAL,
           lambda p: (ineq.ogata_modular(p.phi1, p.phi2, p.s),)),
)


# suite name -> (draw, families)
SUITES = {
    "vec": (_draw_vec, VEC),
    "modular": (_draw_modular, MODULAR),
    "kms": (_draw_kms, KMS),
    "cone": (_draw_cone, CONE),
    "inequalities": (_draw_inequalities, INEQUALITIES),
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(
    suite: str, seed: int, dimension: int, samples: int, tol: float | None = None
) -> list[CampaignResult]:
    """One result per suite run of ``suite`` (or 'all'); ``tol`` beats each family's own."""
    if suite == "all":
        return [r for name in SUITES for r in run_suite(name, seed, dimension, samples, tol)]
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    draw, families = SUITES[suite]
    rng = np.random.default_rng(seed)
    margins, failures = [], 0
    for k in range(samples):
        instance = draw(rng, dimension, k)
        for family in families:
            if family.applies is None or family.applies(instance):
                for check in evaluate(family, instance, tol):
                    margins.append(check.margin)
                    failures += not check.passed
    # np.min propagates NaN, where the builtin min depends on list order
    worst = float(np.min(margins)) if margins else 0.0
    return [CampaignResult(suite, seed, dimension, samples, len(margins), failures, worst)]
