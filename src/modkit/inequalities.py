"""Trace-inequality verifier kernel over fixed tables of exponents and functions.

Implements numerical checks for the family of norm and trace inequalities
relating PSD matrices and positive functionals:

* the norm sandwich  ||X-Y||_HS^2 <= ||X^2-Y^2||_1 <= ||X-Y||_HS ||X+Y||_HS,
* Powers-Stormer     ||sqrt(A)-sqrt(B)||_2^2 <= ||A-B||_1,
* the s-family       2 Tr(B^s A^(1-s)) >= Tr(A + B - |A-B|), s over the
  fixed grid :data:`S_GRID` in [0, 1],
* its modular form   2 ||Delta^(s/2)_(phi2,phi1) Phi1||^2 >=
                     phi1(1) + phi2(1) - |phi1 - phi2|(1),
* the monotone form  2 Tr(sqrt(f(A)) g(B) sqrt(f(A))) >= Tr(A + B - |A-B|)
  for operator monotone f with g(t) = t/f(t), g(0) = 0, f ranging over
  the fixed table :data:`MONOTONE_FUNCTIONS`,
* the Schatten form  ||A^(1/t) - B^(1/t)||_t^t <= ||A-B||_1 for A >= B >= 0,
  t over the fixed grid :data:`T_GRID`.

Every check returns unnamed :class:`InequalityReport` values; the check
table of :mod:`modkit.campaigns` names them from the same tables. The
s-family, the monotone form and the Schatten form are one call per operand
pair each, returning one report per table entry in table order; each takes
its shared right-hand side once, and the Schatten form its A >= B check
once. Pass/fail uses a relative slack floor so trace-scale growth with
dimension does not produce spurious violations. The endpoint convention
X^0 = support projection keeps the s-family meaningful on singular inputs.
Every ||A - B||_1, alone on the right of Powers-Stormer and Phillips or
inside Tr(A + B - |A - B|) = A(1) + B(1) - ||A - B||_1, is
:func:`states.functional_distance`.

Every operand is a :class:`PositiveFunctional`, validated and decomposed
once, on construction: every power a check takes comes from the cached
spectrum, so a caller running many checks on one pair builds the
functionals once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadExponent, OrderViolation, SingularState
from .linalg import (
    SpectralDecomposition,
    adjoint,
    check_psd,
    hs_norm,
    psd_power_values,
    schatten_norm,
    trace_norm,
)
from .states import PositiveFunctional, functional_distance, is_faithful

SLACK_RTOL = 1e-11
ROUTE_AGREEMENT_RTOL = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    ``slack`` is signed so that the inequality holds iff slack >= 0 up to
    the relative floor: pass <=> slack >= -1e-11 * max(1, |lhs|, |rhs|).
    For the dual-route modular check, ``route_residual`` records the
    disagreement between the superoperator and trace evaluations of the
    left-hand side (None elsewhere).
    """

    lhs: float
    rhs: float
    slack: float
    passed: bool
    route_residual: float | None = None


def _slack_floor(lhs: float, rhs: float) -> float:
    return SLACK_RTOL * max(1.0, abs(lhs), abs(rhs))


def _report(lhs: float, rhs: float, relation: str, route_residual: float | None = None,
            extra_ok: bool = True) -> InequalityReport:
    slack = (lhs - rhs) if relation == "ge" else (rhs - lhs)
    passed = bool(slack >= -_slack_floor(lhs, rhs)) and extra_ok
    return InequalityReport(lhs, rhs, slack, passed, route_residual)


def _overlap(a: PositiveFunctional, b: PositiveFunctional) -> float:
    """Tr(A + B - |A - B|) = A(1) + B(1) - ||A - B||_1, the s-family's right side."""
    return a.total() + b.total() - functional_distance(a, b)


def norm_sandwich(
    x: PositiveFunctional, y: PositiveFunctional
) -> tuple[InequalityReport, InequalityReport]:
    """Both halves of ||X-Y||_HS^2 <= ||X^2-Y^2||_1 <= ||X-Y||_HS ||X+Y||_HS."""
    x, y = x.matrix, y.matrix
    diff = hs_norm(x - y)
    middle = trace_norm(x @ x - y @ y)
    return _report(diff**2, middle, "le"), _report(middle, diff * hs_norm(x + y), "le")


def powers_stormer(a: PositiveFunctional, b: PositiveFunctional) -> InequalityReport:
    """||sqrt(A) - sqrt(B)||_2^2 <= ||A - B||_1."""
    lhs = hs_norm(a.sqrt() - b.sqrt()) ** 2
    rhs = functional_distance(a, b)
    return _report(lhs, rhs, "le")


@dataclass(frozen=True)
class MonotoneFunction:
    """Operator monotone function f > 0 on (0, inf) with g(t) = t/f(t), g(0)=0."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]

    def apply_sqrt_f(self, a: SpectralDecomposition) -> np.ndarray:
        """sqrt(f(A)), with negative rounding noise clipped to zero first."""
        return a.apply(lambda lam: np.sqrt(self.f(np.maximum(lam, 0.0))))

    def apply_g(self, b: SpectralDecomposition) -> np.ndarray:
        """g through the spectrum, with g = 0 on the (numerical) kernel.

        The support holds positive eigenvalues only, so nothing needs clipping.
        """
        support = b.support()

        def g(lam):
            out = np.zeros_like(lam)
            out[support] = lam[support] / self.f(lam[support])
            return out

        return b.apply(g)


# the shipped operator monotone functions, in campaign order; each f passes
# the positivity and monotonicity spot checks of the test suite
MONOTONE_FUNCTIONS = (
    MonotoneFunction("t^0.5", lambda t: t**0.5),
    MonotoneFunction("t/(1+t)", lambda t: t / (1.0 + t)),
    MonotoneFunction("log(1+t)", np.log1p),
)

# the s-family's exponents and Phillips' t, in campaign order
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
T_GRID = (1.0, 1.5, 2.0, 3.0)


def ozawa_s(a: PositiveFunctional, b: PositiveFunctional) -> tuple[InequalityReport, ...]:
    """2 Tr(B^s A^(1-s)) >= Tr(A + B - |A - B|) for each s of :data:`S_GRID`.

    At the endpoints the zeroth power is the support projection.
    """
    traces = (np.trace(b.power(s) @ a.power(1.0 - s)) for s in S_GRID)
    rhs = _overlap(a, b)
    return tuple(_report(2.0 * float(np.real(x)), rhs, "ge") for x in traces)


def ogata_modular(
    phi1: PositiveFunctional, phi2: PositiveFunctional, s: float
) -> InequalityReport:
    """2 ||Delta^(s/2)_(phi2,phi1) Phi1||^2 >= phi1(1) + phi2(1) - |phi1-phi2|(1).

    The left-hand side is evaluated twice: (a) by applying the spectral
    power of the relative modular superoperator to the cone representative
    vec(sqrt(D1)), and (b) through the finite-dimensional identity
    2 Tr(D2^s D1^(1-s)). The report fails if the routes drift apart,
    independently of the inequality itself.

    Route (a) uses the Kronecker eigenpairs of Delta = D2 (x) (D1^-1)^T:
    eigenvalues lambda_i / mu_j on u_i (x) conj(w_j), in which vec(sqrt(D1))
    has coefficients (U* sqrt(D1) W)_ij. Delta^(s/2) takes psd_power_values'
    conventions on that d^2 spectrum (clipping, DomainError), without
    forming the d^2 x d^2 eigendecomposition. At s = 0 it is the support
    of Delta, supp(D2) (x) 1 for faithful phi1, at route (b)'s floor on D2.
    """
    if not 0.0 <= s <= 1.0:
        raise BadExponent(f"s must lie in [0, 1], got {s}")
    if not is_faithful(phi1):
        raise SingularState("phi1 must be faithful (Delta needs D1^-1)")
    dec1, dec2 = phi1.spectrum, phi2.spectrum
    ratios = dec2.eigenvalues[:, None] / dec1.eigenvalues[None, :]
    coeffs = adjoint(dec2.eigenvectors) @ phi1.sqrt() @ dec1.eigenvectors
    if s == 0:
        support = psd_power_values(dec2.eigenvalues, 0.0)[:, None]
        image = np.broadcast_to(support, ratios.shape) * coeffs
    else:
        image = psd_power_values(ratios, s / 2.0) * coeffs
    lhs_superop = 2.0 * hs_norm(image) ** 2
    lhs_trace = 2.0 * float(np.real(np.trace(phi2.power(s) @ phi1.power(1.0 - s))))
    rhs = _overlap(phi1, phi2)
    residual = abs(lhs_superop - lhs_trace)
    routes_agree = residual <= ROUTE_AGREEMENT_RTOL * max(
        1.0, abs(lhs_superop), abs(lhs_trace)
    )
    return _report(lhs_superop, rhs, "ge", route_residual=residual, extra_ok=routes_agree)


def hoa_generalized(
    a: PositiveFunctional, b: PositiveFunctional
) -> tuple[InequalityReport, ...]:
    """2 Tr(sqrt(f(A)) g(B) sqrt(f(A))) >= Tr(A + B - |A - B|) for each f of
    :data:`MONOTONE_FUNCTIONS`."""
    rhs = _overlap(a, b)
    reports = []
    for mf in MONOTONE_FUNCTIONS:
        root = mf.apply_sqrt_f(a.spectrum)
        lhs = 2.0 * float(np.real(np.trace(root @ mf.apply_g(b.spectrum) @ root)))
        reports.append(_report(lhs, rhs, "ge"))
    return tuple(reports)


def phillips(
    a: PositiveFunctional, b: PositiveFunctional
) -> tuple[InequalityReport, ...]:
    """||A^(1/t) - B^(1/t)||_t^t <= ||A - B||_1 for A >= B >= 0 and each t
    of :data:`T_GRID`."""
    if not check_psd(a.matrix - b.matrix):
        raise OrderViolation("Phillips inequality requires A >= B")
    lhs = (schatten_norm(a.power(1.0 / t) - b.power(1.0 / t), t) ** t for t in T_GRID)
    rhs = functional_distance(a, b)
    return tuple(_report(x, rhs, "le") for x in lhs)
