"""Standard form of the matrix algebra and its modular operators.

The algebra of d x d matrices acts on H_d (x) H_d as pi(X) = X (x) 1, with
cyclic separating vectors vec(A) for nonsingular A. For faithful densities
phi, omega the relative operators act as

    S  vec(X) = vec(D_omega^(-1/2) X* D_phi^(1/2))     (antilinear)
    F  vec(Y) = vec(D_phi^(1/2) Y* D_omega^(-1/2))     (antilinear)
    J  vec(X) = vec(X*)                                (antilinear)
    Delta     = F S = D_phi (x) (D_omega^(-1))^T       (linear, PSD)

and satisfy the polar decomposition S = J Delta^(1/2). Both construction
routes are exposed on purpose: :func:`relative_s_matrix` assembles S
column-by-column from its action on matrix units, while
:func:`relative_modular_operator` uses the closed Kronecker form; their
agreement (Delta = S*S) is a standing cross-check in the test suite, not an
option.

Time conventions: this module works in modular time, sigma_t(A) =
D^(it) A D^(-it). The thermal (Hamiltonian) time of :mod:`modkit.kms`
relates to it by sigma_s^modular = sigma_(-beta s)^physical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, SingularState
from .linalg import adjoint, as_matrix, hs_norm
from .states import DensityMatrix, PositiveFunctional, is_faithful
from .vecops import SuperOperator


def _require_faithful(omega: PositiveFunctional, role: str) -> None:
    if not is_faithful(omega):
        raise SingularState(f"{role} state must be faithful (nonsingular density)")


def _require_pair(phi: PositiveFunctional, omega: PositiveFunctional) -> None:
    _require_faithful(omega, "reference (right)")
    if phi.dim != omega.dim:
        raise ShapeMismatch(f"dimensions {phi.dim} != {omega.dim}")


def _assemble_antilinear(left: np.ndarray, right: np.ndarray) -> SuperOperator:
    """X -> left X* right, assembled from its action on the matrix units.

    E_mu_nu* = E_nu_mu, so column (mu, nu) is the outer product of column
    nu of ``left`` with row mu of ``right``: entry ((a, b), (mu, nu)) is
    left[a, nu] * right[mu, b]. The operator is antilinear, applied as
    v -> M conj(v).
    """
    d = left.shape[0]
    m = left[:, None, None, :] * right.T[None, :, :, None]
    return SuperOperator(d, m.reshape(d * d, d * d), antilinear=True)


def relative_s_matrix(
    phi: PositiveFunctional, omega: PositiveFunctional
) -> SuperOperator:
    """S_(phi,omega), assembled from its action on the matrix units.

    Column (mu, nu) is vec(D_omega^(-1/2) E_nu_mu D_phi^(1/2)).
    """
    _require_pair(phi, omega)
    return _assemble_antilinear(omega.spectrum.power(-0.5), phi.power(0.5))


def relative_f_matrix(
    phi: PositiveFunctional, omega: PositiveFunctional
) -> SuperOperator:
    """F_(phi,omega) with F vec(Y) = vec(D_phi^(1/2) Y* D_omega^(-1/2))."""
    _require_pair(phi, omega)
    return _assemble_antilinear(phi.power(0.5), omega.spectrum.power(-0.5))


def relative_modular_operator(
    phi: PositiveFunctional, omega: PositiveFunctional
) -> SuperOperator:
    """Delta_(phi,omega) = D_phi (x) (D_omega^(-1))^T in closed form."""
    return relative_modular_power(phi, omega, 1.0)


def relative_modular_power(
    phi: PositiveFunctional, omega: PositiveFunctional, s: float
) -> SuperOperator:
    """Delta^s_(phi,omega) = D_phi^s (x) (D_omega^(-s))^T for real s.

    phi may be singular for s >= 0 (support convention applies through the
    density's power); omega must be faithful.
    """
    _require_pair(phi, omega)
    if s < 0:
        _require_faithful(phi, "left")
        left = phi.spectrum.power(s)
    else:
        left = phi.power(s)
    # omega is faithful, so D_omega^0 is exactly the identity
    right = None if s == 0 else omega.spectrum.power(-s).T
    return SuperOperator.factored(omega.dim, left, right)


def relative_modular_unitary(
    phi: PositiveFunctional, omega: PositiveFunctional, t: float
) -> SuperOperator:
    """Delta^(it)_(phi,omega) = D_phi^(it) (x) (D_omega^(-it))^T."""
    _require_faithful(phi, "left")
    _require_pair(phi, omega)
    return SuperOperator.factored(
        omega.dim, phi.spectrum.unitary(t), omega.spectrum.unitary(-t).T
    )


def modular_conjugation(d: int) -> SuperOperator:
    """J with J vec(X) = vec(X*); antilinear involution, equal to swap o conj.

    Factored with identity factors: tau(X) = X*, so composing J with a dense
    operator permutes and conjugates its entries.
    """
    return SuperOperator.factored(d, None, None, transpose=True, antilinear=True)


def modular_flow(omega: DensityMatrix, a: np.ndarray, t: float) -> np.ndarray:
    """Modular automorphism sigma_t(A) = D^(it) A D^(-it) in closed form."""
    _require_faithful(omega, "reference")
    a = as_matrix(a)
    if a.shape != omega.matrix.shape:
        raise ShapeMismatch(f"operator shape {a.shape} != {omega.matrix.shape}")
    u = omega.spectrum.unitary(t)
    return u @ a @ adjoint(u)


def connes_cocycle(phi: DensityMatrix, omega: DensityMatrix, t: float) -> np.ndarray:
    """Cocycle [D phi : D omega]_t = D_phi^(it) D_omega^(-it), a d x d unitary.

    Its pi-image equals Delta^(it)_(phi,omega) Delta^(-it)_(omega,omega)
    because the right Kronecker factors cancel.
    """
    _require_faithful(phi, "left")
    _require_pair(phi, omega)
    return phi.spectrum.unitary(t) @ omega.spectrum.unitary(-t)


def pi_left(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense pi(M) = M (x) 1, written into ``out`` (d^2 x d^2) if given.

    Entry ((a, i), (c, j)) is M[a, c] delta_ij: M is assigned to the
    i = j positions of a zeroed (d, d, d, d) array, the same entries as
    ``np.kron(M, 1)`` without the d^4 multiplications.
    """
    m = as_matrix(m)
    d = m.shape[0]
    if out is None:
        out = np.zeros((d * d, d * d), dtype=complex)
    elif (
        out.shape != (d * d, d * d)
        or out.dtype != complex
        or not out.flags.c_contiguous
    ):
        # a reshaped copy would take the assignment and leave out unchanged
        raise ShapeMismatch(
            f"out must be a C-contiguous complex ({d * d}, {d * d}) array"
        )
    else:
        out.fill(0)
    diag = np.arange(d)
    out.reshape(d, d, d, d)[:, diag, :, diag] = m
    return out


def pi_factored(m: np.ndarray) -> SuperOperator:
    """pi(M) = M (x) 1 in factored form, vec(X) -> vec(M X)."""
    m = as_matrix(m)
    return SuperOperator.factored(m.shape[0], m, None)


@dataclass(frozen=True)
class TomitaTakesakiReport:
    """Residuals from checking J M J = M' and flow invariance of the algebra."""

    d: int
    tolerance: float
    commutant_residuals: np.ndarray = field(repr=False)
    flow_residuals: np.ndarray = field(repr=False)
    max_commutant_residual: float = 0.0
    max_flow_residual: float = 0.0
    passed: bool = True


def verify_tomita_takesaki(
    omega: DensityMatrix,
    samples: Sequence[np.ndarray],
    t_grid: Sequence[float],
    tol: float = 1e-10,
) -> TomitaTakesakiReport:
    """Check the two Tomita-Takesaki conclusions on concrete samples.

    For every pair (M, N) of samples the commutator norm
    ||[J pi(M) J, pi(N)]||_HS is recorded; J pi(M) J is J's definition
    applied to the dense pi(M) from both sides, formed once per M as one
    conjugating permutation of its entries, not the closed form
    1 (x) conj(M). For every sample and every t, the membership residual
    ||Delta^(it) pi(M) Delta^(-it) - (D^(it) M D^(-it)) (x) 1||_HS is
    recorded: the factors of Delta^(+-it) act on the dense pi(M) by
    reshape, and the result is compared with the closed form pi(sigma_t(M)).
    Every product and difference is written into the same two d^2 x d^2
    buffers, and J pi(M) J into a third; pi(M) is rebuilt per use, not
    kept for every sample. The report passes iff every residual is below
    ``tol``.
    """
    _require_faithful(omega, "reference")
    d = omega.dim
    mats = [as_matrix(m) for m in samples]
    a, b, jmj = (np.empty((d * d, d * d), dtype=complex) for _ in range(3))

    comm = []
    for m in mats:
        # J o pi(M) o J with J vec(X) = vec(X*): entry ((i, a), (j, c)) is
        # conj(pi(M)[(a, i), (c, j)]), one conjugating index permutation
        # (copied, then conjugated in place: a ufunc reading the strided
        # view would allocate an iteration buffer)
        pim = pi_left(m, out=a).reshape(d, d, d, d)
        np.copyto(jmj.reshape(d, d, d, d), pim.transpose(1, 0, 3, 2))
        np.conjugate(jmj, out=jmj)
        for n in mats:
            pin = pi_factored(n)
            pin._left_multiply(jmj, out=a)  # pi(N) J pi(M) J
            pin._right_multiply(jmj, conjugate=False, out=b)  # J pi(M) J pi(N)
            comm.append(hs_norm(np.subtract(b, a, out=b)))

    flow = []
    for t in t_grid:
        u = relative_modular_unitary(omega, omega, t)
        u_inv = relative_modular_unitary(omega, omega, -t)
        for m in mats:
            u._left_multiply(pi_left(m, out=b), out=b, work=a)
            u_inv._right_multiply(b, conjugate=False, out=b, work=a)
            closed = pi_left(modular_flow(omega, m, t), out=a)
            flow.append(hs_norm(np.subtract(b, closed, out=b)))

    comm_arr = np.array(comm)
    flow_arr = np.array(flow) if flow else np.zeros(0)
    max_comm = float(comm_arr.max()) if comm_arr.size else 0.0
    max_flow = float(flow_arr.max()) if flow_arr.size else 0.0
    return TomitaTakesakiReport(
        d=d,
        tolerance=tol,
        commutant_residuals=comm_arr,
        flow_residuals=flow_arr,
        max_commutant_residual=max_comm,
        max_flow_residual=max_flow,
        passed=bool(max_comm < tol and max_flow < tol),
    )
