"""Standard form of the matrix algebra and its modular operators.

The algebra of d x d matrices acts on H_d (x) H_d as pi(X) = X (x) 1, with
cyclic separating vectors vec(A) for nonsingular A. For faithful densities
phi, omega the relative operators act as

    S  vec(X) = vec(D_omega^(-1/2) X* D_phi^(1/2))     (antilinear)
    F  vec(Y) = vec(D_phi^(1/2) Y* D_omega^(-1/2))     (antilinear)
    J  vec(X) = vec(X*)                                (antilinear)
    Delta     = F S = D_phi (x) (D_omega^(-1))^T       (linear, PSD)

and satisfy the polar decomposition S = J Delta^(1/2). In finite
dimensions F = S*, so only S is assembled and F is its adjoint. Both
construction routes are exposed on purpose: :func:`relative_s_matrix`
assembles S column-by-column from its action on matrix units, while
:func:`relative_modular_operator` uses the closed Kronecker form; their
agreement (Delta = S*S) is a standing cross-check in the test suite, not an
option.

Time conventions: this module works in modular time, sigma_t(A) =
D^(it) A D^(-it). The thermal (Hamiltonian) time of :mod:`modkit.kms`
relates to it by sigma_s^modular = sigma_(-beta s)^physical.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, SingularState
from .linalg import adjoint, as_matrix, hs_norm
from .states import DensityMatrix, PositiveFunctional, is_faithful
from .vecops import SuperOperator, _contract


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


def pi_factored(m: np.ndarray) -> SuperOperator:
    """pi(M) = M (x) 1 in factored form, vec(X) -> vec(M X); M is d x d."""
    m = as_matrix(m)
    return SuperOperator.factored(m.shape[0], m, None)


def _write_pi(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Dense pi(M) into the verifier's own d^2 x d^2 buffer, unvalidated:
    M at the i = j slots of the zeroed (d, d, d, d) view, no d^4 products."""
    d = m.shape[0]
    out.fill(0)
    diag = np.arange(d)
    out.reshape(d, d, d, d)[:, diag, :, diag] = m
    return out


def _flow_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """||A (x) B - C (x) 1||_HS from the d x d factors, in O(d^3).

    Entry ((i, k), (j, l)) of the difference is A_ij B_kl for k != l and
    A_ij B_kk - C_ij for k = l, so its squared norm is
    ||A||^2 sum_(k != l) |B_kl|^2 + sum_(i, j, k) |A_ij B_kk - C_ij|^2: the
    squares of the dense difference, each a non-negative term, none
    subtracted from another. A NaN or inf entry gives a non-finite value.
    """
    off = b[~np.eye(b.shape[0], dtype=bool)]
    on = a[:, :, None] * np.diagonal(b) - c[:, :, None]
    return math.sqrt(_squares(a) * _squares(off) + _squares(on))


def _squares(x: np.ndarray) -> float:
    """Sum of |x_i|^2 over all entries."""
    return float(np.vdot(x, x).real)


def verify_tomita_takesaki(
    omega: DensityMatrix,
    samples: Sequence[np.ndarray],
    t_grid: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two Tomita-Takesaki conclusions on concrete samples.

    Returns (commutant_residuals, flow_residuals), per pair of samples
    and per (t, sample), unjudged: :mod:`modkit.campaigns` reduces them.
    Every sample must be d x d (``ShapeMismatch`` before any product).

    For every sample and every t, the membership residual
    ||Delta^(it) pi(M) Delta^(-it) - (D^(it) M D^(-it)) (x) 1||_HS is
    recorded: ``relative_modular_unitary`` composed with ``pi_factored(M)``
    and the inverse unitary is the factored A (x) B, by the Kronecker-factor
    algebra of :meth:`SuperOperator.compose`, and :func:`_flow_residual`
    compares it with the closed form pi(sigma_t(M)) = C (x) 1, C from
    :func:`modular_flow`, in O(d^3) without a d^2 x d^2 array.

    For every pair (M, N) of samples the commutator norm
    ||[J pi(M) J, pi(N)]||_HS is recorded; J pi(M) J is J's definition
    applied to the dense pi(M) from both sides, formed once per M as one
    conjugating permutation of its entries, not the closed form
    1 (x) conj(M). Every product is one :func:`vecops._contract` of a
    factor along one axis of a d^2 x d^2 buffer viewed as a 3-tensor,
    written into the other buffer of the pair (a, b), so no contraction
    reads what it writes; differences are taken in place, and J pi(M) J
    sits in a third buffer. pi(M), the entries of ``pi_factored(M).matrix``,
    is written into ``a`` by :func:`_write_pi`, not kept for every sample.
    The three buffers are allocated after the flow residuals, so they
    serve the commutant only.
    """
    _require_faithful(omega, "reference")
    d = omega.dim
    mats = [as_matrix(m) for m in samples]
    for m in mats:
        if m.shape != (d, d):
            raise ShapeMismatch(f"sample shape {m.shape} != ({d}, {d})")

    flow = []
    for t in t_grid:
        u = relative_modular_unitary(omega, omega, t)
        u_inv = relative_modular_unitary(omega, omega, -t)
        for m in mats:
            left, right = u.compose(pi_factored(m)).compose(u_inv).factors
            flow.append(_flow_residual(left, right, modular_flow(omega, m, t)))

    n = d * d
    a, b, jmj = (np.empty((n, n), dtype=complex) for _ in range(3))
    comm = []
    for m in mats:
        # J o pi(M) o J with J vec(X) = vec(X*): entry ((i, a), (j, c)) is
        # conj(pi(M)[(a, i), (c, j)]), one conjugating index permutation
        # (copied, then conjugated in place: a ufunc reading the strided
        # view would allocate an iteration buffer)
        pim = _write_pi(m, a).reshape(d, d, d, d)
        np.copyto(jmj.reshape(d, d, d, d), pim.transpose(1, 0, 3, 2))
        np.conjugate(jmj, out=jmj)
        for probe in mats:
            _contract(probe, jmj.reshape(d, d, n), 0, out=a)  # pi(N) J pi(M) J
            _contract(probe.T, jmj.reshape(n, d, d), 1, out=b)  # J pi(M) J pi(N)
            comm.append(hs_norm(np.subtract(b, a, out=b)))

    return np.array(comm), np.array(flow)
