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
from .linalg import adjoint, as_matrix, as_operators, hs_norm
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
    v -> M conj(v). The product is written in C order into its one
    d^2 x d^2 array, so the reshape is a view and no second array is formed.
    """
    d = left.shape[0]
    m = np.empty((d, d, d, d), dtype=complex)
    np.multiply(left[:, None, None, :], right.T[None, :, :, None], out=m)
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
    """Modular automorphism sigma_t(A) = D^(it) A D^(-it) in closed form.

    ``a`` is a (d, d) matrix or a (k, d, d) stack; a stack is evolved by
    the same two matrix products per probe, so it gives the per-probe
    results bit for bit.
    """
    _require_faithful(omega, "reference")
    a = as_operators(a, omega.dim)
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
    """pi(M) = M (x) 1 in factored form, vec(X) -> vec(M X); M is a d x d
    matrix, or a (k, d, d) stack giving the stack of the pi(M_i)."""
    m = as_operators(m)
    return SuperOperator.factored(m.shape[-1], m, None)


def _flow_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """||A (x) B - C (x) 1||_HS from the d x d factors, in O(d^3) per probe.

    Each argument is a (d, d) matrix or a (k, d, d) stack, a matrix
    standing for every probe; the result holds one value per probe (one
    for three matrices). Entry ((i, k), (j, l)) of the difference is
    A_ij B_kl for k != l and A_ij B_kk - C_ij for k = l, so its norm is the
    hypotenuse of ||A|| ||(B_kl)_(k != l)|| and ||(A_ij B_kk - C_ij)_(i, j, k)||:
    the squares of the dense difference, each a non-negative term, none
    subtracted from another. Each probe is reduced alone, as one matrix
    would be. A NaN or inf entry gives a non-finite value.
    """
    a, b, c = np.broadcast_arrays(*(np.reshape(x, (-1, *np.shape(x)[-2:])) for x in (a, b, c)))
    off = b[:, ~np.eye(b.shape[-1], dtype=bool)]
    residuals = []
    for ak, bk, ck, off_k in zip(a, b, c, off):
        on = ak[:, :, None] * np.diagonal(bk) - ck[:, :, None]
        residuals.append(math.hypot(hs_norm(ak) * hs_norm(off_k), hs_norm(on)))
    return np.array(residuals, dtype=float)


def verify_tomita_takesaki(
    omega: DensityMatrix,
    samples: Sequence[np.ndarray],
    t_grid: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two Tomita-Takesaki conclusions on concrete samples.

    Returns (commutant_residuals, flow_residuals), one per sample and one
    per (t, sample), time-major, unjudged: :mod:`modkit.campaigns` reduces
    them. Every sample must be d x d (``ShapeMismatch`` before any product).

    The samples run as one (k, d, d) stack: :func:`pi_factored` of the
    stack is composed once per time, and once with J, by
    :meth:`SuperOperator.compose` at O(d^3) per probe, and
    :func:`_flow_residual` measures each probe's membership residual of a
    factored A (x) B without a d^2 x d^2 array. Every probe goes through
    the same products and reductions as it would alone, so the residuals
    are those of a loop over the samples, bit for bit:

    * flow: Delta^(it) pi(M) Delta^(-it) against the closed form
      pi(sigma_t(M)) = C (x) 1, C from :func:`modular_flow`;
    * commutant: J pi(M) J against pi(M_d)' = 1 (x) M_d. Its HS projection
      there is 1 (x) X with X = (Tr A / d) B, and conjugating both by the
      swap makes the distance ||B (x) A - X (x) 1||.
    """
    _require_faithful(omega, "reference")
    d = omega.dim
    mats = [as_matrix(m) for m in samples]
    for m in mats:
        if m.shape != (d, d):
            raise ShapeMismatch(f"sample shape {m.shape} != ({d}, {d})")
    stack = np.array(mats).reshape(len(mats), d, d)
    probes = pi_factored(stack)

    flow = []
    for t in t_grid:
        u = relative_modular_unitary(omega, omega, t)
        u_inv = relative_modular_unitary(omega, omega, -t)
        left, right = u.compose(probes).compose(u_inv).factors
        flow.append(_flow_residual(left, right, modular_flow(omega, stack, t)))

    # J on both sides: its transposition and conjugation cancel, so the
    # product is a plain A (x) B
    j = modular_conjugation(d)
    a, b = j.compose(probes).compose(j).factors
    scale = np.trace(a, axis1=-2, axis2=-1) / d
    comm = _flow_residual(b, a, scale[..., None, None] * b)
    return comm, np.array(flow).reshape(-1)
