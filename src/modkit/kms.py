"""Gibbs dynamics and the KMS condition for a faithful density matrix.

A faithful density D and inverse temperature beta > 0 fix the Hamiltonian
through D = exp(-beta H) taken literally, i.e. H = -(1/beta) log D with no
partition-function division: since Tr D = 1, the additive constant
(1/beta) log Z is already absorbed into H.

Physical (Heisenberg) time is used here: A evolves as
exp(iHt) A exp(-iHt). The modular flow of :mod:`modkit.modular` runs in
modular time s with Delta^(is); since exp(iHt) = D^(-it/beta) the two
parametrizations are related by

    sigma_s^modular = sigma_(-beta s)^physical.

The two-point function F(z) = omega(A sigma_z(B)) is evaluated by its
eigenbasis sum, which is entire in z; the strip constraint
0 <= Im z <= beta mirrors the analyticity statement of the KMS property
and is enforced as a contract, not a numerical necessity. On the upper
boundary, F(t + i beta) = omega(sigma_t(B) A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBeta, OutsideStrip, ShapeMismatch, SingularState
from .linalg import adjoint, as_matrix
from .states import DensityMatrix, is_faithful
from .vecops import SuperOperator

GAP_RTOL = 1e-9


@dataclass(frozen=True)
class GibbsSystem:
    """Inverse temperature, faithful density, and the Hamiltonian they fix.

    Invariants: exp(-beta H) = D and [D, H] = 0; both hold by construction
    when built through :func:`gibbs_hamiltonian`.
    """

    beta: float
    density: DensityMatrix
    hamiltonian: np.ndarray

    @property
    def dim(self) -> int:
        return self.density.dim

    def energies(self) -> np.ndarray:
        """Eigenvalues of H aligned with the density's cached eigenbasis."""
        return -np.log(self.density.spectrum.eigenvalues) / self.beta


def gibbs_hamiltonian(density: DensityMatrix, beta: float) -> GibbsSystem:
    """H = -(1/beta) log D; requires beta > 0 and faithful D."""
    if beta <= 0:
        raise BadBeta(f"inverse temperature must be positive, got {beta}")
    if not is_faithful(density):
        raise SingularState("Gibbs Hamiltonian needs a faithful density")
    h = density.spectrum.apply(lambda lam: -np.log(lam) / beta)
    return GibbsSystem(float(beta), density, h)


def heisenberg_evolve(sys: GibbsSystem, a: np.ndarray, t: float) -> np.ndarray:
    """exp(iHt) A exp(-iHt) in physical time.

    Energy is conserved ([A, H] = 0 implies a fixed point) and the Gibbs
    state is invariant: Tr(D sigma_t(A)) = Tr(D A).
    """
    a = as_matrix(a)
    if a.shape != (sys.dim, sys.dim):
        raise ShapeMismatch(f"operator shape {a.shape} != ({sys.dim}, {sys.dim})")
    v = sys.density.spectrum.eigenvectors
    phases = np.exp(1j * t * sys.energies())
    a_eig = adjoint(v) @ a @ v
    return v @ (np.outer(phases, np.conj(phases)) * a_eig) @ adjoint(v)


def modular_hamiltonian(sys: GibbsSystem) -> SuperOperator:
    """Dense commutator generator H (x) 1 - 1 (x) H^T, acting as X -> HX - XH.

    Exponentiating it reproduces the Heisenberg evolution:
    exp(i t . ) applied to vec(X) equals vec(exp(iHt) X exp(-iHt)).
    """
    d = sys.dim
    eye = np.eye(d)
    m = np.kron(sys.hamiltonian, eye) - np.kron(eye, sys.hamiltonian.T)
    return SuperOperator(d, m)


def kms_function(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, z: complex
) -> complex:
    """Two-point function F(z) = omega(A sigma_z(B)) on the strip.

    In the eigenbasis of H (eigenvalues E_j, weights lambda_j of D):

        F(z) = sum_jk lambda_j A_jk B_kj exp(i z (E_k - E_j)).

    Raises :class:`OutsideStrip` unless 0 <= Im z <= beta.
    """
    z = complex(z)
    if z.imag < 0 or z.imag > sys.beta:
        raise OutsideStrip(
            f"Im z = {z.imag:g} outside [0, beta] with beta = {sys.beta:g}"
        )
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != (sys.dim, sys.dim) or b.shape != (sys.dim, sys.dim):
        raise ShapeMismatch(
            f"operators {a.shape}, {b.shape} != ({sys.dim}, {sys.dim})"
        )
    v = sys.density.spectrum.eigenvectors
    lam = sys.density.spectrum.eigenvalues
    energy = sys.energies()
    a_eig = adjoint(v) @ a @ v
    b_eig = adjoint(v) @ b @ v
    phase = np.exp(1j * z * (energy[None, :] - energy[:, None]))
    return complex(np.sum(lam[:, None] * a_eig * b_eig.T * phase))


def centralizer_basis(
    density: DensityMatrix, gap_tol: float = GAP_RTOL
) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of {B : [B, D] = 0}.

    Eigenvalues of D closer than ``gap_tol`` times the spectral diameter are
    grouped into one eigenblock; the basis consists of the matrix units
    within each block, so its size is the sum of the squared multiplicities.
    A flat spectrum yields the full matrix algebra: the threshold never
    drops below the eigensolver noise floor, so rounding scatter in a
    degenerate spectrum cannot split a block.
    """
    spec = density.spectrum
    vals = spec.eigenvalues
    v = spec.eigenvectors
    diameter = float(vals[-1] - vals[0])
    noise_floor = 1e-13 * max(1.0, abs(float(vals[-1])))
    threshold = max(gap_tol * diameter, noise_floor)

    blocks: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[blocks[-1][-1]] <= threshold:
            blocks[-1].append(i)
        else:
            blocks.append([i])

    basis = []
    for block in blocks:
        for i in block:
            for j in block:
                basis.append(np.outer(v[:, i], np.conj(v[:, j])))
    return basis


def state_invariance_defect(sys: GibbsSystem, a: np.ndarray, t: float) -> float:
    """|omega(sigma_t(A)) - omega(A)|, zero for the Gibbs state."""
    d = sys.density.matrix
    evolved = heisenberg_evolve(sys, a, t)
    return abs(complex(np.trace(d @ evolved)) - complex(np.trace(d @ as_matrix(a))))


def kms_boundary_defect(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, t: float
) -> float:
    """|F(t + i beta) - omega(sigma_t(B) A)|, the KMS condition residual."""
    lhs = kms_function(sys, a, b, t + 1j * sys.beta)
    rhs = complex(
        np.trace(sys.density.matrix @ heisenberg_evolve(sys, b, t) @ as_matrix(a))
    )
    return abs(lhs - rhs)
