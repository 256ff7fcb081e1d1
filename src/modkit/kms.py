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

Every time argument is a scalar or a 1-D array of times. An array is
evaluated from one change of basis per operator and one phase matrix
per time, and gives the results stacked along a leading axis; a scalar
gives a complex, float or matrix, unstacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBeta, OutsideStrip, ShapeMismatch, SingularState
from .linalg import adjoint, as_matrix
from .states import DensityMatrix, is_faithful

GAP_RTOL = 1e-9
# singular values of the commutator map at or below this (times max(1, top))
# count toward the commutant dimension
COMMUTANT_NULL_RTOL = 1e-8


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
    """H = -(1/beta) log D; requires a finite beta > 0 and faithful D."""
    # written so that NaN fails too: nan <= 0 is False
    if not (math.isfinite(beta) and beta > 0):
        raise BadBeta(f"inverse temperature must be finite and positive, got {beta}")
    if not is_faithful(density):
        raise SingularState("Gibbs Hamiltonian needs a faithful density")
    h = density.spectrum.apply(lambda lam: -np.log(lam) / beta)
    return GibbsSystem(float(beta), density, h)


def heisenberg_evolve(
    sys: GibbsSystem, a: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """exp(iHt) A exp(-iHt) in physical time.

    ``t`` is a scalar or a 1-D array of times; an array gives the evolved
    matrices stacked along a leading axis, from one change of basis of A.
    Energy is conserved ([A, H] = 0 implies a fixed point) and the Gibbs
    state is invariant: Tr(D sigma_t(A)) = Tr(D A).
    """
    a = as_matrix(a)
    if a.shape != (sys.dim, sys.dim):
        raise ShapeMismatch(f"operator shape {a.shape} != ({sys.dim}, {sys.dim})")
    v = sys.density.spectrum.eigenvectors
    t = np.asarray(t, dtype=float)
    phases = np.exp(np.multiply.outer(1j * t, sys.energies()))
    a_eig = adjoint(v) @ a @ v
    outer = phases[..., :, None] * np.conj(phases)[..., None, :]
    return v @ (outer * a_eig) @ adjoint(v)


def kms_function(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, z: complex | np.ndarray
) -> complex | np.ndarray:
    """Two-point function F(z) = omega(A sigma_z(B)) on the strip.

    In the eigenbasis of H (eigenvalues E_j, weights lambda_j of D):

        F(z) = sum_jk lambda_j A_jk B_kj exp(i z (E_k - E_j)).

    ``z`` is a complex scalar, giving a complex, or a 1-D array, giving
    an array; the weights lambda_j A_jk B_kj are formed once for all z.
    Raises :class:`OutsideStrip` unless 0 <= Im z <= beta for every z.
    """
    z = np.asarray(z, dtype=complex)
    outside = (z.imag < 0) | (z.imag > sys.beta)
    if np.any(outside):
        raise OutsideStrip(
            f"Im z = {z.imag[outside].flat[0]:g} outside [0, beta] "
            f"with beta = {sys.beta:g}"
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
    weights = lam[:, None] * a_eig * b_eig.T
    phase = np.exp(np.multiply.outer(1j * z, energy[None, :] - energy[:, None]))
    values = (weights * phase).reshape(*z.shape, -1).sum(axis=-1)
    return complex(values) if z.ndim == 0 else values


def centralizer_basis(density: DensityMatrix) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of {B : [B, D] = 0}.

    Eigenvalues of D closer than ``GAP_RTOL`` times the spectral diameter are
    grouped into one eigenblock; the basis consists of the matrix units
    within each block, so its size is the sum of the squared multiplicities.
    A flat spectrum yields the full matrix algebra: the threshold never
    drops below the eigensolver noise floor, so rounding scatter in a
    degenerate spectrum cannot split a block.

    :func:`commutant_dimension` counts the same centralizer by a second,
    independent route, with its own cutoff. A gap g between adjacent
    eigenvalues joins them here when g <= max(1e-9 * diameter,
    1e-13 * max(1, lambda_max)); there, the commutator map's singular
    values are the differences lambda_i - lambda_j, and g counts as null
    when g <= 1e-8 * max(1, diameter). For a density (diameter < 1) the
    routes agree outside roughly 1e-13 < g <= 1e-8 and may count
    differently inside that window.
    """
    spec = density.spectrum
    vals = spec.eigenvalues
    v = spec.eigenvectors
    diameter = float(vals[-1] - vals[0])
    noise_floor = 1e-13 * max(1.0, abs(float(vals[-1])))
    threshold = max(GAP_RTOL * diameter, noise_floor)

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


def commutant_dimension(d: np.ndarray) -> int:
    """Nullity of B -> BD - DB computed from the dense d^2 x d^2 map.

    The brute-force route to the size of :func:`centralizer_basis`. Cutoff
    is absolute at density-matrix scale, so a numerically zero map (flat
    spectrum) counts as fully null.
    """
    n = d.shape[0]
    eye = np.eye(n)
    k = np.kron(eye, d.T) - np.kron(d, eye)
    sigma = np.linalg.svd(k, compute_uv=False)
    cutoff = COMMUTANT_NULL_RTOL * max(1.0, float(sigma[0]))
    return int(np.count_nonzero(sigma <= cutoff))


def state_invariance_defect(
    sys: GibbsSystem, a: np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """|omega(sigma_t(A)) - omega(A)|, zero for the Gibbs state.

    A scalar ``t`` gives a float, a 1-D array of times an array.
    """
    d = sys.density.matrix
    evolved = heisenberg_evolve(sys, a, t)
    defect = np.abs(_trace(d @ evolved) - np.trace(d @ as_matrix(a)))
    return float(defect) if defect.ndim == 0 else defect


def kms_boundary_defect(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """|F(t + i beta) - omega(sigma_t(B) A)|, the KMS condition residual.

    The left side is the eigenbasis sum of :func:`kms_function`; the right
    side forms sigma_t(B) as a matrix and takes the trace in the standard
    basis. A scalar ``t`` gives a float, a 1-D array of times an array.
    """
    t = np.asarray(t, dtype=float)
    lhs = kms_function(sys, a, b, t + 1j * sys.beta)
    rhs = _trace(sys.density.matrix @ heisenberg_evolve(sys, b, t) @ as_matrix(a))
    defect = np.abs(lhs - rhs)
    return float(defect) if defect.ndim == 0 else defect


def _trace(m: np.ndarray) -> complex | np.ndarray:
    """Trace over the last two axes of a matrix or a stack of matrices."""
    return np.trace(m, axis1=-2, axis2=-1)
