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

Every time argument is a 1-D array of times, one time being an array of
length one; any other shape raises :class:`ShapeMismatch`. It is
evaluated from one change of basis per operator and one phase matrix
per time, and gives the results stacked along a trailing time axis.

Every operator argument is a (d, d) matrix or a stack of k of them,
shape (k, d, d); the paired operators of :func:`kms_function` and
:func:`kms_boundary_defect` are stacked alike. A stack puts its probe
axis first, ahead of the time axis, and evaluates every probe with the
same matrix products as a single operator would, so stacked results
equal the per-probe ones bit for bit.

The centralizer {B : [B, D] = 0}, fixed by the modular group, is counted
by two independent routes, :func:`centralizer_dimension` and
:func:`commutant_dimension`, each with its own cutoff (see
:func:`centralizer_window`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBeta, OutsideStrip, ShapeMismatch, SingularState
from .linalg import adjoint
from .states import DensityMatrix, is_faithful

GAP_RTOL = 1e-9
# eigenvalues of the commutator map at or below this in modulus (times
# max(1, largest modulus)) count toward the commutant dimension
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
    """H = -(1/beta) log D; requires a finite beta > 0, a faithful D and
    finite energies."""
    # written so that NaN fails too: nan <= 0 is False
    if not (math.isfinite(beta) and beta > 0):
        raise BadBeta(f"inverse temperature must be finite and positive, got {beta}")
    if not is_faithful(density):
        raise SingularState("Gibbs Hamiltonian needs a faithful density")
    # a tiny beta overflows the energies -log(lambda) / beta
    with np.errstate(over="ignore"):
        energies = -np.log(density.spectrum.eigenvalues) / beta
    if not np.all(np.isfinite(energies)):
        raise BadBeta(f"energies -log(lambda) / beta overflow at beta = {beta}")
    h = density.spectrum.apply(lambda lam: -np.log(lam) / beta)
    return GibbsSystem(float(beta), density, h)


def heisenberg_evolve(sys: GibbsSystem, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(iHt) A exp(-iHt) in physical time, at each time of ``t``.

    ``a`` is a (d, d) matrix or a (k, d, d) stack; the evolved matrices
    come stacked along a time axis after the probe axis, from one change
    of basis of A. Energy is conserved ([A, H] = 0 implies a fixed point)
    and the Gibbs state is invariant: Tr(D sigma_t(A)) = Tr(D A).
    """
    a = _operands(sys, a)
    t = _times(t, float)
    v = sys.density.spectrum.eigenvectors
    phases = np.exp(np.multiply.outer(1j * t, sys.energies()))
    a_eig = adjoint(v) @ a @ v
    outer = phases[:, :, None] * np.conj(phases)[:, None, :]
    return v @ (outer * a_eig[..., None, :, :]) @ adjoint(v)


def kms_function(sys: GibbsSystem, a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Two-point function F(z) = omega(A sigma_z(B)) on the strip, at each z.

    In the eigenbasis of H (eigenvalues E_j, weights lambda_j of D):

        F(z) = sum_jk lambda_j A_jk B_kj exp(i z (E_k - E_j)).

    ``a`` and ``b`` are (d, d) matrices, giving an array over z, or
    (k, d, d) stacks, giving an array over the probes, then z. The weights
    lambda_j A_jk B_kj are formed once for all z.
    Raises :class:`OutsideStrip` unless 0 <= Im z <= beta for every z.
    """
    z = _times(z, complex)
    outside = (z.imag < 0) | (z.imag > sys.beta)
    if np.any(outside):
        raise OutsideStrip(
            f"Im z = {z.imag[outside].flat[0]:g} outside [0, beta] "
            f"with beta = {sys.beta:g}"
        )
    a = _operands(sys, a)
    b = _operands(sys, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"operator stacks {a.shape} and {b.shape} differ")
    v = sys.density.spectrum.eigenvectors
    lam = sys.density.spectrum.eigenvalues
    energy = sys.energies()
    a_eig = adjoint(v) @ a @ v
    b_eig = adjoint(v) @ b @ v
    weights = lam[:, None] * a_eig * np.swapaxes(b_eig, -2, -1)
    phase = np.exp(np.multiply.outer(1j * z, energy[None, :] - energy[:, None]))
    terms = weights[..., None, :, :] * phase
    return terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)


def centralizer_dimension(density: DensityMatrix) -> int:
    """Dimension of {B : [B, D] = 0}: the sum of the squared eigenblock sizes.

    Adjacent eigenvalues of D closer than ``GAP_RTOL`` times the spectral
    diameter join one eigenblock. A flat spectrum yields the full matrix
    algebra: the threshold never drops below the eigensolver noise floor,
    so rounding scatter in a degenerate spectrum cannot split a block. See
    :func:`centralizer_window` for where this count and
    :func:`commutant_dimension` can differ.
    """
    vals = density.spectrum.eigenvalues
    # a block ends at each adjacent gap that is not within the threshold
    ends = np.flatnonzero(~(np.diff(vals) <= centralizer_window(density)[1])) + 1
    sizes = np.diff(np.concatenate(([0], ends, [len(vals)])))
    return int(np.sum(sizes * sizes))


def centralizer_window(density: DensityMatrix) -> tuple[float, float, float]:
    """(smallest adjacent eigenvalue gap g of D, the grouping threshold of
    :func:`centralizer_dimension`, the null cutoff of :func:`commutant_dimension`).

    Here adjacent eigenvalues join when g <= max(1e-9 * diameter,
    1e-13 * max(1, lambda_max)); there, the commutator map's eigenvalues
    are the differences lambda_i - lambda_j, and g is null when g <= 1e-8 *
    max(1, diameter). For a density the two counts agree unless some g
    lies in the window between threshold and cutoff, roughly (1e-13, 1e-8].
    """
    vals = density.spectrum.eigenvalues
    diameter = float(vals[-1] - vals[0])
    noise_floor = 1e-13 * max(1.0, abs(float(vals[-1])))
    gap = float(np.min(np.diff(vals))) if len(vals) > 1 else math.inf
    threshold = max(GAP_RTOL * diameter, noise_floor)
    return gap, threshold, COMMUTANT_NULL_RTOL * max(1.0, diameter)


def commutant_dimension(density: DensityMatrix) -> int:
    """Nullity of B -> BD - DB computed from the dense d^2 x d^2 map.

    The brute-force route to :func:`centralizer_dimension`, from the
    density's matrix rather than its spectrum. The map is Hermitian for
    Hermitian D, so its singular values are the moduli of its eigenvalues.
    Cutoff is absolute at density-matrix scale, so a numerically zero map
    (flat spectrum) counts as fully null.
    """
    size = np.abs(np.linalg.eigvalsh(_commutator_map(density.matrix)))
    cutoff = COMMUTANT_NULL_RTOL * max(1.0, float(size.max()))
    return int(np.count_nonzero(size <= cutoff))


def _commutator_map(d: np.ndarray) -> np.ndarray:
    """K = 1 (x) D^T - D (x) 1, the row-major matrix of B -> BD - DB.

    Entry ((i, j), (k, l)) is delta_ik D[l, j] - D[i, k] delta_jl: D^T and
    -D are assigned to a zeroed (d, d, d, d) array, the same entries as
    the two Kronecker products without their d^4 multiplications.
    """
    n = d.shape[0]
    k = np.zeros((n, n, n, n), dtype=complex)
    diag = np.arange(n)
    k[diag, :, diag, :] = d.T
    k[:, diag, :, diag] -= d
    return k.reshape(n * n, n * n)


def state_invariance_defect(sys: GibbsSystem, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|omega(sigma_t(A)) - omega(A)|, zero for the Gibbs state.

    An array over the times, or for a (k, d, d) stack over the probes,
    then the times.
    """
    d = sys.density.matrix
    a = _operands(sys, a)
    initial = _trace(d @ a)[..., None]
    return np.abs(_trace(d @ heisenberg_evolve(sys, a, t)) - initial)


def kms_boundary_defect(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """|F(t + i beta) - omega(sigma_t(B) A)|, the KMS condition residual.

    The left side is the eigenbasis sum of :func:`kms_function`; the right
    side forms sigma_t(B) as a matrix and takes the trace in the standard
    basis. An array over the times, or for (k, d, d) stacks over the
    probes, then the times.
    """
    a = _operands(sys, a)
    t = _times(t, float)
    lhs = kms_function(sys, a, b, t + 1j * sys.beta)
    rhs = _trace(sys.density.matrix @ heisenberg_evolve(sys, b, t) @ a[..., None, :, :])
    return np.abs(lhs - rhs)


def _operands(sys: GibbsSystem, a) -> np.ndarray:
    """``a`` as a complex (d, d) matrix or (k, d, d) stack, else ShapeMismatch."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (sys.dim, sys.dim):
        raise ShapeMismatch(
            f"operator shape {a.shape} is neither ({sys.dim}, {sys.dim}) "
            f"nor (k, {sys.dim}, {sys.dim})"
        )
    return a


def _times(t, dtype) -> np.ndarray:
    """``t`` as a 1-D array of ``dtype``, else ShapeMismatch."""
    t = np.asarray(t, dtype=dtype)
    if t.ndim != 1:
        raise ShapeMismatch(f"times must form a 1-D array, got shape {t.shape}")
    return t


def _trace(m: np.ndarray) -> complex | np.ndarray:
    """Trace over the last two axes of a matrix or a stack of matrices."""
    return np.trace(m, axis1=-2, axis2=-1)
