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

Every operator argument is a (d, d) matrix or a stack of k of them,
shape (k, d, d); the paired operators of :func:`kms_function` and
:func:`kms_boundary_defect` are stacked alike. A stack puts its probe
axis first, ahead of any time axis, and evaluates every probe with the
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

    ``a`` is a (d, d) matrix or a (k, d, d) stack; ``t`` is a scalar or a
    1-D array of times. An array gives the evolved matrices stacked along
    a time axis after the probe axis, from one change of basis of A.
    Energy is conserved ([A, H] = 0 implies a fixed point) and the Gibbs
    state is invariant: Tr(D sigma_t(A)) = Tr(D A).
    """
    a = _operands(sys, a)
    v = sys.density.spectrum.eigenvectors
    t = np.asarray(t, dtype=float)
    phases = np.exp(np.multiply.outer(1j * t, sys.energies()))
    a_eig = adjoint(v) @ a @ v
    if t.ndim:
        a_eig = a_eig[..., None, :, :]
    outer = phases[..., :, None] * np.conj(phases)[..., None, :]
    return v @ (outer * a_eig) @ adjoint(v)


def kms_function(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, z: complex | np.ndarray
) -> complex | np.ndarray:
    """Two-point function F(z) = omega(A sigma_z(B)) on the strip.

    In the eigenbasis of H (eigenvalues E_j, weights lambda_j of D):

        F(z) = sum_jk lambda_j A_jk B_kj exp(i z (E_k - E_j)).

    ``z`` is a complex scalar or a 1-D array; ``a`` and ``b`` are (d, d)
    matrices, giving a complex or an array over z, or (k, d, d) stacks,
    giving an array over the probes (then z). The weights
    lambda_j A_jk B_kj are formed once for all z.
    Raises :class:`OutsideStrip` unless 0 <= Im z <= beta for every z.
    """
    z = np.asarray(z, dtype=complex)
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
    if z.ndim:
        weights = weights[..., None, :, :]
    phase = np.exp(np.multiply.outer(1j * z, energy[None, :] - energy[:, None]))
    terms = weights * phase
    values = terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)
    return complex(values) if values.ndim == 0 else values


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


def commutant_dimension(d: np.ndarray) -> int:
    """Nullity of B -> BD - DB computed from the dense d^2 x d^2 map.

    The brute-force route to :func:`centralizer_dimension`. The
    map is Hermitian for Hermitian D, so its singular values are the
    moduli of its eigenvalues. Cutoff is absolute at density-matrix
    scale, so a numerically zero map (flat spectrum) counts as fully null.
    """
    size = np.abs(np.linalg.eigvalsh(_commutator_map(d)))
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


def state_invariance_defect(
    sys: GibbsSystem, a: np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """|omega(sigma_t(A)) - omega(A)|, zero for the Gibbs state.

    A (d, d) ``a`` and a scalar ``t`` give a float; a (k, d, d) stack or
    a 1-D array of times give an array over the probes, then the times.
    """
    d = sys.density.matrix
    a = _operands(sys, a)
    t = np.asarray(t, dtype=float)
    evolved = heisenberg_evolve(sys, a, t)
    initial = _trace(d @ a)
    if t.ndim:
        initial = initial[..., None]
    defect = np.abs(_trace(d @ evolved) - initial)
    return float(defect) if defect.ndim == 0 else defect


def kms_boundary_defect(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """|F(t + i beta) - omega(sigma_t(B) A)|, the KMS condition residual.

    The left side is the eigenbasis sum of :func:`kms_function`; the right
    side forms sigma_t(B) as a matrix and takes the trace in the standard
    basis. (d, d) operators and a scalar ``t`` give a float; (k, d, d)
    stacks or a 1-D array of times give an array over the probes, then
    the times.
    """
    a = _operands(sys, a)
    t = np.asarray(t, dtype=float)
    lhs = kms_function(sys, a, b, t + 1j * sys.beta)
    right = a[..., None, :, :] if t.ndim else a
    rhs = _trace(sys.density.matrix @ heisenberg_evolve(sys, b, t) @ right)
    defect = np.abs(lhs - rhs)
    return float(defect) if defect.ndim == 0 else defect


def _operands(sys: GibbsSystem, a) -> np.ndarray:
    """``a`` as a complex (d, d) matrix or (k, d, d) stack, else ShapeMismatch."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (sys.dim, sys.dim):
        raise ShapeMismatch(
            f"operator shape {a.shape} is neither ({sys.dim}, {sys.dim}) "
            f"nor (k, {sys.dim}, {sys.dim})"
        )
    return a


def _trace(m: np.ndarray) -> complex | np.ndarray:
    """Trace over the last two axes of a matrix or a stack of matrices."""
    return np.trace(m, axis1=-2, axis2=-1)
