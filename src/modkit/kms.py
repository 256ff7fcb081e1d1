"""Gibbs dynamics and the KMS condition for a faithful density matrix.

A faithful density D and inverse temperature beta > 0 fix the Hamiltonian
through D = exp(-beta H) taken literally, i.e. H = -(1/beta) log D with no
partition-function division: since Tr D = 1, the additive constant
(1/beta) log Z is already absorbed into H. H is never formed as a matrix:
it enters every function here through its energies -log(lambda_j) / beta
in D's eigenbasis.

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
length one; any other shape raises :class:`ShapeMismatch`, and an entry
numpy cannot convert to a number, a non-finite entry (NaN or infinite in
either part), or a physical time with a non-zero imaginary part, raises
:class:`DomainError`. It is evaluated from one change of basis per
operator and one phase matrix per time, and gives the results stacked
along a trailing time axis.

Every operator argument is a (d, d) matrix or a stack of k of them,
shape (k, d, d); the paired operators of :func:`kms_function` and
:func:`kms_boundary_defect` are stacked alike. A stack puts its probe
axis first, ahead of the time axis, and evaluates every probe with the
same matrix products as a single operator would, so stacked results
equal the per-probe ones bit for bit. The time axis is an array axis
like the probe axis: each sum over the d x d entries (the two-point
function's eigenbasis sum, and the traces Tr(X M) taken as
sum_jk X_jk M_kj) is one broadcast product over every probe and time,
reduced over its contiguous trailing axis in the order one probe at one
time would use, so it keeps the one-time bits. Nothing here bounds its
own memory: a call holds a few (probes, times, d, d) complex arrays at
once, and the caller bounds them by the stack it passes, as
``kms-verify`` does with its probe blocks (``cli.KMS_BLOCK_BYTES``).

The centralizer {B : [B, D] = 0}, fixed by the modular group, is counted
by two independent routes, each with its own cutoff (see
:func:`centralizer_window`): :func:`centralizer_dimension` groups D's
eigenvalues, and :func:`commutant_dimension` counts the null space of the
real commutator map of D's Householder tridiagonal form from its
swap-antisymmetric block C, built from the tridiagonal form's entries
without forming the map, and without an eigenvalue or eigenvector of D.
A Cholesky factorization of C C^T, shifted by a bound that covers its own
rounding, certifies that no singular value of C is null; only when it
fails (an eigenvalue gap of D near or below 1e-6) are C's singular values
computed and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBeta, DomainError, OutsideStrip, ShapeMismatch, SingularState
from .linalg import adjoint, as_operators, hs_norm
from .states import DensityMatrix, is_faithful

GAP_RTOL = 1e-9
# eigenvalues of the commutator map at or below this in modulus (times
# max(1, largest modulus)), i.e. singular values of its antisymmetric
# block, count toward the commutant dimension
COMMUTANT_NULL_RTOL = 1e-8
# a Cholesky factorization of the antisymmetric block's Gram matrix, shifted
# by (this times the null cutoff)^2 plus its rounding bound, certifies that
# no singular value is null (see commutant_dimension)
CERTIFICATE_MARGIN = 100.0


@dataclass(frozen=True)
class GibbsSystem:
    """Inverse temperature, faithful density, and the energies of the
    Hamiltonian they fix.

    Invariant: exp(-beta E_j) = lambda_j for the eigenvalues lambda_j of D,
    so H = sum_j E_j |v_j><v_j| on D's eigenvectors v_j; it holds by
    construction when built through :func:`gibbs_hamiltonian`.
    """

    beta: float
    density: DensityMatrix
    energies: np.ndarray  # -log(lambda) / beta, in the density's eigenbasis

    @property
    def dim(self) -> int:
        return self.density.dim


def gibbs_hamiltonian(density: DensityMatrix, beta: float) -> GibbsSystem:
    """The energies of H = -(1/beta) log D in D's eigenbasis; requires a
    finite beta > 0, a faithful D and finite energies."""
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
    return GibbsSystem(float(beta), density, energies)


def heisenberg_evolve(sys: GibbsSystem, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(iHt) A exp(-iHt) in physical time, at each time of ``t``.

    ``a`` is a (d, d) matrix or a (k, d, d) stack; the evolved matrices
    come stacked along a time axis after the probe axis, from one change
    of basis of A, then one phase product and two matrix products over
    every probe and time at once. Energy is conserved ([A, H] = 0 implies a
    fixed point) and the Gibbs state is invariant: Tr(D sigma_t(A)) = Tr(D A).
    """
    a = as_operators(a, sys.dim)
    t = _times(t, float)
    v = sys.density.spectrum.eigenvectors
    phases = np.exp(np.multiply.outer(1j * t, sys.energies))
    a_eig = adjoint(v) @ a @ v
    outer = phases[:, :, None] * np.conj(phases)[:, None, :]
    evolved = outer * a_eig[..., None, :, :]
    return v @ evolved @ adjoint(v)


def kms_function(sys: GibbsSystem, a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Two-point function F(z) = omega(A sigma_z(B)) on the strip, at each z.

    In the eigenbasis of H (eigenvalues E_j, weights lambda_j of D):

        F(z) = sum_jk lambda_j A_jk B_kj exp(i z (E_k - E_j)).

    ``a`` and ``b`` are (d, d) matrices, giving an array over z, or
    (k, d, d) stacks, giving an array over the probes, then z. The weights
    lambda_j A_jk B_kj are formed once for all z, and multiplied by the
    phases of every z in one broadcast product over a flat d^2 axis,
    which is summed. Raises :class:`OutsideStrip` unless
    0 <= Im z <= beta for every z, after :class:`DomainError` for a
    non-finite z.
    """
    z = _times(z, complex)
    outside = (z.imag < 0) | (z.imag > sys.beta)
    if np.any(outside):
        raise OutsideStrip(
            f"Im z = {z.imag[outside].flat[0]:g} outside [0, beta] "
            f"with beta = {sys.beta:g}"
        )
    a = as_operators(a, sys.dim)
    b = as_operators(b, sys.dim)
    if a.shape != b.shape:
        raise ShapeMismatch(f"operator stacks {a.shape} and {b.shape} differ")
    v = sys.density.spectrum.eigenvectors
    lam = sys.density.spectrum.eigenvalues
    energy = sys.energies
    a_eig = adjoint(v) @ a @ v
    b_eig = adjoint(v) @ b @ v
    weights = lam[:, None] * a_eig * np.swapaxes(b_eig, -2, -1)
    phase = np.exp(np.multiply.outer(1j * z, energy[None, :] - energy[:, None]))
    d2 = sys.dim**2
    terms = weights.reshape(*weights.shape[:-2], 1, d2) * phase.reshape(len(z), d2)
    return terms.sum(axis=-1)


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
    are the differences lambda_i - lambda_j (the same for D and for the
    tridiagonal form it counts from), and g is null when g <= 1e-8 *
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
    """Nullity of B -> BD - DB, counted from one block of the commutator
    map of D's real tridiagonal form.

    The brute-force route to :func:`centralizer_dimension`, from the
    density's matrix rather than its spectrum. Householder reflections
    (:func:`_householder_tridiagonal`) take D to a real symmetric
    tridiagonal T = Q* D Q without computing an eigenvalue, and the map's
    spectrum {lambda_i - lambda_j} is invariant under that similarity, so
    the nullity is that of the real symmetric d^2 x d^2 map K of T, which
    is never formed.

    K anticommutes with the swap X -> X^T (T^T = T), so it maps symmetric
    matrices to antisymmetric ones and back: on the symmetric and
    antisymmetric orthonormal bases it is [[0, C^T], [C, 0]], with the
    m x n block C, m = d(d-1)/2 and n = d(d+1)/2, which
    :func:`_antisymmetric_block` builds from T's entries, its m rows of K
    only. Its eigenvalues are +-sigma for each singular value
    sigma of C, and d zeros (the surplus of columns over rows), so the
    nullity is d plus twice the number of singular values at or below the
    cutoff (Golub and Van Loan, Matrix Computations, 4th ed., 8.6.1).
    Cutoff is absolute at density-matrix scale, so a numerically zero map
    (flat spectrum) counts as fully null; a 1 x 1 density has an empty C
    and nullity 1.

    A simple spectrum is certified without the SVD: a Cholesky
    factorization of C C^T - tau^2 I (:func:`_certificate_shift`) that runs
    to completion proves that every singular value of C is at least
    ``CERTIFICATE_MARGIN`` times a cutoff no smaller than the SVD count's,
    so the SVD would count none and the nullity is d. Only when the
    factorization fails, i.e. for a gap of D's spectrum near or below
    ``CERTIFICATE_MARGIN`` times the cutoff (about 1e-6), are the singular
    values computed and counted.
    """
    c = _antisymmetric_block(_householder_tridiagonal(density.matrix))
    if c.size == 0:
        return density.dim
    gram = c @ c.T
    gram[np.diag_indices_from(gram)] -= _certificate_shift(c)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:  # no certificate: count the singular values
        sigma = np.linalg.svd(c, compute_uv=False)
        cutoff = COMMUTANT_NULL_RTOL * max(1.0, float(sigma.max()))
        return density.dim + 2 * int(np.count_nonzero(sigma <= cutoff))
    return density.dim


def _certificate_shift(c: np.ndarray) -> float:
    """tau^2 = (``CERTIFICATE_MARGIN`` * cutoff)^2 + rho for the m x n block
    C, m <= n, with cutoff = ``COMMUTANT_NULL_RTOL`` * max(1, ||C||_F) and rho
    the rounding bound below.

    ||C||_F >= sigma_max, so this cutoff is at least the SVD count's, and a
    certificate errs toward refusing. Write u = 2^-53, s = ||C||_F^2 and
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002):

    * the computed Gram matrix is G = C C^T + E with |E| <= gamma_n |C| |C|^T
      (section 3.5), so ||E||_2 <= gamma_n || |C| ||_2^2 <= gamma_n s;
    * subtracting tau^2 from G's diagonal rounds each entry by at most
      u G_ii <= u (1 + gamma_n) s;
    * if Cholesky runs to completion on the result A, its computed factor
      R satisfies R^T R = A + dA with |dA| <= gamma_(m+1) |R^T| |R|
      (section 10.1; the bound needs no definiteness, only completion).
      The diagonal of that bound gives ||r_i||^2 <= A_ii / (1 - gamma_(m+1))
      for column r_i of R, and tr A <= tr G <= (1 + gamma_n) s, so
      ||dA||_2 <= gamma_(m+1) ||R||_F^2 <= gamma_(m+1) (1 + gamma_n) s /
      (1 - gamma_(m+1)).

    R^T R is positive semidefinite, so lambda_min(C C^T) >= tau^2 minus
    the three bounds, whose sum is (n + m + 2) u s to first order. rho =
    2 (n + m + 2) u s covers it, with room for the second-order terms and
    for the rounding of s itself. A success then gives lambda_min(C C^T) >=
    (``CERTIFICATE_MARGIN`` * cutoff)^2, up to the few-u rounding of tau^2.
    C has m <= n rows, so the eigenvalues of C C^T are its squared singular
    values, and sigma_min(C) >= ``CERTIFICATE_MARGIN`` * cutoff, at least
    2 cutoff. The SVD computes each singular value to within a modest
    multiple of u sigma_max, far below the cutoff, so it too would count
    none at or below its own cutoff.
    """
    norm = hs_norm(c)
    cutoff = COMMUTANT_NULL_RTOL * max(1.0, norm)
    rounding = 2.0 * (c.shape[0] + c.shape[1] + 2) * 2.0**-53 * norm**2
    return (CERTIFICATE_MARGIN * cutoff) ** 2 + rounding


def _householder_tridiagonal(d: np.ndarray) -> np.ndarray:
    """Real symmetric tridiagonal T unitarily similar to the Hermitian ``d``.

    Step k takes the reflection H = 1 - 2 v v* that maps column k below the
    diagonal onto its first coordinate, and applies it to a copy of ``d``
    from the left (rows k+1:) and from the right (columns k+1:); Q, the
    product of the reflections, is never formed (Golub and Van Loan,
    Matrix Computations, 4th ed., 8.3.1). T keeps the real part of the
    diagonal and the moduli of the subdiagonal: the diagonal unitary that
    removes the subdiagonal's phases is one more similarity.
    """
    a = np.array(d, dtype=complex)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        # the sign that adds to |x_0| and never cancels it
        v[0] += norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
        v /= np.linalg.norm(v)
        a[k + 1 :, k:] -= 2.0 * np.outer(v, np.conj(v) @ a[k + 1 :, k:])
        a[k:, k + 1 :] -= 2.0 * np.outer(a[k:, k + 1 :] @ v, np.conj(v))
    off = np.abs(np.diagonal(a, -1))
    return np.diag(np.real(np.diagonal(a))) + np.diag(off, -1) + np.diag(off, 1)


def _antisymmetric_block(t: np.ndarray) -> np.ndarray:
    """C, the block of the commutator map K of ``t`` (B -> Bt - tB) from
    symmetric to antisymmetric matrices, on orthonormal bases, without K.

    Rows are (E_ij - E_ji)/sqrt(2) for i < j, columns E_kk and
    (E_kl + E_lk)/sqrt(2) for k < l, both in ``np.triu_indices`` order.
    K's row (i, j) has entry (k, l) delta_ik t[l, j] - t[i, k] delta_jl, so
    only the d(d-1)/2 rows i < j are formed: column j of ``t`` is assigned
    to row i of a zeroed (d, d) slice, and row i of ``t`` subtracted from
    its column j. For a symmetric ``t``, K anticommutes with the swap,
    K[(j, i), (l, k)] = -K[(i, j), (k, l)], so C is read from those rows
    alone: entry (ij, kl) is K[ij, kl] + K[ij, lk], and sqrt(2) K[ij, kk]
    on the diagonal columns. A ``t`` whose map does not anticommute with
    the swap is not projected onto one that does: its block is read all
    the same, and miscounts.
    """
    n = t.shape[0]
    i, j = np.triu_indices(n, 1)
    r = np.arange(len(i))
    rows = np.zeros((len(i), n, n), dtype=t.dtype)
    rows[r, i, :] = t.T[j]
    rows[r, :, j] -= t[i]
    p, q = np.triu_indices(n)
    return (rows[:, p, q] + rows[:, q, p]) * np.where(p == q, math.sqrt(0.5), 1.0)


def state_invariance_defect(sys: GibbsSystem, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|omega(sigma_t(A)) - omega(A)|, zero for the Gibbs state.

    omega(X) = Tr(D X) is taken as sum_jk X_jk D_kj, for sigma_t(A) and for
    A alike. An array over the times, or for a (k, d, d) stack over the
    probes, then the times.
    """
    d = sys.density.matrix
    a = as_operators(a, sys.dim)
    initial = _trace_of_products(a[..., None, :, :], d)
    return np.abs(_trace_of_products(heisenberg_evolve(sys, a, t), d) - initial)


def kms_boundary_defect(
    sys: GibbsSystem, a: np.ndarray, b: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """|F(t + i beta) - omega(sigma_t(B) A)|, the KMS condition residual.

    The left side is the eigenbasis sum of :func:`kms_function`; the right
    side forms sigma_t(B) as a matrix and takes Tr(D sigma_t(B) A) in the
    standard basis, as sum_jk sigma_t(B)_jk (A D)_kj. An array over the
    times, or for (k, d, d) stacks over the probes, then the times.
    """
    a = as_operators(a, sys.dim)
    t = _times(t, float)
    lhs = kms_function(sys, a, b, t + 1j * sys.beta)
    rhs = _trace_of_products(heisenberg_evolve(sys, b, t), a @ sys.density.matrix)
    return np.abs(lhs - rhs)


def _times(t, dtype) -> np.ndarray:
    """``t`` as a 1-D array of ``dtype``: ShapeMismatch for any other shape,
    DomainError for an entry numpy cannot convert to a number, a non-finite
    one, or one with a non-zero imaginary part where ``dtype`` is float."""
    try:
        z = np.asarray(t, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"times must be numbers: {exc}") from exc
    if z.ndim != 1:
        raise ShapeMismatch(f"times must form a 1-D array, got shape {z.shape}")
    finite = np.isfinite(z)
    if not np.all(finite):
        raise DomainError(f"times must be numbers: {z[~finite][0]} is not finite")
    if dtype is float and np.any(z.imag != 0):
        raise DomainError(f"physical time {z[z.imag != 0][0]} is not real")
    return z.real if dtype is float else z


def _trace_of_products(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Tr(X M) = sum_jk X_jk M_kj for each time of ``x``, shape (..., times, d, d),
    against ``m``, shape (..., d, d): an array of shape (..., times).

    One elementwise product broadcast over every probe and time, then
    per-row sums and their sum; each (d, d) slice is reduced as it would
    be alone, so a stack gives the per-probe and per-time bits.
    """
    return (x * np.swapaxes(m, -2, -1)[..., None, :, :]).sum(axis=-1).sum(axis=-1)
