"""Spectral calculus, norms, and decompositions for Hermitian/PSD matrices.

Conventions used throughout the package:

* matrices are dense ``numpy`` arrays of ``complex128``,
* :func:`hs_norm` is the one reduction behind every reported
  Hilbert-Schmidt norm and sum of squared moduli. It does not call BLAS:
  ``np.linalg.norm`` and ``np.vdot`` sum with BLAS ``ddot``/``zdotc``,
  whose summation order follows the BLAS thread count on long vectors, so
  a report's bytes would depend on it,
* eigenvalues are returned in ascending order (``numpy.linalg.eigh`` order),
  which makes decompositions reproducible run to run,
* Hermiticity is tested with the scale-free criterion
  ``||A - A*||_HS <= HERMITICITY_RTOL * max(1, ||A||_HS)``, which a matrix
  holding NaN or inf never meets,
* one PSD floor, ``-PSD_TOL * max(1, lambda_max)`` (:func:`psd_floor`),
  decides "PSD up to rounding" everywhere: :func:`check_psd`, the
  ``PositiveFunctional`` validator and :func:`psd_power_values` share it,
  and the support cut at ``s = 0`` is its mirror image; neither it nor
  the Hermiticity test takes a tolerance from the caller,
* :class:`SpectralDecomposition` is the one spectral calculus: its
  ``power``, ``apply``, ``unitary`` and ``jordan`` (and, on a validated
  operand, ``PositiveFunctional.power``) are the only ways to form
  V f(lambda) V*; ``apply`` hands f the eigenvalues unclipped. Fractional
  powers use the principal branch and are defined on PSD spectra only; a
  spectrum below the floor is rejected instead of complexified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadExponent, DomainError, NotHermitian, NotSquare, ShapeMismatch

# Relative tolerance for Hermiticity and PSD checks; strict enough for
# d <= 16 in double precision while remaining scale-free.
HERMITICITY_RTOL = 1e-10
PSD_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm, the root of sum_i |a_i|^2.

    The sum is numpy's own einsum loop over the real view of the entries,
    in an order fixed by their number alone; a contiguous complex ``a`` is
    read in place. Every reported HS norm and sum of squared moduli comes
    from here, so x and -x give the same bits.
    """
    r = np.ravel(np.asarray(a, dtype=complex)).view(float)
    return math.sqrt(np.einsum("i,i->", r, r))


def hermiticity_defect(a: np.ndarray) -> float:
    """Relative deviation from Hermiticity, ||A - A*|| / max(1, ||A||).

    A NaN or infinite entry gives ``inf``, so no non-finite matrix passes
    as Hermitian: eigensolvers return arbitrary finite values for them.
    """
    if not np.isfinite(a).all():
        return math.inf
    return hs_norm(a - adjoint(a)) / max(1.0, hs_norm(a))


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (A + A*)/2.

    Raises
    ------
    NotHermitian
        If ``||A - A*||_HS > HERMITICITY_RTOL * max(1, ||A||_HS)``.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {m.shape}")
    if hermiticity_defect(m) > HERMITICITY_RTOL:
        raise NotHermitian(
            f"matrix is not Hermitian within rtol={HERMITICITY_RTOL:g} "
            f"(defect {hermiticity_defect(m):.3e})"
        )
    return 0.5 * (m + adjoint(m))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendata of a Hermitian matrix, and the one owner of f(A) = V f(lambda) V*.

    Attributes
    ----------
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Orthonormal eigenvectors as columns, aligned with ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def _synthesize(self, values: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        return (v * values) @ adjoint(v)

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """V f(lambda) V* for a scalar function applied to the eigenvalues.

        ``f`` sees the eigenvalues as they are; a caller whose ``f`` is
        defined on [0, inf) only clips the rounding noise of a PSD spectrum
        itself.
        """
        return self._synthesize(f(self.eigenvalues))

    def support(self) -> np.ndarray:
        """Mask of the eigenvalues above ``PSD_TOL * max(1, largest)``."""
        return _support(self.eigenvalues)

    def power(self, s: float) -> np.ndarray:
        """A^s; for s >= 0 on the spectrum of :func:`psd_power_values`.

        For ``s >= 0`` a spectrum below the PSD floor raises
        :class:`DomainError`, noise above it is clipped, and at ``s = 0``
        the support convention holds. ``s < 0`` needs a strictly positive
        spectrum but applies no floor, so a faithful state with a tiny
        eigenvalue keeps its inverse powers. A NaN or infinite ``s`` raises
        :class:`DomainError`.
        """
        if not math.isfinite(s):
            raise DomainError(f"power needs a finite s, got {s}")
        if s < 0:
            self._require_positive("negative power")
            # exp(s log lambda) as a complex power: the modular cross-route
            # margins sit at rounding level and are pinned to this arithmetic
            return self._synthesize(self.eigenvalues.astype(complex) ** s)
        return self._synthesize(psd_power_values(self.eigenvalues, s))

    def unitary(self, t: float) -> np.ndarray:
        """A^(it) = exp(it log A); needs a finite t and a strictly positive
        spectrum."""
        if not math.isfinite(t):
            raise DomainError(f"imaginary power needs a finite t, got {t}")
        self._require_positive("imaginary power")
        return self._synthesize(np.exp(1j * t * np.log(self.eigenvalues)))

    def jordan(self) -> tuple[np.ndarray, np.ndarray]:
        """Positive and negative parts (A_plus, A_minus), A = A_plus - A_minus."""
        plus = np.maximum(self.eigenvalues, 0.0)
        minus = np.maximum(-self.eigenvalues, 0.0)
        return self._synthesize(plus), self._synthesize(minus)

    def _require_positive(self, what: str) -> None:
        if self.eigenvalues.size and not self.eigenvalues[0] > 0:
            raise DomainError(
                f"{what} needs a strictly positive spectrum "
                f"(min eigenvalue {self.eigenvalues[0]:.3e})"
            )


def psd_floor(vals: np.ndarray) -> float:
    """The PSD floor ``-PSD_TOL * max(1, lambda_max)`` of a spectrum.

    Eigenvalues at or above it are PSD up to rounding. ``vals`` may have
    any shape and order. A spectrum holding NaN or inf has floor NaN, which
    no eigenvalue is at or above, so callers test ``not min >= floor``; an
    empty one raises :class:`ShapeMismatch`.
    """
    if vals.size == 0:
        raise ShapeMismatch("an empty spectrum has no PSD floor")
    if not np.isfinite(vals).all():
        return math.nan
    return -PSD_TOL * max(1.0, float(np.max(vals)))


def _support(vals: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above the mirror image of the PSD floor."""
    return vals > -psd_floor(vals)


def spectral_decomposition(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues."""
    m = require_hermitian(a)
    vals, vecs = np.linalg.eigh(m)
    return SpectralDecomposition(vals, vecs)


def psd_power_values(vals: np.ndarray, s: float) -> np.ndarray:
    """lambda^s, s >= 0, of a PSD spectrum of any shape or order.

    The eigenvalues of :meth:`SpectralDecomposition.power` for s >= 0; a
    bare spectrum, e.g. the lambda_i / mu_j of a Kronecker product, takes
    them without its eigenvectors. A spectrum below the PSD floor raises
    :class:`DomainError`; noise above it is clipped to zero. At ``s = 0``
    the support convention holds (eigenvalues at or below
    ``PSD_TOL * max(1, lambda_max)`` map to 0, the rest to 1), the
    operator-monotone limit of ``t^s``. ``s < 0`` and a NaN or infinite
    ``s`` raise :class:`DomainError`: inverse powers are taken on faithful
    states only, through :meth:`SpectralDecomposition.power`. An empty
    spectrum raises :class:`ShapeMismatch`.
    """
    # written so that NaN fails too: nan >= 0 is False
    if not 0 <= s < math.inf:
        raise DomainError(
            f"psd_power_values takes a finite s >= 0, got {s}; inverse powers of a "
            f"faithful state come from SpectralDecomposition.power"
        )
    floor = psd_floor(vals)
    low = float(np.min(vals))
    if not low >= floor:
        raise DomainError(
            f"matrix is not PSD (min eigenvalue {low:.3e}); refusing "
            f"fractional power of negative spectrum"
        )
    if s == 0:
        return _support(vals).astype(float)
    return np.maximum(vals, 0.0) ** s


def schatten_norm(a: np.ndarray, p: float) -> float:
    """Schatten p-norm, (sum_i sigma_i^p)^(1/p) over singular values.

    ``p = 1`` is the trace norm, ``p = 2`` the Hilbert-Schmidt norm and
    ``p = inf`` the operator norm. Raises :class:`BadExponent` for p < 1
    and for a NaN p.
    """
    if not p >= 1:
        raise BadExponent(f"Schatten norm requires p >= 1, got {p}")
    sigma = np.linalg.svd(as_matrix(a), compute_uv=False)
    if np.isinf(p):
        return float(sigma[0]) if sigma.size else 0.0
    return float(np.sum(sigma**p) ** (1.0 / p))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ||A||_1."""
    return schatten_norm(a, 1)


def check_psd(a: np.ndarray) -> bool:
    """True iff A is Hermitian within ``HERMITICITY_RTOL`` and its spectrum
    is at or above :func:`psd_floor`.

    Non-Hermitian input, NaN or inf included, returns False rather than
    raising; a non-square or empty matrix raises :class:`NotSquare`.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise NotSquare(f"expected a non-empty square matrix, got shape {m.shape}")
    if hermiticity_defect(m) > HERMITICITY_RTOL:
        return False
    vals = np.linalg.eigvalsh(0.5 * (m + adjoint(m)))
    return bool(vals[0] >= psd_floor(vals))
