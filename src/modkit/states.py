"""Normal states as density matrices: purification and norm estimates.

A state omega on the d x d matrix algebra is carried by its density matrix
D (PSD, trace one) via omega(M) = Tr(D M). The canonical purification is
Omega = vec(sqrt(D)), whose right partial trace recovers D; that gauge also
places Omega in the natural positive cone. ``PositiveFunctional`` relaxes
the trace constraint for positive linear functionals.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NotHermitian, NotPSD, ShapeMismatch
from .linalg import (
    SpectralDecomposition,
    as_matrix,
    psd_floor,
    spectral_decomposition,
    trace_norm,
)
from .vecops import BipartiteVector, vec

FAITHFUL_RTOL = 1e-12
TRACE_TOL = 1e-10


class PositiveFunctional:
    """Positive linear functional, carried by a PSD matrix of free trace.

    The spectral decomposition is computed eagerly and cached; eigenvalues
    in [psd_floor, 0) are rounding noise and enter cached derived
    quantities clipped at zero. ``matrix`` is a read-only copy of the
    input, so a later write to the caller's array cannot desynchronise it
    from the spectrum. A matrix that is not Hermitian, holds NaN or inf, or
    has an eigenvalue below :func:`linalg.psd_floor` raises NotPSD; one that
    is not square, or is empty, raises ShapeMismatch.
    """

    def __init__(self, matrix):
        m = as_matrix(matrix).copy()
        m.flags.writeable = False
        if m.shape[0] != m.shape[1] or m.size == 0:
            raise ShapeMismatch(f"expected a non-empty square matrix, got {m.shape}")
        try:
            spectrum = spectral_decomposition(m)
        except NotHermitian as exc:
            raise NotPSD(str(exc)) from exc
        floor = psd_floor(spectrum.eigenvalues)
        if not spectrum.eigenvalues[0] >= floor:
            raise NotPSD(
                f"min eigenvalue {spectrum.eigenvalues[0]:.3e} not at or above "
                f"tolerance floor {floor:.3e}"
            )
        self.matrix = m
        self.spectrum: SpectralDecomposition = spectrum

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def total(self) -> float:
        """phi(1) = Tr(D)."""
        return float(np.real(np.trace(self.matrix)))

    def power(self, s: float) -> np.ndarray:
        """D^s via the cached spectrum; s = 0 gives the support projection.

        Requires s >= 0; inverse powers are reserved for faithful states and
        taken explicitly, after a faithfulness check, as
        ``self.spectrum.power(s)``.
        """
        if s < 0:
            raise DomainError("negative powers require an explicit faithfulness check")
        return self.spectrum.power(s)

    def sqrt(self) -> np.ndarray:
        return self.power(0.5)

    def min_eigenvalue(self) -> float:
        return float(self.spectrum.eigenvalues[0])

    def max_eigenvalue(self) -> float:
        return float(self.spectrum.eigenvalues[-1])

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, total={self.total():.6g})"


class DensityMatrix(PositiveFunctional):
    """PSD trace-one matrix with cached spectral decomposition."""

    def __init__(self, matrix):
        super().__init__(matrix)
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix trace {tr:.12g} != 1")


def is_faithful(d: PositiveFunctional) -> bool:
    """True iff the smallest eigenvalue exceeds FAITHFUL_RTOL * largest.

    The threshold 1e-12 keeps D^(-1/2) computable in double precision.
    """
    return d.min_eigenvalue() > FAITHFUL_RTOL * d.max_eigenvalue()


def purify(d: DensityMatrix) -> BipartiteVector:
    """Canonical purification vec(sqrt(D)); unit norm, right trace gives D."""
    return vec(d.sqrt())


def functional_distance(phi1: PositiveFunctional, phi2: PositiveFunctional) -> float:
    """Norm distance ||phi1 - phi2|| = ||D1 - D2||_1."""
    if phi1.dim != phi2.dim:
        raise ShapeMismatch(f"dimensions {phi1.dim} != {phi2.dim}")
    return trace_norm(phi1.matrix - phi2.matrix)
