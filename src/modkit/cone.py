"""The natural positive cone: vec images of the PSD matrices.

For the standard form of the matrix algebra the cone is exactly
``{vec(X) : X PSD}`` (closure is a no-op in finite dimensions), so
membership is a PSD test on the witness ``unvec(v)``. Cone elements are
plain :class:`BipartiteVector` values, each the vec of its own witness.
The cone is self-dual and pointed, every J-fixed vector splits into two
orthogonal cone elements through the Jordan decomposition of its witness,
and every vector splits into four.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotJFixed, NotPSD
from .linalg import (
    HERMITICITY_RTOL,
    adjoint,
    check_psd,
    hermiticity_defect,
    spectral_decomposition,
)
from .vecops import BipartiteVector, unvec, vec


def cone_element(x: np.ndarray) -> BipartiteVector:
    """vec(X) for a PSD witness X; raises :class:`NotPSD` otherwise."""
    x = np.asarray(x, dtype=complex)
    if not check_psd(x):
        raise NotPSD("witness is not PSD within tolerance")
    return vec(x)


def _witness(v: BipartiteVector) -> np.ndarray:
    """unvec(v); the cone lives on square bipartitions, so any other v
    raises :class:`DimensionMismatch`."""
    if v.dim_left != v.dim_right:
        raise DimensionMismatch(f"cone lives on square bipartitions, got {v.dims}")
    return unvec(v)


def cone_contains(v: BipartiteVector) -> bool:
    """True iff v = vec(X) for some X >= 0: :func:`linalg.check_psd` of
    unvec(v), at its fixed Hermiticity tolerance and PSD floor."""
    return check_psd(_witness(v))


def decompose_j_fixed(v: BipartiteVector) -> tuple[BipartiteVector, BipartiteVector]:
    """Split a J-fixed vector into orthogonal cone elements.

    J v = v means the witness T = unvec(v) is Hermitian; the Jordan parts
    T+, T- give v = vec(T+) - vec(T-) with <vec(T+), vec(T-)> =
    Tr(T+ T-) = 0.
    """
    t = _witness(v)
    if hermiticity_defect(t) > HERMITICITY_RTOL:
        raise NotJFixed(
            f"vector is not fixed by the modular conjugation "
            f"(witness Hermiticity defect {hermiticity_defect(t):.3e})"
        )
    plus, minus = spectral_decomposition(t).jordan()
    return vec(plus), vec(minus)


def decompose_general(v: BipartiteVector) -> tuple[BipartiteVector, ...]:
    """Four-cone-element split v = c1 - c2 + i c3 - i c4.

    The witness splits into Hermitian and anti-Hermitian parts, each of
    which Jordan-decomposes into PSD witnesses.
    """
    y = _witness(v)
    herm = 0.5 * (y + adjoint(y))
    skew = (y - adjoint(y)) / 2j
    h_plus, h_minus = spectral_decomposition(herm).jordan()
    k_plus, k_minus = spectral_decomposition(skew).jordan()
    return tuple(vec(x) for x in (h_plus, h_minus, k_plus, k_minus))


def cone_pairing(lhs: BipartiteVector, rhs: BipartiteVector) -> float:
    """<xi, eta> = Tr(X Y) >= 0 for cone elements; returned as a real number."""
    return float(np.real(lhs.inner(rhs)))
