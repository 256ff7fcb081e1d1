"""Schmidt decomposition through the vec correspondence.

A bipartite vector u determines a matrix M = unvec(u); the singular value
decomposition M = sum_i s_i |y_i><x_i| turns into

    u = sum_i s_i  y_i (x) z_i,     z_i = conj(x_i),

so Schmidt coefficients are singular values and the Schmidt rank is the
matrix rank of unvec(u). Full rank d on a square bipartition is exactly the
cyclic-and-separating condition for the left-multiplication algebra; it is
decided by the one faithfulness threshold of :func:`states.is_faithful` on
the reduced state Tr_2 |u><u|, not by ``rank_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroVector
from .states import PositiveFunctional, is_faithful
from .vecops import BipartiteVector, partial_trace, unvec, vec

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt coefficients and vectors of a bipartite vector.

    ``coefficients`` are strictly positive, descending. ``left_vectors`` and
    ``right_vectors`` hold orthonormal columns; column i of each pairs with
    ``coefficients[i]``. Reconstruction: sum_i s_i left_i (x) right_i.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int

    def reconstruct(self) -> BipartiteVector:
        """vec(L diag(s) R^T) = sum_i s_i left_i (x) right_i, one product."""
        r = self.rank
        left = self.left_vectors[:, :r] * self.coefficients[:r]
        return vec(left @ self.right_vectors[:, :r].T)


def schmidt_decompose(u: BipartiteVector, rank_tol: float = RANK_RTOL) -> SchmidtData:
    """Schmidt decomposition of u; singular values below rank_tol * s_max drop.

    The right vectors are the conjugated right-singular vectors of unvec(u),
    so that u = sum_i s_i left_i (x) right_i holds in the standard basis.
    """
    if u.norm() == 0.0:
        raise ZeroVector("cannot Schmidt-decompose the zero vector")
    m = unvec(u)
    left, sigma, vh = np.linalg.svd(m)
    keep = sigma > rank_tol * sigma[0]
    r = int(np.count_nonzero(keep))
    # rows of vh are <x_i|; z_i = conj(x_i) is then vh[i] itself
    return SchmidtData(
        coefficients=sigma[:r].copy(),
        left_vectors=left[:, :r].copy(),
        right_vectors=vh[:r].T.copy(),
        rank=r,
    )


def is_cyclic_separating(u: BipartiteVector) -> bool:
    """True iff u is cyclic and separating: its reduced state Tr_2 |u><u| is faithful.

    The eigenvalues of Tr_2 |u><u| are the squared Schmidt coefficients, so
    this is full Schmidt rank d at the threshold ``is_faithful`` applies.
    """
    if u.dim_left != u.dim_right:
        raise DimensionMismatch(
            f"cyclic/separating needs equal factors, got {u.dims}"
        )
    if u.norm() == 0.0:
        raise ZeroVector("the zero vector is neither cyclic nor separating")
    return is_faithful(PositiveFunctional(partial_trace(u)))
