"""Operator-vector correspondence and the swap/conjugation operators.

Convention (load-bearing, do not change): ``vec`` stacks ROWS, i.e.
``vec(E_mu_nu) = e_mu (x) e_nu``, which for ndarrays is plain C-order
``ravel``. With this choice

    (A (x) B) vec(X)        = vec(A X B^T)
    Tr_right |vec A><vec A| = A A*
    vec(|u><v|)             = u (x) conj(v)

The common column-stacking convention would flip the first identity to the
``B^T X A`` form and transpose every downstream Kronecker formula (e.g. the
relative modular operator D_phi (x) (D_omega^-1)^T), so all modules in this
package assume row-major stacking.

A matrix ``A`` of shape (dY, dX) maps to a vector in the bipartite space of
dimension dY * dX with the left factor of dimension dY.

:class:`SuperOperator` is the one representation of operators on the
square space H_d (x) H_d. Its factored form ``vec(X) -> vec(A tau(X) B^T)``,
with tau one of X, conj(X), X^T, X*, applies and composes by reshape and
forms the d^2 x d^2 matrix only on demand; its dense form holds operators
assembled entry by entry. By the first identity above, the factored form
with tau(X) = X is the Kronecker product A (x) B, and P vec(X) = vec(X^T)
for the swap P gives the transposed forms; :func:`swap_operator` is P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .linalg import as_matrix


@dataclass(frozen=True)
class BipartiteVector:
    """Element of a bipartite space H_left (x) H_right.

    Component (mu, nu) sits at flat index ``mu * dim_right + nu``.
    """

    dim_left: int
    dim_right: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        # an own copy: a caller's later writes must not reach the vector
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if self.dim_left < 1 or self.dim_right < 1:
            raise DimensionMismatch(
                f"factor dimensions must be positive, got "
                f"({self.dim_left}, {self.dim_right})"
            )
        if amps.size != self.dim_left * self.dim_right:
            raise ShapeMismatch(
                f"amplitude length {amps.size} != "
                f"{self.dim_left} * {self.dim_right}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_left, self.dim_right)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "BipartiteVector") -> complex:
        """<self, other>, conjugate-linear in self."""
        self._require_same_dims(other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def _require_same_dims(self, other: "BipartiteVector") -> None:
        if self.dims != other.dims:
            raise ShapeMismatch(f"dims {self.dims} != {other.dims}")

    def __add__(self, other: "BipartiteVector") -> "BipartiteVector":
        self._require_same_dims(other)
        return BipartiteVector(*self.dims, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "BipartiteVector") -> "BipartiteVector":
        self._require_same_dims(other)
        return BipartiteVector(*self.dims, self.amplitudes - other.amplitudes)

    def __neg__(self) -> "BipartiteVector":
        return BipartiteVector(*self.dims, -self.amplitudes)

    def __mul__(self, scalar) -> "BipartiteVector":
        return BipartiteVector(*self.dims, self.amplitudes * scalar)

    __rmul__ = __mul__


def vec(a: np.ndarray) -> BipartiteVector:
    """Row-major stacking of a (dY, dX) matrix into H_dY (x) H_dX.

    Isometry: <vec A, vec B> = Tr(A* B).
    """
    m = as_matrix(a)
    return BipartiteVector(m.shape[0], m.shape[1], m.ravel())


def unvec(v: BipartiteVector) -> np.ndarray:
    """Inverse of :func:`vec`; exact round trip."""
    return v.amplitudes.reshape(v.dim_left, v.dim_right).copy()


def partial_trace(u: BipartiteVector) -> np.ndarray:
    """The reduced state Tr_2 |u><u| = A A* of A = unvec(u)."""
    a = unvec(u)
    return a @ np.conj(a).T


class SuperOperator:
    """Operator on the vec'd space H_d (x) H_d, in factored or dense form.

    Factored form: ``vec(X) -> vec(A tau(X) B^T)`` with ``tau(X)`` one of
    X, conj(X), X^T, X* (``antilinear`` selects the conjugation,
    ``transpose`` the transposition). A factor stored as None is the
    identity. As a matrix this is (A (x) B) P^transpose acting on
    conj^antilinear(v), with P the swap; :attr:`matrix` forms it on demand.

    Dense form: the d^2 x d^2 ``matrix``; ``antilinear`` operators apply as
    ``v -> matrix @ conj(v)``. Composing through an antilinear factor
    conjugates everything to its right, which the composition rule tracks
    so that e.g. J Delta^(1/2) stays a plain matrix identity.

    Composition has two rules: factored o factored multiplies the factors
    at O(d^3); any other pair multiplies the d^2 x d^2 matrices at O(d^6),
    forming a factored operand's matrix first.
    """

    def __init__(
        self,
        d: int,
        matrix: np.ndarray | None = None,
        antilinear: bool = False,
        factors: tuple[np.ndarray | None, np.ndarray | None] | None = None,
        transpose: bool = False,
    ):
        self.d = d
        self.antilinear = bool(antilinear)
        self.transpose = bool(transpose)
        if (matrix is None) == (factors is None):
            raise ValueError("give exactly one of a dense matrix and factors")
        if factors is None:
            m = as_matrix(matrix)
            n = d * d
            if m.shape != (n, n):
                raise ShapeMismatch(f"superoperator matrix {m.shape} != ({n}, {n})")
            if self.transpose:
                raise ValueError("a dense matrix already includes any transposition")
            self.factors = None
            self._matrix = m
            return
        checked = []
        for f in factors:
            if f is not None:
                f = as_matrix(f)
                if f.shape != (d, d):
                    raise ShapeMismatch(f"Kronecker factor {f.shape} != ({d}, {d})")
            checked.append(f)
        self.factors = tuple(checked)
        self._matrix = None

    @classmethod
    def factored(
        cls,
        d: int,
        left: np.ndarray | None,
        right: np.ndarray | None,
        transpose: bool = False,
        antilinear: bool = False,
    ) -> "SuperOperator":
        """vec(X) -> vec(left tau(X) right^T); None stands for the identity."""
        return cls(d, None, antilinear, (left, right), transpose)

    @property
    def is_factored(self) -> bool:
        return self.factors is not None

    @property
    def matrix(self) -> np.ndarray:
        """The dense d^2 x d^2 matrix, formed on first use for factored forms."""
        if self._matrix is None:
            d = self.d
            left, right = (np.eye(d) if f is None else f for f in self.factors)
            m = np.kron(left, right).astype(complex, copy=False)
            if self.transpose:  # m @ P permutes the columns
                n = d * d
                m = m.reshape(n, d, d).transpose(0, 2, 1).reshape(n, n)
            self._matrix = m
        return self._matrix

    def apply(self, v: BipartiteVector) -> BipartiteVector:
        if v.dims != (self.d, self.d):
            raise ShapeMismatch(f"vector dims {v.dims} != ({self.d}, {self.d})")
        arr = np.conj(v.amplitudes) if self.antilinear else v.amplitudes
        if not self.is_factored:
            return BipartiteVector(self.d, self.d, self.matrix @ arr)
        x = arr.reshape(self.d, self.d)
        if self.transpose:
            x = x.T
        left, right = self.factors
        if left is not None:
            x = left @ x
        if right is not None:
            x = x @ right.T
        return BipartiteVector(self.d, self.d, x.ravel())

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """self o other (other acts first)."""
        if self.d != other.d:
            raise ShapeMismatch(f"dimensions {self.d} != {other.d}")
        antilinear = self.antilinear ^ other.antilinear
        if self.is_factored and other.is_factored:
            # tau1(A2 Z B2^T) = A2' tau1(Z) B2'^T: a transposition swaps the
            # factors, a conjugation conjugates them
            inner = other.factors[::-1] if self.transpose else other.factors
            if self.antilinear:
                inner = tuple(_conj(f) for f in inner)
            left, right = (_mul(a, b) for a, b in zip(self.factors, inner))
            return SuperOperator.factored(
                self.d, left, right, self.transpose ^ other.transpose, antilinear
            )
        rhs = np.conj(other.matrix) if self.antilinear else other.matrix
        return SuperOperator(self.d, self.matrix @ rhs, antilinear)

    def adjoint(self) -> "SuperOperator":
        """Adjoint; for antilinear F this is the F* with <F*u, v> = <Fv, u>."""
        if not self.is_factored:
            m = self.matrix.T if self.antilinear else np.conj(self.matrix).T
            return SuperOperator(self.d, m, self.antilinear)
        # ((A (x) B) P)^T = (B^T (x) A^T) P: a transposition swaps the factors
        flip = (lambda f: f.T) if self.antilinear else (lambda f: np.conj(f).T)
        factors = self.factors[::-1] if self.transpose else self.factors
        left, right = (None if f is None else flip(f) for f in factors)
        return SuperOperator.factored(
            self.d, left, right, self.transpose, self.antilinear
        )

    def distance(self, other: "SuperOperator") -> float:
        """HS distance between matrices; infinite if linearity types differ."""
        if self.antilinear != other.antilinear:
            return float("inf")
        return float(np.linalg.norm(self.matrix - other.matrix))


def _conj(f: np.ndarray | None) -> np.ndarray | None:
    return None if f is None else np.conj(f)


def _mul(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Product of two Kronecker factors, None being the identity."""
    if a is None:
        return b
    if b is None:
        return a
    return a @ b


def swap_operator(d: int) -> SuperOperator:
    """P(x (x) y) = y (x) x, P vec(X) = vec(X^T): identity factors, tau(X) = X^T."""
    return SuperOperator.factored(d, None, None, transpose=True)


def conjugate_vec(v: BipartiteVector) -> BipartiteVector:
    """Entrywise complex conjugation in the standard basis (K; K^2 = 1)."""
    return BipartiteVector(*v.dims, np.conj(v.amplitudes))
