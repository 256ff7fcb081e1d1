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
with tau one of X, conj(X), X^T, X*, holds two d x d factors (an identity
factor given as None is stored as the identity matrix), applies and
composes by reshape and forms the d^2 x d^2 matrix only on demand; its
dense form holds operators assembled entry by entry. By the first
identity above, the factored form with tau(X) = X is the Kronecker
product A (x) B, and P vec(X) = vec(X^T) for the swap P gives the
transposed forms; :func:`swap_operator` is P.
Composition has three rules (factored o factored, factored o dense,
dense on the left), listed on :class:`SuperOperator`.

Workspace: a d^2 x d^2 array that never leaves the call computing it (the
difference inside :meth:`SuperOperator.distance`; a conjugated operand or
an intermediate product inside :meth:`SuperOperator.compose`, which needs
one of them at a time) is written into a private buffer of the calling
thread, one per method and per d, so a warm call maps no fresh pages.
Every array a call returns or caches (a product,
:attr:`SuperOperator.matrix`, an assembly) is freshly allocated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .linalg import as_matrix, hs_norm


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
        return hs_norm(self.amplitudes)

    def inner(self, other: "BipartiteVector") -> complex:
        """<self, other>, conjugate-linear in self; summed, like
        :func:`hs_norm`, by numpy's einsum loop rather than BLAS."""
        self._require_same_dims(other)
        return complex(np.einsum("i,i->", np.conj(self.amplitudes), other.amplitudes))

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
    ``transpose`` the transposition). ``factors`` is always two (d, d)
    arrays: a factor given as None is stored as the identity matrix, so
    nothing past the constructor tests for None. As a matrix this is
    (A (x) B) P^transpose acting on conj^antilinear(v), with P the swap;
    :attr:`matrix` forms it on demand.

    Dense form: the d^2 x d^2 ``matrix``; ``antilinear`` operators apply as
    ``v -> matrix @ conj(v)``. Composing through an antilinear factor
    conjugates everything to its right, which the composition rule tracks
    so that e.g. J Delta^(1/2) stays a plain matrix identity.

    Composition has three rules: factored o factored multiplies the
    factors at O(d^3); factored o dense applies the factors to the dense
    matrix's columns by reshape, two GEMMs of inner dimension d at O(d^5);
    dense o anything multiplies the d^2 x d^2 matrices at O(d^6), forming a
    factored right operand's matrix first. The difference inside
    :meth:`distance` and, inside :meth:`compose`, the conjugated right
    operand of a dense o anything product or the factored o dense
    intermediate live in this thread's workspace; every product is a
    fresh array.
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
            f = np.eye(d, dtype=complex) if f is None else as_matrix(f)
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
        """vec(X) -> vec(left tau(X) right^T); a None factor is stored as
        the identity matrix."""
        return cls(d, None, antilinear, (left, right), transpose)

    @property
    def is_factored(self) -> bool:
        return self.factors is not None

    @property
    def matrix(self) -> np.ndarray:
        """The dense d^2 x d^2 matrix, formed on first use for factored forms."""
        if self._matrix is None:
            n = self.d * self.d
            self._matrix = self._write_matrix(np.empty((n, n), dtype=complex))
        return self._matrix

    def _write_matrix(self, out: np.ndarray) -> np.ndarray:
        """Write the factored form's matrix into the d^2 x d^2 ``out``."""
        d = self.d
        a, b = self.factors
        # one product in the final index order (i, k, j, l)
        m = out.reshape(d, d, d, d)
        if self.transpose:  # (A (x) B) P: entry ((i, k), (j, l)) is A_il B_kj
            np.multiply(a[:, None, None, :], b[None, :, :, None], out=m)
        else:  # A (x) B: entry ((i, k), (j, l)) is A_ij B_kl
            np.multiply(a[:, None, :, None], b[None, :, None, :], out=m)
        return out

    def _apply_factors(self, n: np.ndarray) -> np.ndarray:
        """The matrix of self o (a dense operator with matrix ``n``).

        That is (A (x) B) P^transpose conj^antilinear(n), column by column:
        column c of n is vec(X_c), and its image is vec(A tau(X_c) B^T). With
        rows (i, k) and the column c as the axes of a (d, d, d^2) array, a
        factor contracts the leading axis in one GEMM of inner dimension d:
        B on k, then A on i, each after a copy that brings its index to the
        front. The copies go to the workspace and the first GEMM's result to
        the fresh output, which the second GEMM overwrites. An antilinear
        self conjugates its d x d factors, and then the output in place,
        instead of n.
        """
        d = self.d
        left, right = self.factors
        if self.antilinear:  # (A (x) B) P conj(n) = conj((conj A (x) conj B) P n)
            left, right = np.conj(left), np.conj(right)
        out = np.empty((d * d, d * d), dtype=complex)
        image = out.reshape(d, d, d * d)
        flat = out.reshape(d, d**3)
        work = _workspace("compose", d).reshape(d, d, d * d)
        rows = n.reshape(d, d, d * d)  # entry (i, k, c) is X_c[i, k]
        # by_k[k, i, c] = tau(X_c)[i, k], so the transposition needs no copy
        if self.transpose:
            by_k = rows
        else:
            by_k = work
            np.copyto(by_k, rows.transpose(1, 0, 2))
        np.matmul(right, by_k.reshape(d, d**3), out=flat)  # (b, i, c)
        np.copyto(work, image.transpose(1, 0, 2))  # (i, b, c)
        np.matmul(left, work.reshape(d, d**3), out=flat)  # (a, b, c)
        if self.antilinear:
            np.conj(out, out=out)
        return out

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
        return BipartiteVector(self.d, self.d, (left @ x @ right.T).ravel())

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
                inner = tuple(np.conj(f) for f in inner)
            left, right = (a @ b for a, b in zip(self.factors, inner))
            return SuperOperator.factored(
                self.d, left, right, self.transpose ^ other.transpose, antilinear
            )
        if self.is_factored:
            return SuperOperator(self.d, self._apply_factors(other.matrix), antilinear)
        rhs = other.matrix
        if self.antilinear:
            rhs = np.conj(rhs, out=_workspace("compose", self.d))
        return SuperOperator(self.d, self.matrix @ rhs, antilinear)

    def adjoint(self) -> "SuperOperator":
        """Adjoint; for antilinear F this is the F* with <F*u, v> = <Fv, u>."""
        if not self.is_factored:
            m = self.matrix.T if self.antilinear else np.conj(self.matrix).T
            return SuperOperator(self.d, m, self.antilinear)
        # ((A (x) B) P)^T = (B^T (x) A^T) P: a transposition swaps the factors
        flip = (lambda f: f.T) if self.antilinear else (lambda f: np.conj(f).T)
        factors = self.factors[::-1] if self.transpose else self.factors
        left, right = (flip(f) for f in factors)
        return SuperOperator.factored(
            self.d, left, right, self.transpose, self.antilinear
        )

    def distance(self, other: "SuperOperator") -> float:
        """HS distance between matrices; infinite if linearity types differ.

        The difference is formed in the workspace: a side whose matrix is
        not formed yet (self's first) is written there by the writer of
        :attr:`matrix`, and the other side subtracted in place. x - y is
        -(y - x) exactly and :func:`hs_norm` is even, so either order gives
        ``hs_norm(self.matrix - other.matrix)`` bit for bit.
        """
        if self.d != other.d:
            raise ShapeMismatch(f"dimensions {self.d} != {other.d}")
        if self.antilinear != other.antilinear:
            return float("inf")
        diff = _workspace("distance", self.d)
        first, second = (self, other) if self._matrix is None else (other, self)
        written = first._write_matrix(diff) if first._matrix is None else first._matrix
        return hs_norm(np.subtract(written, second.matrix, out=diff))


class _Workspace(threading.local):
    """This thread's d^2 x d^2 complex buffers, keyed by (method, d)."""

    def __init__(self):
        self.buffers: dict[tuple[str, int], np.ndarray] = {}


_WORKSPACE = _Workspace()


def _workspace(method: str, d: int) -> np.ndarray:
    """The calling thread's buffer for ``method`` at dimension d.

    Its contents are valid only inside the call that filled it: nothing
    written there is returned or kept, and no call holding it makes
    another call that takes it. One buffer per method, not one shared
    buffer per thread and d, is load-bearing: the resident buffers keep
    the allocator serving each op's fresh 1 MiB products from memory it
    already holds. Sharing one buffer gave the same bits but raised a warm
    campaign-d16 op from about 0.3 to 513 minor page faults (2 BLAS threads).

    That holds only for a buffer on the heap. glibc gives a block above
    its mmap threshold (128 KiB at start) a mapping of its own, and raises
    the threshold to a mapped block's size when that block is freed. A
    mapped buffer holds no heap pages, so the heap shrinks after each op
    and faults its pages back in on the next. A block of the buffer's size
    is therefore allocated and freed first. Without it a warm statepair-d16
    ``modular --verify`` read about 720 minor faults per op, with it about 1.
    """
    buffers = _WORKSPACE.buffers
    key = (method, d)
    if key not in buffers:
        np.empty((d * d, d * d), dtype=complex)  # freed at once; see above
        buffers[key] = np.empty((d * d, d * d), dtype=complex)
    return buffers[key]


def swap_operator(d: int) -> SuperOperator:
    """P(x (x) y) = y (x) x, P vec(X) = vec(X^T): identity factors, tau(X) = X^T."""
    return SuperOperator.factored(d, None, None, transpose=True)


def conjugate_vec(v: BipartiteVector) -> BipartiteVector:
    """Entrywise complex conjugation in the standard basis (K; K^2 = 1)."""
    return BipartiteVector(*v.dims, np.conj(v.amplitudes))
