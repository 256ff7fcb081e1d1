"""Seeded random matrix generators for verification campaigns.

All functions take an explicit ``numpy.random.Generator`` so that campaigns
are reproducible: the same seed and draw order produce bit-identical
instances. PSD matrices are Gram constructions G G* normalized by trace;
faithful densities add a small multiple of the identity before
normalization to keep condition numbers bounded.
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, PositiveFunctional

FAITHFUL_RIDGE = 1e-3


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int | None = None):
    """Standard complex normal entries (unit variance overall)."""
    if cols is None:
        cols = rows
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def complex_gaussian_stack(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` draws of ``complex_gaussian(rng, d)``, stacked (count, d, d).

    One ``standard_normal`` call fills, per matrix, its real and then its
    imaginary part, in the order the one-at-a-time draws consume the
    stream, and the same arithmetic combines them: the same bits.
    """
    z = rng.standard_normal((count, 2, d, d))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = complex_gaussian(rng, d)
    return 0.5 * (g + np.conj(g).T)


def random_psd(rng: np.random.Generator, d: int, trace_one: bool = True) -> np.ndarray:
    g = complex_gaussian(rng, d)
    w = g @ np.conj(g).T
    if trace_one:
        w = w / np.real(np.trace(w))
    return w


def random_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    return DensityMatrix(random_psd(rng, d, trace_one=True))


def random_faithful_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    g = complex_gaussian(rng, d)
    w = g @ np.conj(g).T + FAITHFUL_RIDGE * np.eye(d)
    return DensityMatrix(w / np.real(np.trace(w)))


def random_positive_functional(
    rng: np.random.Generator, d: int, faithful: bool = False
) -> PositiveFunctional:
    """Trace-unconstrained positive functional with O(1) scale."""
    g = complex_gaussian(rng, d)
    w = g @ np.conj(g).T / d
    if faithful:
        w = w + FAITHFUL_RIDGE * np.eye(d)
    return PositiveFunctional(w)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    q, r = np.linalg.qr(complex_gaussian(rng, d))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_rank_deficient(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """d x d matrix of the given rank < d (almost surely exactly that rank)."""
    if not 1 <= rank < d:
        raise ValueError(f"rank must be in [1, d), got {rank} for d={d}")
    return complex_gaussian(rng, d, rank) @ complex_gaussian(rng, rank, d)


def random_degenerate_density(
    rng: np.random.Generator, d: int
) -> tuple[DensityMatrix, list[int]]:
    """Faithful density with a randomly blocked (possibly degenerate) spectrum.

    Returns the density and the block multiplicities; distinct block values
    are separated by at least 0.05 before normalization, while within-block
    eigenvalues are exactly equal, so eigenvalue grouping is unambiguous.
    """
    blocks: list[int] = []
    left = d
    while left > 0:
        m = int(rng.integers(1, left + 1))
        blocks.append(m)
        left -= m
    k = len(blocks)
    # well-separated positive levels: base grid plus a small jitter
    levels = np.arange(1, k + 1) * 0.1 + rng.uniform(0.0, 0.04, size=k)
    rng.shuffle(levels)
    probs = np.concatenate([np.full(m, lv) for m, lv in zip(blocks, levels)])
    probs = probs / probs.sum()
    u = random_unitary(rng, d)
    return DensityMatrix(u @ np.diag(probs) @ np.conj(u).T), blocks
