import numpy as np
import pytest

from modkit.sampling import complex_gaussian, complex_gaussian_stack


def _expression(x, y):
    """The draws' first definition: the complex array divided by sqrt(2)."""
    return (x + 1j * y) / np.sqrt(2.0)


def _same_bits(got, expected):
    return got.dtype == complex and np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("d", [2, 3, 16])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_draws_keep_the_bits_of_the_complex_expression(d, seed):
    for cols in (None, d + 1):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        shape = (d, d if cols is None else cols)
        expected = _expression(ref.standard_normal(shape), ref.standard_normal(shape))
        assert _same_bits(complex_gaussian(rng, d, cols), expected)
    for count in (1, 5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        z = ref.standard_normal((count, 2, d, d))
        assert _same_bits(complex_gaussian_stack(rng, count, d), _expression(z[:, 0], z[:, 1]))
