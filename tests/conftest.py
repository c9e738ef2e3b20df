"""Shared test helpers."""

import tracemalloc

import numpy as np
import pytest

from klx import series
from klx.quadrature import gauss_legendre_01


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args) -> (bytes allocated at the peak of the call, its result),
    as tracemalloc sees them; numpy reports its array buffers to tracemalloc."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def fill_blocks():
    """fill_blocks(count, fill) -> the first count terms of a series ``fill(block, first)``
    as an array, each block of ``series._BLOCK`` filled alone, last block first, as the
    level walker fills them."""
    def fill_all(count, fill):
        terms = np.empty(count)
        for first in reversed(range(0, count, series._BLOCK)):
            fill(terms[first:first + series._BLOCK], first)
        return terms

    return fill_all


@pytest.fixture
def integrate_split():
    """integrate_split(f, t, n=64) -> the integral of a vectorized f over [0, 1]: an
    n-point Gauss-Legendre rule on each side of the kink at t."""
    def integrate(f, t, n=64):
        nodes, weights = gauss_legendre_01(n)
        return sum((b - a) * float(np.dot(weights, f(a + (b - a) * nodes)))
                   for a, b in ((0.0, t), (t, 1.0)))

    return integrate
