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
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights mapped to [0, 1].

    The rule on [-1, 1] is symmetric, so only its ceil(n/2) nodes x_k in
    [0, 1) are solved.  Tricomi's expansion
    x_k ~ (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)) starts each node within
    1/1300 of the distance to its neighbour (the worst case is the end node,
    off by about 0.009/n^2), so Newton converges quadratically to its own root
    and three steps, with P_n and P_n' from the recurrence, reach rounding.
    For odd n the centre node starts at cos(pi/2) ~ 6e-17 and Newton sends it
    to the zero of the odd P_n, which maps to exactly 1/2.  The weights are
    2/((1-x^2) P_n'(x)^2), from one more recurrence at the final nodes.

    Weights sum to 1 up to rounding and are exactly symmetric.  Returned
    arrays are read-only and cached per node count.
    """
    _require_count(n, "node count")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    centre = n % 2
    nodes = 0.5 * (np.concatenate((-x, x[::-1][centre:])) + 1.0)
    weights = 0.5 * np.concatenate((w, w[::-1][centre:]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate_01(f, n: int = 64, split_at: float | None = None) -> float:
    """Integrate a vectorized callable over [0, 1].

    With ``split_at`` the interval is split there and each piece gets its own
    n-point rule; use this when the integrand has a kink (e.g. at s = t for
    kernels built from min(s, t)).
    """
    nodes, weights = gauss_legendre_01(n)
    if split_at is None:
        return float(np.dot(weights, f(nodes)))
    if not 0.0 <= split_at <= 1.0:
        raise ValueError(f"split point must lie in [0, 1], got {split_at}")
    total = 0.0
    for a, b in ((0.0, split_at), (split_at, 1.0)):
        width = b - a
        if width > 0.0:
            total += width * float(np.dot(weights, f(a + width * nodes)))
    return total
