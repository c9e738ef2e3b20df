"""Covariance kernels of four zero-mean Gaussian processes on [0, 1].

The four kinds are the Wiener process, its demeaned and detrended variants
(residuals after projecting out a constant, or a constant plus linear trend),
and the Brownian bridge.  Every kernel is min(s, t) plus a cubic correction
phi(s)^T C phi(t) over the monomials phi(x) = (1, x, x^2, x^3), with one
symmetric coefficient table C per kind, and all are positive semidefinite on
any grid.  The same table serves the Gram matrix and the matrix-free product
K u that the Nystrom subspace iteration uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class KernelKind(Enum):
    WIENER = "wiener"
    DEMEANED = "demeaned"
    DETRENDED = "detrended"
    BRIDGE = "bridge"

    @classmethod
    def parse(cls, name: str) -> "KernelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel kind {name!r}; expected one of: {valid}") from None


def _symmetric(*entries: tuple[int, int, float]) -> np.ndarray:
    """Read-only symmetric 4x4 matrix from its upper-triangle (row, col, value)."""
    c = np.zeros((4, 4))
    for a, b, value in entries:
        c[a, b] = c[b, a] = value
    c.setflags(write=False)
    return c


#: k(s, t) = min(s, t) + phi(s)^T C phi(t) with phi(x) = (1, x, x^2, x^3).
_COEFFICIENTS = {
    KernelKind.WIENER: _symmetric(),
    KernelKind.BRIDGE: _symmetric((1, 1, -1.0)),
    KernelKind.DEMEANED: _symmetric((0, 0, 1.0 / 3.0), (0, 1, -1.0), (0, 2, 0.5)),
    KernelKind.DETRENDED: _symmetric(
        (0, 0, 2.0 / 15.0),
        (0, 1, -1.1),
        (0, 2, 2.0),
        (0, 3, -1.0),
        (1, 1, 1.2),
        (1, 2, -3.0),
        (1, 3, 2.0),
    ),
}


def _kernel_array(kind: KernelKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form kernel on the 1-D grid product x * y.  No range checks."""
    powers_x = np.vander(x, 4, increasing=True)
    powers_y = np.vander(y, 4, increasing=True)
    return np.minimum.outer(x, y) + powers_x @ _COEFFICIENTS[kind] @ powers_y.T


def _kernel_apply(kind: KernelKind, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """K u for the kernel K on the increasing grid x and an n x p block u.

    O(n) per column, without forming K: on increasing x,
    sum_j min(x_i, x_j) u_j = sum_{j <= i} x_j u_j + x_i sum_{j > i} u_j, and
    the cubic correction is the rank-4 product phi C (phi^T u).  No checks.
    """
    xs = x[:, None]
    head = np.cumsum(xs * u, axis=0)
    tail = u.sum(axis=0) - np.cumsum(u, axis=0)
    powers = np.vander(x, 4, increasing=True)
    return head + xs * tail + powers @ (_COEFFICIENTS[kind] @ (powers.T @ u))


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if math.isnan(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def kernel_value(kind: KernelKind, s: float, t: float) -> float:
    """Evaluate the kernel at a single point pair.

    Arguments are canonically ordered before evaluation, so
    kernel_value(kind, s, t) == kernel_value(kind, t, s) bit for bit.
    """
    s = _check_unit(s, "s")
    t = _check_unit(t, "t")
    if s > t:
        s, t = t, s
    return float(_kernel_array(kind, np.array([s]), np.array([t]))[0, 0])


def kernel_matrix(kind: KernelKind, x, y) -> np.ndarray:
    """Kernel evaluated on the grid product x * y, shape (len(x), len(y))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for arr, name in ((x, "x"), (y, "y")):
        if arr.size and (np.isnan(arr).any() or arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError(f"{name} values must lie in [0, 1]")
    return _kernel_array(kind, x, y)


@dataclass(frozen=True)
class GramMatrix:
    """Read-only symmetric matrix of the kernel at each pair of points given to ``gram``."""

    entries: np.ndarray


def _validated_grid(grid) -> np.ndarray:
    """A float copy of grid, so freezing it leaves the caller's array writeable."""
    g = np.array(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a non-empty 1-D sequence")
    if np.isnan(g).any() or g[0] < 0.0 or g[-1] > 1.0:
        raise ValueError("grid values must lie in [0, 1]")
    if not (np.diff(g) > 0.0).all():
        raise ValueError("grid must be strictly increasing")
    return g


def gram(kind: KernelKind, grid) -> GramMatrix:
    """Build the Gram matrix of the kernel on a strictly increasing grid.

    The upper triangle is computed and mirrored, so the result is symmetric
    exactly, not merely to rounding.
    """
    g = _validated_grid(grid)
    full = _kernel_array(kind, g, g)
    entries = np.triu(full)
    entries += np.triu(full, k=1).T
    entries.setflags(write=False)
    return GramMatrix(entries=entries)
