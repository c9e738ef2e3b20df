"""Analytic eigenvalues and eigenfunctions of the four covariance kernels.

Eigenpairs solve f(t) = lambda * integral_0^1 k(s, t) f(s) ds (the eigenvalue
multiplies the integral, so the kernel operator itself has eigenvalues
1/lambda).  Closed forms:

* Wiener:     lambda_j = (j - 1/2)^2 pi^2,  f_j(t) = sqrt(2) sin((j - 1/2) pi t)
* demeaned:   lambda_j = j^2 pi^2,          f_j(t) = sqrt(2) cos(j pi t)
* bridge:     lambda_j = j^2 pi^2,          f_j(t) = sqrt(2) sin(j pi t)
* detrended:  odd j:  lambda_j = (j + 1)^2 pi^2, f_j(t) = sqrt(2) cos((j + 1) pi t)
              even j: lambda_j = 4 z_n^2 with n = j/2, where z_n is the n-th
              positive root of sin z - z cos z (equivalently of the Bessel
              function of order 3/2, or of tan z = z), and
              f_j(t) = (-1)^(n+1) sqrt(L_j) sin(2 z_n (t - 1/2)) with
              L_j = 2 / sin(z_n)^2.

Trigonometric arguments that are multiples of pi are reduced before calling
sin/cos, so values like f(0), f(1) and the even detrended f(1/2) come out as
exact zeros or exact +-sqrt(2).  That exactness is relied on elsewhere (path
simulation pins bridge endpoints to 0.0; Mercer sums at t = 1/2 drop even
detrended terms identically).
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KernelKind, _check_unit
from .series import _require_count

PI = math.pi
PI_SQUARED = math.pi**2
SQRT2 = math.sqrt(2.0)

_NEWTON_STEPS = 3


def _sinpi(x: np.ndarray) -> np.ndarray:
    """sin(pi * x) with exact reduction: exactly 0 at integers, +-1 at
    half-integers."""
    n = np.round(x)
    r = x - n
    s = np.sin(np.pi * r)
    return np.where(n % 2.0 == 0.0, s, -s)


def _cospi(x: np.ndarray) -> np.ndarray:
    """cos(pi * x) via the shifted sine, keeping the exact special values."""
    return _sinpi(x + 0.5)


#: Frequency offset a and factor trig(x) = sin(pi x) or cos(pi x) per kind:
#: lambda_j = ((j + a) pi)^2 and f_j(t) = sqrt(2) trig((j + a) t).  The even
#: detrended indices are overwritten from the Bessel roots.
_SPECTRA = {
    KernelKind.WIENER: (-0.5, _sinpi),
    KernelKind.DEMEANED: (0.0, _cospi),
    KernelKind.BRIDGE: (0.0, _sinpi),
    KernelKind.DETRENDED: (1.0, _cospi),
}


def _solve_roots(n_max: int) -> np.ndarray:
    """Roots 1..n_max of g(z) = sin z - z cos z by Newton's method.

    Root n lies in (n pi, (n + 1/2) pi), just below q = (n + 1/2) pi, where
    the asymptotic expansion gives z_n = q - 1/q + O(q^-3).  Newton on g with
    g'(z) = z sin z, started there, converges to every root in three steps.
    """
    q = (np.arange(1, n_max + 1, dtype=float) + 0.5) * PI
    z = q - 1.0 / q
    for _ in range(_NEWTON_STEPS):
        z = z - (np.sin(z) - z * np.cos(z)) / (z * np.sin(z))
    return z


_roots_cache = np.empty(0)


def bessel_roots(n_max: int) -> np.ndarray:
    """First n_max roots as a read-only array (cached, grown on demand)."""
    global _roots_cache
    _require_count(n_max, "n_max")
    if n_max > _roots_cache.size:
        roots = _solve_roots(n_max)
        roots.setflags(write=False)
        _roots_cache = roots
    return _roots_cache[:n_max]


def eigenvalues(kind: KernelKind, j_max: int) -> np.ndarray:
    """Eigenvalues for indices 1..j_max, strictly increasing."""
    _require_count(j_max, "eigenpair index")
    offset, _ = _SPECTRA[kind]
    lam = (np.arange(1, j_max + 1, dtype=float) + offset) ** 2 * PI_SQUARED
    if kind is KernelKind.DETRENDED and j_max >= 2:
        lam[1::2] = 4.0 * bessel_roots(j_max // 2) ** 2
    return lam


def eigenvalue(kind: KernelKind, j: int) -> float:
    """Eigenvalue of index j >= 1."""
    _require_count(j, "eigenpair index")
    return float(eigenvalues(kind, j)[j - 1])


def eigenfunction_matrix(kind: KernelKind, j_max: int, t) -> np.ndarray:
    """Eigenfunctions 1..j_max sampled on t, shape (j_max, len(t)).

    ``t`` is assumed to lie in [0, 1]; validation happens in the scalar
    entry point and in grid constructors.
    """
    _require_count(j_max, "eigenpair index")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    offset, trig = _SPECTRA[kind]
    out = SQRT2 * trig((np.arange(1, j_max + 1, dtype=float)[:, None] + offset) * t)
    if kind is KernelKind.DETRENDED and j_max >= 2:
        n = np.arange(1, j_max // 2 + 1)
        z = bessel_roots(j_max // 2)[:, None]
        sign = np.where(n % 2 == 1, 1.0, -1.0)[:, None]
        amplitude = SQRT2 / np.abs(np.sin(z))
        out[1::2] = sign * amplitude * np.sin(2.0 * z * (t - 0.5))
    return out


def eigenfunction(kind: KernelKind, j: int, t: float) -> float:
    """Eigenfunction f_j evaluated at a single t in [0, 1]."""
    _require_count(j, "eigenpair index")
    t = _check_unit(t, "t")
    return float(eigenfunction_matrix(kind, j, np.array([t]))[j - 1, 0])

