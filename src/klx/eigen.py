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
detrended terms identically, so route 3 may take the odd indices alone).

``eigenvalues`` and ``eigenfunction_matrix`` take an index ``step``: indices
1, 1 + step, 1 + 2 step, ...  An even step holds odd indices only, so the
detrended kind then solves no Bessel root.
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
    s = x - n
    s *= np.pi
    np.sin(s, out=s)
    np.remainder(n, 2.0, out=n)
    np.negative(s, out=s, where=n != 0.0)
    return s


#: Frequency offset a and phase p per kind: lambda_j = ((j + a) pi)^2 and
#: f_j(t) = sqrt(2) sin(pi ((j + a) t + p)), where p = 1/2 gives the cosine
#: with the sine's exact special values.  The even detrended indices are
#: overwritten from the Bessel roots.
_SPECTRA = {
    KernelKind.WIENER: (-0.5, 0.0),
    KernelKind.DEMEANED: (0.0, 0.5),
    KernelKind.BRIDGE: (0.0, 0.0),
    KernelKind.DETRENDED: (1.0, 0.5),
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


def _indices(j_max: int, step: int) -> np.ndarray:
    """Indices 1, 1 + step, 1 + 2 step, ... (j_max of them) as floats."""
    _require_count(j_max, "eigenpair index")
    _require_count(step, "step")
    return np.arange(1, step * j_max + 1, step, dtype=float)


def _even_detrended(j_max: int, step: int):
    """Rows of the even indices j = 2n among 1, 1 + step, ... (j_max of them),
    their root numbers n and their Bessel roots z_n.  They are every other row
    from the second when the step is odd; an even step has none and solves no
    root."""
    if step % 2 == 0 or j_max < 2:
        return slice(0), np.empty(0), np.empty(0)
    n = np.arange((step + 1) // 2, step * (j_max // 2) + 1, step)
    return slice(1, None, 2), n, bessel_roots(int(n[-1]))[(step - 1) // 2::step]


def eigenvalues(kind: KernelKind, j_max: int, step: int = 1) -> np.ndarray:
    """Eigenvalues for indices 1, 1 + step, ... (j_max of them), strictly increasing."""
    offset, _ = _SPECTRA[kind]
    lam = (_indices(j_max, step) + offset) ** 2 * PI_SQUARED
    if kind is KernelKind.DETRENDED:
        rows, _, z = _even_detrended(j_max, step)
        lam[rows] = 4.0 * z ** 2
    return lam


def eigenvalue(kind: KernelKind, j: int) -> float:
    """Eigenvalue of index j >= 1."""
    _require_count(j, "eigenpair index")
    return float(eigenvalues(kind, j)[j - 1])


def eigenfunction_matrix(kind: KernelKind, j_max: int, t, step: int = 1) -> np.ndarray:
    """Eigenfunctions of indices 1, 1 + step, ... (j_max of them) sampled on t,
    shape (j_max, len(t)).

    ``t`` is assumed to lie in [0, 1]; validation happens in the scalar
    entry point and in grid constructors.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    offset, phase = _SPECTRA[kind]
    # Rebinding out frees _sinpi's argument before the detrended rows are built.
    out = (_indices(j_max, step)[:, None] + offset) * t
    out += phase
    out = _sinpi(out)
    out *= SQRT2
    if kind is KernelKind.DETRENDED:
        rows, n, z = _even_detrended(j_max, step)
        z = z[:, None]
        sign = np.where(n % 2 == 1, 1.0, -1.0)[:, None]
        amplitude = SQRT2 / np.abs(np.sin(z))
        out[rows] = sign * amplitude * np.sin(2.0 * z * (t - 0.5))
    return out


def eigenfunction(kind: KernelKind, j: int, t: float) -> float:
    """Eigenfunction f_j evaluated at a single t in [0, 1]."""
    _require_count(j, "eigenpair index")
    t = _check_unit(t, "t")
    return float(eigenfunction_matrix(kind, j, np.array([t]))[j - 1, 0])

