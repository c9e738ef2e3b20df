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
detrended kind then solves no Bessel root.  A keyword ``first`` starts the rows
at entry ``first`` of that sequence, so a block of rows is computed alone, bit
for bit equal to the same rows of the whole range.
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
    half-integers.

    With n = round(x), the result is sin(pi (x - n)), negated where n is odd:
    n != 2 floor(n / 2), each step exact for an integer-valued float.  The
    halving, flooring and doubling use the result's buffer before x - n goes
    there, so the call holds two arrays the size of x and one boolean mask.
    """
    n = np.round(x)
    s = np.multiply(n, 0.5)
    np.floor(s, out=s)
    s += s
    odd = n != s
    np.subtract(x, n, out=s)
    s *= np.pi
    np.sin(s, out=s)
    np.negative(s, out=s, where=odd)
    return s


#: Frequency offset a and phase p per kind: lambda_j = ((j + a) pi)^2 and
#: f_j(t) = sqrt(2) sin(pi ((j + a) t + p)), where p = 1/2 gives the cosine
#: with the sine's exact special values (the even detrended rows: see _rows).
_SPECTRA = {
    KernelKind.WIENER: (-0.5, 0.0),
    KernelKind.DEMEANED: (0.0, 0.5),
    KernelKind.BRIDGE: (0.0, 0.0),
    KernelKind.DETRENDED: (1.0, 0.5),
}


def _solve_roots(numbers: range) -> np.ndarray:
    """Roots z_n of g(z) = sin z - z cos z for the root numbers n >= 1 in
    ``numbers``, by Newton's method.

    Root n lies in (n pi, (n + 1/2) pi), just below q = (n + 1/2) pi, where
    the asymptotic expansion gives z_n = q - 1/q + O(q^-3).  Newton on g with
    g'(z) = z sin z, started there, converges to every root in three steps.
    Each root is computed from its own start alone, so a range of roots is bit
    for bit equal to the same roots solved among others.
    """
    q = (np.arange(numbers.start, numbers.stop, dtype=float) + 0.5) * PI
    z = q - 1.0 / q
    for _ in range(_NEWTON_STEPS):
        z -= (np.sin(z) - z * np.cos(z)) / (z * np.sin(z))
    return z


_roots_cache = np.empty(0)


def bessel_roots(n_max: int) -> np.ndarray:
    """First n_max roots as a read-only array (cached; growing the cache solves
    only the roots it lacks)."""
    global _roots_cache
    _require_count(n_max, "n_max")
    if n_max > _roots_cache.size:
        lacking = _solve_roots(range(_roots_cache.size + 1, n_max + 1))
        roots = np.concatenate([_roots_cache, lacking])
        roots.setflags(write=False)
        _roots_cache = roots
    return _roots_cache[:n_max]


def _indices(start: int, count: int, stride: int) -> np.ndarray:
    """The indices start, start + stride, ... (count of them), as floats."""
    return np.arange(start, start + stride * count, stride, dtype=float)


def _rows(kind: KernelKind, j_max: int, step: int, first: int, closed, from_roots,
          shape=()) -> np.ndarray:
    """Rows first, first + 1, ... (j_max of them) of the indices 1, 1 + step, ...

    closed(start, count, stride) builds rows from _indices(start, count, stride) itself, so
    that array goes after first use; an odd step's even detrended rows j = 2n are
    from_roots(first n, z_n), the n a step apart.
    """
    _require_count(j_max, "eigenpair index")
    _require_count(step, "step")
    if first < 0:
        raise ValueError(f"first must be >= 0, got {first}")
    # Row r holds index 1 + step (first + r); with an odd step it is even where first + r is odd.
    lead = first % 2
    n_even = (j_max + lead) // 2 if kind is KernelKind.DETRENDED and step % 2 else 0
    if not n_even:
        return closed(1 + step * first, j_max, step)
    n_first = (1 + step * (first + 1 - lead)) // 2
    # Roots first: solved after the half-size rows, they raise the J-cap peak by 70 MB.  No n
    # array here: eigenvalues needs none, and holding one added 24 MB to that peak.
    z = bessel_roots(n_first + step * (n_even - 1))[n_first - 1::step]
    out = np.empty((j_max, *shape))
    out[lead::2] = closed(1 + step * (first + lead), j_max - n_even, 2 * step)
    out[1 - lead::2] = from_roots(n_first, z)
    return out


def eigenvalues(kind: KernelKind, j_max: int, step: int = 1, *, first: int = 0) -> np.ndarray:
    """Eigenvalues for indices 1, 1 + step, ... (j_max of them from entry ``first``
    of that sequence on), strictly increasing."""
    offset, _ = _SPECTRA[kind]
    return _rows(kind, j_max, step, first,
                 lambda start, count, stride: (_indices(start, count, stride) + offset) ** 2
                 * PI_SQUARED,
                 lambda n_first, z: 4.0 * z ** 2)


def eigenvalue(kind: KernelKind, j: int) -> float:
    """Eigenvalue of index j >= 1."""
    _require_count(j, "eigenpair index")
    return float(eigenvalues(kind, 1, first=j - 1)[0])


def eigenfunction_matrix(kind: KernelKind, j_max: int, t, step: int = 1, *,
                         first: int = 0) -> np.ndarray:
    """Eigenfunctions of indices 1, 1 + step, ... (j_max of them from entry ``first``
    of that sequence on) sampled on t, shape (j_max, len(t)).

    ``t`` is assumed to lie in [0, 1]; validation happens in the scalar
    entry point and in grid constructors.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    offset, phase = _SPECTRA[kind]

    def closed(start: int, count: int, stride: int) -> np.ndarray:
        # Rebinding out frees _sinpi's argument.
        out = (_indices(start, count, stride)[:, None] + offset) * t
        out += phase
        out = _sinpi(out)
        out *= SQRT2
        return out

    def from_roots(n_first: int, z: np.ndarray) -> np.ndarray:
        n = np.arange(n_first, n_first + step * z.size, step)
        sign, z = np.where(n % 2 == 1, 1.0, -1.0)[:, None], z[:, None]
        return sign * (SQRT2 / np.abs(np.sin(z))) * np.sin(2.0 * z * (t - 0.5))

    return _rows(kind, j_max, step, first, closed, from_roots, t.shape)


def eigenfunction(kind: KernelKind, j: int, t: float) -> float:
    """Eigenfunction f_j evaluated at a single t in [0, 1]."""
    _require_count(j, "eigenpair index")
    t = _check_unit(t, "t")
    return float(eigenfunction_matrix(kind, 1, np.array([t]), first=j - 1)[0, 0])

