"""Classical partial sums related to zeta(2) = pi^2/6.

Every sum in the package is ``_kahan``: the correctly rounded sum of a float64
array, the value ``math.fsum`` returns over its terms (Shewchuk 1997), so results
are deterministic and ulp-level identities between routes hold.  ``_parts`` turns
each block of ``_BLOCK`` terms into a few floats with the same exact sum, by
error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point summation,
Part I", SIAM J. Sci. Comput. 31(1), 2008, ``ExtractVector``), and ``math.fsum``
rounds their sum once.  A correctly rounded sum is unique, so the bits are those
of ``math.fsum`` over the terms themselves.

A series is a ``fill(block, first)`` that writes its terms first, first + 1, ...
into a block.  ``_table`` is the one level walker, here and for
``mercer.proof_report``: it fills one block at a time up to the largest level,
keeps the exact parts of each block split at every level, and sums each level as
``_kahan`` of the parts below it.  So every term is filled once, no array of all
the terms exists, and a level is bit-identical to the scalar sum of its length;
the scalar sums are one-level walks.  Array terms round as the scalar Python
expressions do (``np.float_power`` calls the ``pow`` of ``**``; ``np.power`` may
not).  Every result is a float.  Levels above ``_MAX_TERMS`` are refused before
any term is built.

Index conventions: ``zeta_partial`` and ``triangular_partial`` take the
number of terms ``n >= 1``; the odd-denominator sums and their residuals
take the last summation index ``n >= 0``, so ``n = 0`` means one term.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Sequence

import numpy as np

#: Largest level a partial sum or ``mercer.proof_report`` accepts.  It bounds time, as no
#: sum holds more than one block of its terms: at 1e7 (child ``getrusage``, 2-vCPU host)
#: ``klx verify`` took 0.73 s at 30.9 MB peak RSS, ``klx series --which zeta`` 0.36 s at
#: 30.7 MB, about the start-up's footprint.
_MAX_TERMS = 10**7
#: Terms per block of ``_kahan``, ``_table`` and ``_filled``: 2**14 float64 are 128 KiB.
_BLOCK = 2**14
#: Extraction passes per block before the terms left over become parts themselves.  A
#: block of route terms is exact after two passes, the first block after three.
_PASSES = 3

#: A series: ``fill(block, first)`` writes terms first, first + 1, ... into ``block``.
_Fill = Callable[[np.ndarray, int], None]


def _parts(p: np.ndarray, work: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of p (at most ``_BLOCK`` terms, overwritten).

    Each pass splits every term at a power of two sigma, q = (sigma + p) - sigma, keeps
    the sum of the q as a part and goes on with p - q.  With 2**m >= p.size + 2 and sigma
    >= 2**m max|p| every step is exact, and so is the sum of the q in any order; what is
    left is at most 2**-53 sigma (Rump, Ogita & Oishi 2008, Lemma 3.3).  The terms left
    after ``_PASSES`` are parts themselves.  So is a block with a non-finite term, or one
    too large for sigma to be a float, so that ``math.fsum`` meets nan, inf and overflow
    as it would in the terms.
    """
    q = work[:p.size]
    np.abs(p, out=q)
    top = float(q.max())
    m = (p.size + 1).bit_length()
    exponent = math.frexp(top)[1] + m
    if not (math.isfinite(top) and exponent <= 1023):
        return p.tolist()
    parts = []
    for _ in range(_PASSES):
        if not p.any():
            return parts
        sigma = math.ldexp(1.0, exponent)
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        parts.append(float(q.sum()))
        exponent += m - 53
    return parts + p[p != 0.0].tolist()


def _kahan(terms: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array, as ``math.fsum`` of its terms:
    ``math.fsum`` of the exact parts of each block of ``_BLOCK`` terms."""
    p, work = np.empty((2, min(terms.size, _BLOCK)))
    parts = []
    for first in range(0, terms.size, _BLOCK):
        block = p[:min(_BLOCK, terms.size - first)]
        np.copyto(block, terms[first:first + _BLOCK])
        parts += _parts(block, work)
    return math.fsum(parts)


def _require_count(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def _require_level(n: int, name: str = "n") -> None:
    if n > _MAX_TERMS:
        raise ValueError(f"{name} must be <= {_MAX_TERMS}, got {n}")


def _term_count(n: int) -> int:
    """The number of terms through summation index n >= 0, once n is checked."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _require_level(n)
    return n + 1


def _filled(count: int, fill: _Fill) -> np.ndarray:
    """A float64 array of count terms, filled one block of ``_BLOCK`` at a time.  Blocks
    run last to first, so a detrended odd step grows the Bessel root cache once, at its
    first block."""
    terms = np.empty(count)
    for first in reversed(range(0, count, _BLOCK)):
        fill(terms[first:first + _BLOCK], first)
    return terms


def _sums(n_values: Sequence[int], fill: _Fill) -> list[float]:
    """Sums of the first n terms at each n >= 1 in ``n_values``, in request order.

    One buffer takes each block of ``_BLOCK`` terms up to the largest level, last block
    first as in ``_filled``; each block is split at the levels inside it, each segment
    keeps its exact parts, and a level's sum is ``_kahan`` of the parts below it.
    """
    ends = sorted(set(n_values))
    block, work = np.empty((2, min(ends[-1], _BLOCK)))
    segments = {}
    for first in reversed(range(0, ends[-1], _BLOCK)):
        last = min(first + _BLOCK, ends[-1])
        fill(block[:last - first], first)
        cuts = [first, *ends[bisect_right(ends, first):bisect_left(ends, last)], last]
        for a, b in zip(cuts, cuts[1:]):
            segments[b] = _parts(block[a - first:b - first], work)
    levels, parts, sums = set(ends), [], {}
    for end in sorted(segments):
        parts += segments[end]
        if end in levels:
            sums[end] = _kahan(np.array(parts))
    return [sums[n] for n in n_values]


def _table(n_values: Sequence[int], fill: _Fill) -> list[float]:
    """``_sums`` at each level in ``n_values``, once every level is checked."""
    if not n_values:
        raise ValueError("levels must be non-empty")
    _require_count(min(n_values), "level")
    _require_level(max(n_values), "level")
    return _sums(n_values, fill)


def _power_fill(s: float, step: int, block: np.ndarray, first: int) -> None:
    """k^(-s) for k = 1 + step * i at the block's i = first, first + 1, ..."""
    k = np.arange(step * first + 1, step * (first + block.size) + 1, step, dtype=float)
    np.float_power(k, -s, out=block)


def _triangular_fill(block: np.ndarray, first: int) -> None:
    """2/(k(k+1)) for k = first + 1, first + 2, ...; the products are exact in int64."""
    products = np.arange(first + 1, first + block.size + 1, dtype=np.int64)
    products *= products + 1
    np.divide(2.0, products, out=block)


def _leibniz_fill(block: np.ndarray, first: int) -> None:
    """(-1)^k/(2k+1) for k = first, first + 1, ..."""
    np.divide(1.0, np.arange(2 * first + 1, 2 * (first + block.size), 2, dtype=float),
              out=block)
    block[(first + 1) % 2::2] *= -1.0


def zeta_partial_table(s: float, n_values: Sequence[int]) -> list[float]:
    """Partial sums of k^(-s) for k = 1..n at each n in ``n_values``; needs s > 1."""
    if not s > 1.0:
        raise ValueError(f"s must be > 1, got {s}")
    return _table(n_values, partial(_power_fill, s, 1))


def zeta_partial(s: float, n: int) -> float:
    """Partial sum of k^(-s) for k = 1..n."""
    return zeta_partial_table(s, [n])[0]


def zeta2_tail_bounds(n: int) -> tuple[float, float]:
    """Strict bracket (1/(n+1), 1/n) for the tail zeta(2) - zeta_partial(2, n)."""
    _require_count(n)
    return 1.0 / (n + 1), 1.0 / n


def triangular_closed_form(n: int) -> float:
    """Telescoped value 2 (1 - 1/(n+1)) of the triangular-reciprocal sum."""
    _require_count(n)
    return 2.0 * (1.0 - 1.0 / (n + 1))


def triangular_partial_table(n_values: Sequence[int]) -> list[float]:
    """Term-by-term sums of 2/(k(k+1)) for k = 1..n at each n in ``n_values``."""
    return _table(n_values, _triangular_fill)


def triangular_partial(n: int) -> float:
    """Term-by-term sum of 2/(k(k+1)) for k = 1..n; telescopes to 2."""
    return triangular_partial_table([n])[0]


def odd_squares_partial(n: int) -> float:
    """Sum of 1/(2k+1)^2 for k = 0..n; converges to pi^2/8."""
    return _sums([_term_count(n)], partial(_power_fill, 2.0, 2))[0]


def leibniz_partial(n: int) -> float:
    """Alternating sum of (-1)^k/(2k+1) for k = 0..n; converges to pi/4."""
    return _sums([_term_count(n)], _leibniz_fill)[0]


def bernoulli_residual(n: int) -> float:
    """Defect of squaring the alternating sum: odd-squares sum minus the
    squared Leibniz sum, both through index n.  Converges to pi^2/16."""
    q = leibniz_partial(n)
    return odd_squares_partial(n) - q * q


def estermann_residual(n: int) -> float:
    """Odd-squares sum minus twice the squared Leibniz sum, both through
    index n.  Converges to 0; empirically |residual| <= 2/n for n >= 1."""
    q = leibniz_partial(n)
    return odd_squares_partial(n) - 2.0 * q * q
