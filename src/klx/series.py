"""Classical partial sums related to zeta(2) = pi^2/6.

Each series is one float64 array of its terms, built up to the largest level
asked for, and every sum is ``_kahan`` of a prefix of it: ``math.fsum`` reading
the array's buffer, correctly rounded (Shewchuk 1997), so results are
deterministic and ulp-level identities between routes hold.  Array terms round
as the scalar Python expressions do (``np.float_power`` calls the ``pow`` of
``**``; ``np.power`` may not).  ``_table`` is the one level walker, here and
for ``mercer.proof_report``: each level sums its own prefix, so it is
bit-identical to the scalar sum of that length; the zeta and triangular
scalars are one-level tables.  Every result is a float.  Levels above
``_MAX_TERMS`` are refused before any term is built.

Index conventions: ``zeta_partial`` and ``triangular_partial`` take the
number of terms ``n >= 1``; the odd-denominator sums and their residuals
take the last summation index ``n >= 0``, so ``n = 0`` means one term.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

#: Largest level a partial sum or ``mercer.proof_report`` accepts.  Peak RSS at
#: 1e7 (child ``getrusage``): 108 MB for a zeta, odd-square or Leibniz sum, a
#: zeta table and ``proof_report`` route 1 (one 80 MB terms array, built in
#: place), 184 MB for a triangular sum or table (one int64 temporary), 346 MB
#: for ``proof_report`` routes 2 and 3 (the eigenfunctions).
_MAX_TERMS = 10**7


def _kahan(terms: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array: ``math.fsum`` of its buffer."""
    return math.fsum(memoryview(terms))


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


def _power_terms(s: float, count: int, step: int = 1) -> np.ndarray:
    """k^(-s) for k = 1, 1 + step, ... (count of them)."""
    terms = np.arange(1, step * count + 1, step, dtype=float)
    return np.float_power(terms, -s, out=terms)


def _triangular_terms(count: int) -> np.ndarray:
    """2/(k(k+1)) for k = 1..count; the products are exact in int64."""
    products = np.arange(1, count + 1, dtype=np.int64)
    products *= products + 1
    return np.divide(2.0, products, out=products.view(float))


def _leibniz_terms(count: int) -> np.ndarray:
    """(-1)^k/(2k+1) for k = 0..count-1."""
    terms = np.arange(1, 2 * count, 2, dtype=float)
    np.divide(1.0, terms, out=terms)
    terms[1::2] *= -1.0
    return terms


def _table(n_values: Sequence[int], build: Callable[..., np.ndarray], *args) -> list[float]:
    """Sums of the first n terms at each n in ``n_values``, in request order, from
    one array ``build(*args, max(n_values))``, built once every level is checked."""
    if not n_values:
        raise ValueError("levels must be non-empty")
    _require_count(min(n_values), "level")
    _require_level(max(n_values), "level")
    terms = build(*args, max(n_values))
    return [_kahan(terms[:n]) for n in n_values]


def zeta_partial_table(s: float, n_values: Sequence[int]) -> list[float]:
    """Partial sums of k^(-s) for k = 1..n at each n in ``n_values``; needs s > 1."""
    if not s > 1.0:
        raise ValueError(f"s must be > 1, got {s}")
    return _table(n_values, _power_terms, s)


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
    return _table(n_values, _triangular_terms)


def triangular_partial(n: int) -> float:
    """Term-by-term sum of 2/(k(k+1)) for k = 1..n; telescopes to 2."""
    return triangular_partial_table([n])[0]


def odd_squares_partial(n: int) -> float:
    """Sum of 1/(2k+1)^2 for k = 0..n; converges to pi^2/8."""
    return _kahan(_power_terms(2.0, _term_count(n), 2))


def leibniz_partial(n: int) -> float:
    """Alternating sum of (-1)^k/(2k+1) for k = 0..n; converges to pi/4."""
    return _kahan(_leibniz_terms(_term_count(n)))


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
