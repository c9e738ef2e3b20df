"""Classical partial sums related to zeta(2) = pi^2/6.

Every sum is ``math.fsum`` of its terms: correctly rounded (Shewchuk 1997),
so results are deterministic and ulp-level identities between different
routes to the same quantity actually hold.  A table sums each level's own
prefix alone.  Levels above ``_MAX_TERMS`` are refused before any term is
built.

Index conventions:

* ``zeta_partial`` and ``triangular_partial`` take the number of terms
  ``n >= 1``.
* The odd-denominator series (``odd_squares_partial``, ``leibniz_partial``)
  and the residuals built from them are 0-indexed: the argument ``n`` is the
  last summation index, so ``n = 0`` means one term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

#: Largest level a partial sum or ``mercer.proof_report`` accepts.  At 1e7 a
#: table's term list peaks near 0.4 GB; ``proof_report`` holds one float64
#: array per route and peaks near 0.58 GB (routes 2 and 3, evaluating the
#: eigenfunctions) and 0.11 GB (route 1); a scalar sum holds no list but takes
#: 2-5 s.  Larger levels are refused before any term is built.
_MAX_TERMS = 10**7


@dataclass(frozen=True)
class PartialSum:
    """A finite partial sum: how many terms went in and what came out."""

    n_terms: int
    value: float

    def __post_init__(self) -> None:
        if self.n_terms < 1:
            raise ValueError("a partial sum needs at least one term")
        if not math.isfinite(self.value):
            raise ValueError("partial sum value must be finite")


@dataclass(frozen=True)
class ResidualSequenceEntry:
    """One entry of a residual sequence, keyed by the last summation index."""

    index: int
    residual: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if not math.isfinite(self.residual):
            raise ValueError("residual must be finite")


def _kahan(terms: Iterable[float]) -> float:
    """The correctly rounded sum of ``terms`` (``math.fsum``)."""
    return math.fsum(terms)


def _require_count(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def _require_index(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def _require_level(n: int, name: str = "n") -> None:
    if n > _MAX_TERMS:
        raise ValueError(f"{name} must be <= {_MAX_TERMS}, got {n}")


def zeta_partial(s: float, n: int) -> PartialSum:
    """Partial sum of k^(-s) for k = 1..n.

    Requires s > 1 (the full series diverges otherwise) and n >= 1.
    """
    if not s > 1.0:
        raise ValueError(f"s must be > 1, got {s}")
    _require_count(n)
    _require_level(n)
    return PartialSum(n, _kahan(k ** -s for k in range(1, n + 1)))


def _partial_table(term: Callable[[int], float], n_values: Sequence[int]) -> list[PartialSum]:
    """Sums of ``term(k)`` for k = 1..n at each n in ``n_values``.  The terms are
    built once and each level sums its own prefix, so each value is
    bit-identical to the scalar sum of n terms."""
    if not n_values:
        raise ValueError("n_values must be non-empty")
    _require_count(min(n_values))
    _require_level(max(n_values))
    terms = [term(k) for k in range(1, max(n_values) + 1)]
    return [PartialSum(n, _kahan(islice(terms, n))) for n in n_values]


def zeta_partial_table(s: float, n_values: Sequence[int]) -> list[PartialSum]:
    """``zeta_partial`` at several term counts, sharing one list of terms.

    Each returned value is bit-identical to the corresponding scalar call.
    """
    if not s > 1.0:
        raise ValueError(f"s must be > 1, got {s}")
    return _partial_table(lambda k: k ** -s, n_values)


def zeta2_tail_bounds(n: int) -> tuple[float, float]:
    """Strict bracket (1/(n+1), 1/n) for the tail zeta(2) - zeta_partial(2, n)."""
    _require_count(n)
    return 1.0 / (n + 1), 1.0 / n


def triangular_closed_form(n: int) -> float:
    """Telescoped value 2 (1 - 1/(n+1)) of the triangular-reciprocal sum."""
    _require_count(n)
    return 2.0 * (1.0 - 1.0 / (n + 1))


def triangular_partial(n: int) -> PartialSum:
    """Term-by-term sum of 2/(k(k+1)) for k = 1..n; telescopes to 2."""
    _require_count(n)
    _require_level(n)
    return PartialSum(n, _kahan(2.0 / (k * (k + 1)) for k in range(1, n + 1)))


def triangular_partial_table(n_values: Sequence[int]) -> list[PartialSum]:
    """``triangular_partial`` at several term counts, sharing one list of terms."""
    return _partial_table(lambda k: 2.0 / (k * (k + 1)), n_values)


def odd_squares_partial(n: int) -> PartialSum:
    """Sum of 1/(2k+1)^2 for k = 0..n; converges to pi^2/8."""
    _require_index(n)
    _require_level(n)
    return PartialSum(n + 1, _kahan((2 * k + 1) ** -2.0 for k in range(n + 1)))


def leibniz_partial(n: int) -> PartialSum:
    """Alternating sum of (-1)^k/(2k+1) for k = 0..n; converges to pi/4."""
    _require_index(n)
    _require_level(n)
    return PartialSum(
        n + 1,
        _kahan((1.0 if k % 2 == 0 else -1.0) / (2 * k + 1) for k in range(n + 1)),
    )


def bernoulli_residual(n: int) -> ResidualSequenceEntry:
    """Defect of squaring the alternating sum: odd-squares sum minus the
    squared Leibniz sum, both through index n.  Converges to pi^2/16."""
    _require_index(n)
    q = leibniz_partial(n).value
    return ResidualSequenceEntry(n, odd_squares_partial(n).value - q * q)


def estermann_residual(n: int) -> ResidualSequenceEntry:
    """Odd-squares sum minus twice the squared Leibniz sum, both through
    index n.  Converges to 0; empirically |residual| <= 2/n for n >= 1."""
    _require_index(n)
    q = leibniz_partial(n).value
    return ResidualSequenceEntry(n, odd_squares_partial(n).value - 2.0 * q * q)

