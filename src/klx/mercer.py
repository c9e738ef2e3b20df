"""Mercer partial sums and the three zeta(2) verification pipelines.

The Mercer identity k(t, t) = sum_j f_j(t)^2 / lambda_j turns each kernel's
diagonal into a positive series.  Three evaluation points give three
independent routes to zeta(2) = pi^2/6:

* route 1: the Wiener diagonal at t = 1 yields the odd-reciprocal-squares
  series; scaling by 4/3 recovers the full square series.
* route 2: the demeaned diagonal at t = 1 equals 1/3 and rearranges to
  (2/pi^2) * sum 1/j^2.
* route 3: the detrended diagonal at t = 1/2 equals 1/12; even-index terms
  vanish there identically, so the route takes the odd indices j = 1, 3, ...
  only (no Bessel root), and they rearrange to (1/(2 pi^2)) * sum 1/n^2.

Each route is a row of ``_ROUTES`` (scale, tail constant, term fill), and
``series._table`` walks its levels: it fills the terms one block at a time up
to the largest level, each row once, and sums every level exactly from the
blocks' exact parts, so no array of all the terms exists.  Each estimate comes
with an analytic tail bound that is validated (never assumed) by the test
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .eigen import PI_SQUARED, eigenfunction_matrix, eigenvalues
from .kernels import KernelKind, _check_unit
from .series import _filled, _kahan, _power_fill, _require_count, _table

ZETA2 = PI_SQUARED / 6.0

#: Each route as (scale, tail constant, term fill): the estimate at J terms
#: is scale times the sum of the first J terms, with frozen tail bound
#: constant / J.  Route 1's constant is the midpoint bound on sum (j - 1/2)^(-2);
#: routes 2 and 3 reduce to the square-reciprocal tail, bounded by 1/J.
_ROUTES = {
    1: (4.0 / 3.0, 1.0 / 3.0, lambda block, first: _power_fill(2.0, 2, block, first)),
    2: (PI_SQUARED / 2.0, 1.0,
        lambda block, first: _mercer_fill(KernelKind.DEMEANED, 1.0, 1, block, first)),
    3: (2.0 * PI_SQUARED, 1.0,
        lambda block, first: _mercer_fill(KernelKind.DETRENDED, 0.5, 2, block, first)),
}

PROOF_IDS = tuple(_ROUTES)

#: Rounding allowance added to every tail bound.  The route-1 midpoint bound
#: is sharp to O(1/J^3), which at J = 1e5 is smaller than the double-rounding
#: of the estimate and of the reference value, so an honest bound on the
#: *computed* error must also cover a few ulps of measurement fuzz.
_FLOAT_SLACK = 16.0 * math.ulp(PI_SQUARED / 6.0)


def _check_proof(proof: int) -> None:
    if proof not in PROOF_IDS:
        raise ValueError(f"proof must be one of {PROOF_IDS}, got {proof}")


def _mercer_fill(kind: KernelKind, t: float, step: int, block: np.ndarray, first: int) -> None:
    """The Mercer terms f_j(t)^2 / lambda_j at entries first, first + 1, ... of the index
    sequence 1, 1 + step, ..., from the eigenpairs of those indices alone."""
    f = eigenfunction_matrix(kind, block.size, t, step, first=first)[:, 0]
    np.multiply(f, f, out=block)
    block /= eigenvalues(kind, block.size, step, first=first)


def mercer_terms(kind: KernelKind, t: float, j_max: int, step: int = 1):
    """The Mercer terms f_j(t)^2 / lambda_j of indices 1, 1 + step, ... (j_max
    of them) as an array, filled block by block (``series._filled``)."""
    _require_count(j_max, "j_max")
    return _filled(j_max, partial(_mercer_fill, kind, _check_unit(t, "t"), step))


def truncated_covariance(kind: KernelKind, s, t, j_max: int):
    """Truncated expansion covariance sum_{j<=j_max} f_j(s) f_j(t) / lambda_j, the exact
    covariance of a j_max-term expansion: a float for points s and t, an array for equal-length
    1-D sequences paired in order.  Points are checked, then the eigenfunctions are evaluated
    once over the distinct points; each value is the correctly rounded sum of its own terms, so
    (s, t) and (t, s) agree and s = t gives the partial Mercer sum of mercer_terms.
    """
    _require_count(j_max, "j_max")
    shape = np.shape(s)
    if len(shape) > 1 or np.shape(t) != shape:
        raise ValueError(f"s and t must be points or 1-D sequences of one length, "
                         f"got shapes {shape} and {np.shape(t)}")
    s, t = ([_check_unit(x, name) for x in np.ravel(v)] for v, name in ((s, "s"), (t, "t")))
    points, where = np.unique(s + t, return_inverse=True)
    f = eigenfunction_matrix(kind, j_max, points)
    lam = eigenvalues(kind, j_max)
    sums = np.array([_kahan(f[:, i] * f[:, k] / lam) for i, k in where.reshape(2, -1).T])
    return sums if shape else float(sums[0])


def basel_estimate(proof: int, j_terms: int) -> float:
    """zeta(2) estimate from one route at j_terms terms: a one-level ``proof_report``."""
    return float(proof_report(proof, [j_terms]).estimate[0])


def proof_tail_bound(proof: int, j_terms: int) -> float:
    """Validated upper bound on zeta(2) - basel_estimate(proof, j_terms).

    Covers the analytic truncation tail plus a small fixed allowance for the
    floating-point rounding of the computed estimate and reference.
    """
    _check_proof(proof)
    _require_count(j_terms, "j_terms")
    return _ROUTES[proof][1] / j_terms + _FLOAT_SLACK


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Estimate sequence for one route, with honest error bounds: one entry per level."""

    proof_id: str
    j_terms: tuple[int, ...]
    estimate: np.ndarray
    abs_error: np.ndarray
    tail_bound: np.ndarray

    def passes(self) -> bool:
        """True when every level's error is within its tail bound."""
        return bool(np.all(self.abs_error <= self.tail_bound))


def proof_report(proof: int, j_values: Sequence[int]) -> ConvergenceReport:
    """Convergence report of one route over the given truncation levels.

    Route 1 sums the odd-square reciprocals, filled as for
    ``series.odd_squares_partial``, and scales by 4/3 (the closed form of its
    Mercer sum at t = 1); routes 2 and 3 sum the Mercer terms and rescale,
    route 3 over the odd indices alone.  The levels are walked by
    ``series._table``: it checks them all before any term is built, fills
    each of the route's terms once, block by block up to the largest level,
    and sums each level exactly, so a level is bit-identical to summing it
    alone.
    """
    _check_proof(proof)
    scale, _, fill = _ROUTES[proof]
    estimate = scale * np.array(_table(j_values, fill))
    tail_bound = np.array([proof_tail_bound(proof, j) for j in j_values])
    return ConvergenceReport(f"Proof{proof}", tuple(j_values), estimate,
                             np.abs(ZETA2 - estimate), tail_bound)
