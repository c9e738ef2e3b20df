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

Each route is a row of ``_ROUTES`` (scale, tail constant, term builder), and
``series._table`` reads its levels from one term array, built up to the
largest, each level the sum of its own prefix.  Each estimate comes with an
analytic tail bound that is validated (never assumed) by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .eigen import PI_SQUARED, eigenfunction_matrix, eigenvalues
from .kernels import KernelKind, _check_unit
from .series import _kahan, _power_terms, _require_count, _table

ZETA2 = PI_SQUARED / 6.0

#: Each route as (scale, tail constant, term builder): the estimate at J terms
#: is scale times the sum of the first J terms, with frozen tail bound
#: constant / J.  Route 1's constant is the midpoint bound on sum (j - 1/2)^(-2);
#: routes 2 and 3 reduce to the square-reciprocal tail, bounded by 1/J.
_ROUTES = {
    1: (4.0 / 3.0, 1.0 / 3.0, lambda n: _power_terms(2.0, n, 2)),
    2: (PI_SQUARED / 2.0, 1.0, lambda n: mercer_terms(KernelKind.DEMEANED, 1.0, n, 1)),
    3: (2.0 * PI_SQUARED, 1.0, lambda n: mercer_terms(KernelKind.DETRENDED, 0.5, n, 2)),
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


def mercer_terms(kind: KernelKind, t: float, j_max: int, step: int = 1):
    """The Mercer terms f_j(t)^2 / lambda_j of indices 1, 1 + step, ... (j_max
    of them) as an array."""
    _require_count(j_max, "j_max")
    t = _check_unit(t, "t")
    f = eigenfunction_matrix(kind, j_max, t, step)[:, 0]
    return f * f / eigenvalues(kind, j_max, step)


def mercer_partial(kind: KernelKind, t: float, j_max: int) -> float:
    """Partial Mercer sum sum_{j<=j_max} f_j(t)^2 / lambda_j.

    Converges to kernel_value(kind, t, t) as j_max grows.
    """
    return _kahan(mercer_terms(kind, t, j_max))


def truncated_covariance(kind: KernelKind, s: float, t: float, j_max: int) -> float:
    """Truncated expansion covariance sum_{j<=j_max} f_j(s) f_j(t) / lambda_j.

    This is the exact covariance of a truncated expansion with j_max terms,
    which is what simulated ensembles should be compared against.
    """
    _require_count(j_max, "j_max")
    s = _check_unit(s, "s")
    t = _check_unit(t, "t")
    fs, ft = eigenfunction_matrix(kind, j_max, [s, t]).T
    return _kahan(fs * ft / eigenvalues(kind, j_max))


def basel_estimate(proof: int, j_terms: int) -> float:
    """zeta(2) estimate from one route at j_terms terms: one ``proof_report`` row."""
    return proof_report(proof, [j_terms]).rows[0].estimate


def proof_tail_bound(proof: int, j_terms: int) -> float:
    """Validated upper bound on zeta(2) - basel_estimate(proof, j_terms).

    Covers the analytic truncation tail plus a small fixed allowance for the
    floating-point rounding of the computed estimate and reference.
    """
    _check_proof(proof)
    _require_count(j_terms, "j_terms")
    return _ROUTES[proof][1] / j_terms + _FLOAT_SLACK


@dataclass(frozen=True)
class ConvergenceRow:
    j_terms: int
    estimate: float
    abs_error: float
    tail_bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Estimate sequence for one route, with honest error bounds."""

    proof_id: str
    rows: tuple[ConvergenceRow, ...]

    def passes(self) -> bool:
        """True when every row's error is within its tail bound."""
        return all(row.abs_error <= row.tail_bound for row in self.rows)


def proof_report(proof: int, j_values: Sequence[int]) -> ConvergenceReport:
    """Convergence report of one route over the given truncation levels.

    Route 1 sums the odd-square reciprocals, built as for
    ``series.odd_squares_partial``, and scales by 4/3 (the closed form of its
    Mercer sum at t = 1); routes 2 and 3 sum the Mercer terms and rescale,
    route 3 over the odd indices alone.  The levels are read by
    ``series._table``: it checks them all before any term is built, builds
    the route's terms once, up to the largest level, and sums each level's
    own prefix, so a level is bit-identical to summing it alone.
    """
    _check_proof(proof)
    scale, _, build = _ROUTES[proof]
    estimates = [scale * total for total in _table(j_values, build)]
    rows = tuple(ConvergenceRow(j_terms, estimate, abs(ZETA2 - estimate),
                                proof_tail_bound(proof, j_terms))
                 for j_terms, estimate in zip(j_values, estimates))
    return ConvergenceReport(proof_id=f"Proof{proof}", rows=rows)
