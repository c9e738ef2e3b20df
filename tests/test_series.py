"""Tests for the classical partial sums.

Derived expected values are computed by exact rational arithmetic
(fractions.Fraction) inside the tests, independent of the float
accumulation path under test.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klx import (
    PartialSum,
    ResidualSequenceEntry,
    bernoulli_residual,
    estermann_residual,
    leibniz_partial,
    odd_squares_partial,
    triangular_closed_form,
    triangular_partial,
    triangular_partial_table,
    zeta2_tail_bounds,
    zeta_partial,
    zeta_partial_table,
)
from klx import series
from klx.series import _MAX_TERMS, _kahan

ZETA2 = math.pi**2 / 6.0


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1e-300))


def exact_zeta2_partial(n: int) -> float:
    return float(sum(Fraction(1, k * k) for k in range(1, n + 1)))


class TestZetaPartial:
    def test_single_term(self):
        assert zeta_partial(2.0, 1) == PartialSum(1, 1.0)

    def test_ten_terms_vs_rational_oracle(self):
        assert zeta_partial(2.0, 10).value == pytest.approx(exact_zeta2_partial(10), abs=1e-15)

    def test_converges_to_pi2_over_6(self):
        assert zeta_partial(2.0, 10**6).value == pytest.approx(ZETA2, abs=1.1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zeta_partial(2.0, 0)
        with pytest.raises(ValueError):
            zeta_partial(1.0, 10)
        with pytest.raises(ValueError):
            zeta_partial(0.5, 10)

    def test_generic_exponent(self):
        # s = 3: compare against the rational oracle
        exact = float(sum(Fraction(1, k**3) for k in range(1, 8)))
        assert zeta_partial(3.0, 7).value == pytest.approx(exact, abs=1e-15)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_and_below_two(self, n):
        table = zeta_partial_table(2.0, [n, n + 1])
        assert table[0].value < table[1].value
        assert table[1].value < 2.0

    def test_table_matches_scalar_bitwise(self):
        table = zeta_partial_table(2.0, [3, 17, 100])
        for entry in table:
            assert entry.value == zeta_partial(2.0, entry.n_terms).value

    def test_table_preserves_request_order(self):
        table = zeta_partial_table(2.0, [100, 3])
        assert [e.n_terms for e in table] == [100, 3]


class TestSummation:
    def test_keeps_a_term_that_compensation_loses(self):
        # Kahan's carried correction cancels against -1e16 and returns 0.0.
        assert _kahan([1e16, 1.0, -1e16]) == 1.0

    @given(st.lists(st.floats(min_value=-1e200, max_value=1e200)))
    @settings(max_examples=200, deadline=None)
    def test_correctly_rounded_against_exact_rational_sum(self, xs):
        assert _kahan(xs) == float(sum(map(Fraction, xs)))


class TestLevelCap:
    @pytest.mark.parametrize("partial", [
        lambda n: zeta_partial(2.0, n), triangular_partial, odd_squares_partial, leibniz_partial,
    ])
    def test_refuses_level_just_above_cap_before_any_term(self, partial, monkeypatch):
        def refuse(terms):
            raise AssertionError("terms summed for a refused level")

        monkeypatch.setattr(series, "_kahan", refuse)
        with pytest.raises(ValueError, match=str(_MAX_TERMS + 1)):
            partial(_MAX_TERMS + 1)

    def test_table_refuses_level_above_cap_before_any_term(self):
        def refuse(k):
            raise AssertionError("term built for a refused level")

        with pytest.raises(ValueError, match=str(_MAX_TERMS + 1)):
            series._partial_table(refuse, [10, _MAX_TERMS + 1])


class TestTailBounds:
    @pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
    def test_bracket_holds_strictly(self, n):
        lower, upper = zeta2_tail_bounds(n)
        tail = ZETA2 - zeta_partial(2.0, n).value
        assert lower < tail < upper

    def test_values(self):
        assert zeta2_tail_bounds(1) == (0.5, 1.0)
        assert zeta2_tail_bounds(10) == (1.0 / 11.0, 0.1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            zeta2_tail_bounds(0)


class TestTriangular:
    def test_first_term(self):
        assert triangular_partial(1).value == 1.0

    def test_closed_form_at_three(self):
        assert triangular_partial(3).value == pytest.approx(1.5, abs=1e-15)

    def test_limit_is_two(self):
        assert triangular_partial(10**5).value == pytest.approx(2.0, abs=1e-4)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_form_within_8_ulps(self, n):
        assert ulps_apart(triangular_partial(n).value, triangular_closed_form(n)) <= 8.0

    def test_table_matches_scalar(self):
        table = triangular_partial_table([1, 2, 3, 50])
        for entry in table:
            assert entry.value == triangular_partial(entry.n_terms).value

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            triangular_partial(0)


class TestOddSquaresAndLeibniz:
    def test_first_terms(self):
        assert odd_squares_partial(0).value == 1.0
        assert leibniz_partial(0).value == 1.0

    def test_small_values_vs_rational_oracle(self):
        # term-by-term float summation may differ from the correctly rounded
        # rational by an ulp or two
        exact = float(Fraction(1) + Fraction(1, 9) + Fraction(1, 25))
        assert ulps_apart(odd_squares_partial(2).value, exact) <= 2.0
        assert ulps_apart(leibniz_partial(1).value, float(Fraction(2, 3))) <= 2.0

    def test_limits(self):
        assert odd_squares_partial(10**5).value == pytest.approx(math.pi**2 / 8.0, abs=1e-5)
        assert leibniz_partial(10**5).value == pytest.approx(math.pi / 4.0, abs=1e-5)

    def test_zero_index_allowed_negative_rejected(self):
        odd_squares_partial(0)
        leibniz_partial(0)
        with pytest.raises(ValueError):
            odd_squares_partial(-1)
        with pytest.raises(ValueError):
            leibniz_partial(-1)


class TestResiduals:
    def test_bernoulli_at_zero(self):
        assert bernoulli_residual(0) == ResidualSequenceEntry(0, 0.0)

    def test_bernoulli_limit(self):
        assert bernoulli_residual(1000).residual == pytest.approx(math.pi**2 / 16.0, abs=0.01)

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_algebraic_identity(self, n):
        # residual + leibniz^2 reassembles the odd-squares sum
        q = leibniz_partial(n).value
        recombined = bernoulli_residual(n).residual + q * q
        assert ulps_apart(recombined, odd_squares_partial(n).value) <= 4.0

    def test_estermann_at_zero(self):
        assert estermann_residual(0).residual == -1.0

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 10**5])
    def test_estermann_bound(self, n):
        assert abs(estermann_residual(n).residual) <= 2.0 / n

    def test_estermann_vanishes(self):
        assert abs(estermann_residual(10**5).residual) < 1e-4


class TestOddSplitGap:
    """Splitting 1..2n+1 into odd and even indices sends both (3/4) times the
    square sum and the odd-square sum to pi^2/8, so their gap vanishes."""

    @staticmethod
    def gap(n):
        return 0.75 * zeta_partial(2.0, 2 * n + 1).value - odd_squares_partial(n).value

    def test_value_at_one_vs_rational_oracle(self):
        exact = float(
            Fraction(3, 4) * (Fraction(1) + Fraction(1, 4) + Fraction(1, 9))
            - (Fraction(1) + Fraction(1, 9))
        )
        assert self.gap(1) == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 10**4])
    def test_bound(self, n):
        assert abs(self.gap(n)) <= 1.0 / (2 * n)

    def test_tightens(self):
        assert abs(self.gap(1000)) <= 5e-4


class TestIndexPartition:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_odd_even_split_is_exact(self, n):
        # splitting 1..2n+2 into odd and even indices is an identity, so the
        # three float routes agree to rounding
        gap = abs(
            zeta_partial(2.0, 2 * n + 2).value
            - odd_squares_partial(n).value
            - 0.25 * zeta_partial(2.0, n + 1).value
        )
        assert gap <= 1.0 / n
        assert gap < 1e-13


class TestInvariantsOfTypes:
    def test_partial_sum_validation(self):
        with pytest.raises(ValueError):
            PartialSum(0, 1.0)
        with pytest.raises(ValueError):
            PartialSum(1, math.inf)

    def test_residual_entry_validation(self):
        with pytest.raises(ValueError):
            ResidualSequenceEntry(-1, 0.0)
        with pytest.raises(ValueError):
            ResidualSequenceEntry(0, math.nan)
