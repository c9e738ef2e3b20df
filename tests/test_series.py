"""Tests for the classical partial sums.

Derived expected values are computed by exact rational arithmetic
(fractions.Fraction) inside the tests, independent of the float
accumulation path under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klx import (
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


def refuse_terms(monkeypatch):
    """Make building or summing any term array fail the test."""
    def refuse(*args):
        raise AssertionError("terms built for a refused level")

    for name in ("_kahan", "_power_terms", "_triangular_terms", "_leibniz_terms"):
        monkeypatch.setattr(series, name, refuse)


class TestZetaPartial:
    def test_single_term(self):
        assert zeta_partial(2.0, 1) == 1.0

    def test_ten_terms_vs_rational_oracle(self):
        assert zeta_partial(2.0, 10) == pytest.approx(exact_zeta2_partial(10), abs=1e-15)

    def test_converges_to_pi2_over_6(self):
        assert zeta_partial(2.0, 10**6) == pytest.approx(ZETA2, abs=1.1e-6)

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
        assert zeta_partial(3.0, 7) == pytest.approx(exact, abs=1e-15)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_and_below_two(self, n):
        table = zeta_partial_table(2.0, [n, n + 1])
        assert table[0] < table[1]
        assert table[1] < 2.0

    def test_table_matches_scalar_bitwise(self):
        levels = [3, 17, 100]
        assert zeta_partial_table(2.0, levels) == [zeta_partial(2.0, n) for n in levels]

    def test_table_preserves_request_order(self):
        assert zeta_partial_table(2.0, [100, 3]) == [zeta_partial(2.0, 100),
                                                     zeta_partial(2.0, 3)]


class TestSummation:
    def test_keeps_a_term_that_compensation_loses(self):
        # Kahan's carried correction cancels against -1e16 and returns 0.0.
        assert _kahan(np.array([1e16, 1.0, -1e16])) == 1.0

    @given(st.lists(st.floats(min_value=-1e200, max_value=1e200)))
    @settings(max_examples=200, deadline=None)
    def test_correctly_rounded_against_exact_rational_sum(self, xs):
        assert _kahan(np.array(xs, dtype=float)) == float(sum(map(Fraction, xs)))

    def test_prefixes_equal_fsum_of_their_float_lists(self):
        terms = np.random.default_rng(7).standard_normal(3 * 2**16 + 5) * 1e3
        for count in (0, 1, 2**16, 2**16 + 1, terms.size):
            assert _kahan(terms[:count]) == math.fsum(terms[:count].tolist())

    @given(st.lists(st.one_of(
        st.floats(min_value=-1e300, max_value=1e300),
        st.floats(min_value=-2.3e-308, max_value=2.3e-308),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    ), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_of_the_float_list_bit_for_bit(self, xs):
        # Contiguous, strided, reversed and matrix-column views all read
        # through the buffer; .hex() tells -0.0 from 0.0.
        a = np.array(xs, dtype=float)
        matrix = a[:a.size // 3 * 3].reshape(-1, 3)
        for view in (a, a[::3], a[1::2], a[::-1], matrix[:, 1], matrix.T[2]):
            assert _kahan(view).hex() == math.fsum(view.tolist()).hex()

    @pytest.mark.parametrize("xs, error", [
        ([math.inf, -math.inf], ValueError),
        ([1e308, 1e308], OverflowError),
    ])
    def test_raises_as_fsum_does(self, xs, error):
        with pytest.raises(error):
            math.fsum(xs)
        with pytest.raises(error):
            _kahan(np.array(xs))

    def test_nan_and_inf_propagate_as_in_fsum(self):
        for xs in ([1.0, math.nan, 2.0], [math.nan, math.inf], [math.inf, 1.0]):
            expected = math.fsum(xs)
            got = _kahan(np.array(xs))
            assert math.isnan(got) if math.isnan(expected) else got == expected


class TestLevelCap:
    @pytest.mark.parametrize("partial", [
        lambda n: zeta_partial(2.0, n), triangular_partial, odd_squares_partial, leibniz_partial,
    ])
    def test_refuses_level_just_above_cap_before_any_term(self, partial, monkeypatch):
        refuse_terms(monkeypatch)
        with pytest.raises(ValueError, match=str(_MAX_TERMS + 1)):
            partial(_MAX_TERMS + 1)

    def test_table_refuses_level_above_cap_before_any_term(self, monkeypatch):
        refuse_terms(monkeypatch)
        with pytest.raises(ValueError, match=str(_MAX_TERMS + 1)):
            zeta_partial_table(2.0, [10, _MAX_TERMS + 1])
        with pytest.raises(ValueError, match=str(_MAX_TERMS + 1)):
            triangular_partial_table([10, _MAX_TERMS + 1])


#: Levels from one term to 10**5, on both sides of 2**16.
LEVELS = [1, 2**16, 2**16 + 1, 10**5]


class TestAgainstScalarTerms:
    """Every sum equals ``math.fsum`` of its Python float terms, built one at a
    time; every term array equals those terms bit for bit."""

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 7.3])
    def test_zeta(self, s):
        expected = [math.fsum(k ** -s for k in range(1, n + 1)) for n in LEVELS]
        assert zeta_partial_table(s, LEVELS) == expected
        assert [zeta_partial(s, n) for n in LEVELS] == expected

    def test_triangular(self):
        expected = [math.fsum(2.0 / (k * (k + 1)) for k in range(1, n + 1)) for n in LEVELS]
        assert triangular_partial_table(LEVELS) == expected
        assert [triangular_partial(n) for n in LEVELS] == expected

    @pytest.mark.parametrize("n", LEVELS)
    def test_odd_denominator_sums_and_residuals(self, n):
        # n terms, so the last summation index is n - 1
        odd = math.fsum((2 * k + 1) ** -2.0 for k in range(n))
        q = math.fsum((1.0 if k % 2 == 0 else -1.0) / (2 * k + 1) for k in range(n))
        assert odd_squares_partial(n - 1) == odd
        assert leibniz_partial(n - 1) == q
        assert bernoulli_residual(n - 1) == odd - q * q
        assert estermann_residual(n - 1) == odd - 2.0 * q * q

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 7.3, 50.0, 1.0 + 1e-7])
    def test_zeta_terms(self, s):
        n = 10**5
        assert series._power_terms(s, n).tolist() == [k ** -s for k in range(1, n + 1)]

    def test_odd_denominator_and_triangular_terms(self):
        n = 10**5
        assert series._triangular_terms(n).tolist() == [2.0 / (k * (k + 1))
                                                        for k in range(1, n + 1)]
        assert series._power_terms(2.0, n, 2).tolist() == [(2 * k + 1) ** -2.0 for k in range(n)]
        assert series._leibniz_terms(n).tolist() == [(1.0 if k % 2 == 0 else -1.0) / (2 * k + 1)
                                                     for k in range(n)]


class TestTailBounds:
    @pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
    def test_bracket_holds_strictly(self, n):
        lower, upper = zeta2_tail_bounds(n)
        tail = ZETA2 - zeta_partial(2.0, n)
        assert lower < tail < upper

    def test_values(self):
        assert zeta2_tail_bounds(1) == (0.5, 1.0)
        assert zeta2_tail_bounds(10) == (1.0 / 11.0, 0.1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            zeta2_tail_bounds(0)


class TestTriangular:
    def test_first_term(self):
        assert triangular_partial(1) == 1.0

    def test_closed_form_at_three(self):
        assert triangular_partial(3) == pytest.approx(1.5, abs=1e-15)

    def test_limit_is_two(self):
        assert triangular_partial(10**5) == pytest.approx(2.0, abs=1e-4)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_form_within_8_ulps(self, n):
        assert ulps_apart(triangular_partial(n), triangular_closed_form(n)) <= 8.0

    def test_table_matches_scalar(self):
        levels = [1, 2, 3, 50]
        assert triangular_partial_table(levels) == [triangular_partial(n) for n in levels]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            triangular_partial(0)


class TestOddSquaresAndLeibniz:
    def test_first_terms(self):
        assert odd_squares_partial(0) == 1.0
        assert leibniz_partial(0) == 1.0

    def test_small_values_vs_rational_oracle(self):
        # term-by-term float summation may differ from the correctly rounded
        # rational by an ulp or two
        exact = float(Fraction(1) + Fraction(1, 9) + Fraction(1, 25))
        assert ulps_apart(odd_squares_partial(2), exact) <= 2.0
        assert ulps_apart(leibniz_partial(1), float(Fraction(2, 3))) <= 2.0

    def test_limits(self):
        assert odd_squares_partial(10**5) == pytest.approx(math.pi**2 / 8.0, abs=1e-5)
        assert leibniz_partial(10**5) == pytest.approx(math.pi / 4.0, abs=1e-5)

    def test_zero_index_allowed_negative_rejected(self):
        odd_squares_partial(0)
        leibniz_partial(0)
        with pytest.raises(ValueError):
            odd_squares_partial(-1)
        with pytest.raises(ValueError):
            leibniz_partial(-1)


class TestResiduals:
    def test_bernoulli_at_zero(self):
        assert bernoulli_residual(0) == 0.0

    def test_bernoulli_limit(self):
        assert bernoulli_residual(1000) == pytest.approx(math.pi**2 / 16.0, abs=0.01)

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_algebraic_identity(self, n):
        # residual + leibniz^2 reassembles the odd-squares sum
        q = leibniz_partial(n)
        recombined = bernoulli_residual(n) + q * q
        assert ulps_apart(recombined, odd_squares_partial(n)) <= 4.0

    def test_estermann_at_zero(self):
        assert estermann_residual(0) == -1.0

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 10**5])
    def test_estermann_bound(self, n):
        assert abs(estermann_residual(n)) <= 2.0 / n

    def test_estermann_vanishes(self):
        assert abs(estermann_residual(10**5)) < 1e-4


class TestOddSplitGap:
    """Splitting 1..2n+1 into odd and even indices sends both (3/4) times the
    square sum and the odd-square sum to pi^2/8, so their gap vanishes."""

    @staticmethod
    def gap(n):
        return 0.75 * zeta_partial(2.0, 2 * n + 1) - odd_squares_partial(n)

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
            zeta_partial(2.0, 2 * n + 2)
            - odd_squares_partial(n)
            - 0.25 * zeta_partial(2.0, n + 1)
        )
        assert gap <= 1.0 / n
        assert gap < 1e-13

