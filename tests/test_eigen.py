"""Tests for the analytic eigenstructure.

The root solver is checked against two independent oracles: a bisection on
tan z = z (avoiding the solver's own residual function) and mpmath's
arbitrary-precision Bessel zero finder.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klx import (
    KernelKind,
    bessel_roots,
    eigenfunction,
    eigenfunction_matrix,
    eigenvalue,
    eigenvalues,
    kernel_matrix,
    kernel_value,
)
from klx import eigen
from klx.quadrature import gauss_legendre_01, integrate_01

ALL_KINDS = list(KernelKind)
PI = math.pi

# Frozen from the oracles below: first root of tan z = z, and derived values.
Z1 = 4.493409457909064
FOUR_Z1_SQUARED = 80.76291422570652
LAMBDA_2 = 2.099055365655114


def tan_fixed_point_oracle(n: int) -> float:
    """n-th positive solution of tan z = z by bisection on (n pi, n pi + pi/2).

    tan z - z is -n pi at the left end, grows monotonically and blows up at
    the right end, so plain bisection on a slightly shrunk bracket converges
    to the unique interior root.
    """
    lo = n * PI + 1e-12
    hi = n * PI + PI / 2.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.tan(mid) - mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBesselRoots:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_residual_and_bracket(self, n):
        z = bessel_roots(n)[n - 1]
        assert abs(math.sin(z) - z * math.cos(z)) <= 1e-10
        assert n * PI < z < (n + 1) * PI

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 10**3, 10**5, 10**6])
    def test_matches_tan_fixed_point_oracle(self, n):
        assert abs(bessel_roots(n)[n - 1] - tan_fixed_point_oracle(n)) <= 1e-10

    def test_every_root_bracketed_and_increasing(self):
        # Newton keeps no bracket, so check the one every root must satisfy:
        # root n in (n pi, (n + 1/2) pi) for every n up to 10**6.
        n = np.arange(1, 10**6 + 1, dtype=float)
        z = bessel_roots(10**6)
        assert np.all(n * PI < z)
        assert np.all(z < (n + 0.5) * PI)
        assert np.all(np.diff(z) > 0.0)

    def test_cache_grows_by_the_roots_it_lacks(self, monkeypatch):
        asked = []

        def recording(numbers):
            asked.append(numbers)
            return solve(numbers)

        solve = eigen._solve_roots
        monkeypatch.setattr(eigen, "_solve_roots", recording)
        monkeypatch.setattr(eigen, "_roots_cache", np.empty(0))
        for n_max in (10, 10**3, 10, 10**5):
            bessel_roots(n_max)
        assert asked == [range(1, 11), range(11, 10**3 + 1), range(10**3 + 1, 10**5 + 1)]
        assert bessel_roots(10**5).tobytes() == solve(range(1, 10**5 + 1)).tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_mpmath_bessel_zero(self, n):
        z_mp = float(mpmath.besseljzero(mpmath.mpf(3) / 2, n))
        assert abs(bessel_roots(n)[n - 1] - z_mp) <= 1e-12

    def test_first_two_roots_frozen(self):
        assert bessel_roots(1)[0] == pytest.approx(Z1, abs=1e-12)
        assert bessel_roots(2)[1] == pytest.approx(7.725251836937707, abs=1e-12)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_approaches_half_integer_multiple_from_below(self, n):
        z = bessel_roots(n)[n - 1]
        upper = (2 * n + 1) * PI / 2.0
        assert n * PI < z < upper
        # the gap to (2n+1) pi/2 shrinks with n
        z_next = bessel_roots(n + 1)[n]
        assert (2 * (n + 1) + 1) * PI / 2.0 - z_next < upper - z

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bessel_roots(0)


class TestEigenvalues:
    def test_wiener_first(self):
        assert eigenvalue(KernelKind.WIENER, 1) == pytest.approx(PI**2 / 4.0, rel=1e-15)

    def test_demeaned_third(self):
        assert eigenvalue(KernelKind.DEMEANED, 3) == pytest.approx(9.0 * PI**2, rel=1e-15)

    def test_bridge_first(self):
        assert eigenvalue(KernelKind.BRIDGE, 1) == pytest.approx(PI**2, rel=1e-15)

    def test_detrended_branches(self):
        assert eigenvalue(KernelKind.DETRENDED, 1) == pytest.approx(4.0 * PI**2, rel=1e-15)
        assert eigenvalue(KernelKind.DETRENDED, 2) == pytest.approx(FOUR_Z1_SQUARED, rel=1e-14)
        z1 = bessel_roots(1)[0]
        assert eigenvalue(KernelKind.DETRENDED, 2) == 4.0 * z1 * z1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_positive_and_strictly_increasing(self, kind):
        lam = eigenvalues(kind, 40)
        assert (lam > 0).all()
        assert (np.diff(lam) > 0).all()

    def test_detrended_interlaces_both_branches(self):
        lam = eigenvalues(KernelKind.DETRENDED, 10)
        # odd entries are squared even multiples of pi, even entries are 4 z^2
        for idx in range(0, 10, 2):
            j = idx + 1
            assert lam[idx] == pytest.approx((j + 1) ** 2 * PI**2, rel=1e-15)
        assert (np.diff(lam) > 0).all()

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            eigenvalue(KernelKind.WIENER, 0)


class TestStep:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_stepped_indices_are_a_slice_of_the_full_range(self, kind, step):
        t = np.array([0.0, 0.3, 0.5, 1.0])
        assert eigenvalues(kind, 25, step).tobytes() == eigenvalues(kind, 25 * step)[::step].tobytes()
        assert (eigenfunction_matrix(kind, 25, t, step).tobytes()
                == eigenfunction_matrix(kind, 25 * step, t)[::step].tobytes())

    def test_even_step_solves_no_root(self, monkeypatch):
        def refuse(n_max):
            raise AssertionError("a Bessel root was solved")

        monkeypatch.setattr(eigen, "_solve_roots", refuse)
        monkeypatch.setattr(eigen, "_roots_cache", np.empty(0))
        assert eigenvalues(KernelKind.DETRENDED, 100, 2)[-1] == 200.0**2 * PI**2
        eigenfunction_matrix(KernelKind.DETRENDED, 100, [0.5], 2)
        with pytest.raises(AssertionError, match="Bessel root"):
            eigenvalues(KernelKind.DETRENDED, 100, 3)

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError, match="step"):
            eigenvalues(KernelKind.WIENER, 3, 0)


def block_equals_whole(kind, step, first, count, shift=0):
    """Whether the eigenvalues and eigenfunction rows of a block starting at first + shift
    equal rows first, first + 1, ... of the whole range, bit for bit."""
    t = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])
    stop = first + count
    lam = eigenvalues(kind, count, step, first=first + shift)
    f = eigenfunction_matrix(kind, count, t, step, first=first + shift)
    return (lam.tobytes() == eigenvalues(kind, stop, step)[first:].tobytes()
            and f.tobytes() == eigenfunction_matrix(kind, stop, t, step)[first:].tobytes())


class TestFirstIndex:
    """A block of rows from a first index equals those rows of the whole range: first
    indices of both parities put the detrended odd-step rows' odd/even interleave and
    their root slice on either phase, around the 2**14-row blocks of the Mercer terms."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("first", [0, 1, 2**14 - 1, 2**14, 2**14 + 1])
    @pytest.mark.parametrize("count", [1, 6])
    def test_block_equals_the_same_rows_of_the_whole(self, kind, step, first, count):
        assert block_equals_whole(kind, step, first, count)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_a_first_index_off_by_one_fails(self, kind, step, shift):
        assert not block_equals_whole(kind, step, 2**14, 6, shift)

    def test_rejects_negative_first(self):
        with pytest.raises(ValueError, match="first"):
            eigenvalues(KernelKind.WIENER, 3, first=-1)
        with pytest.raises(ValueError, match="first"):
            eigenfunction_matrix(KernelKind.DETRENDED, 3, [0.5], first=-1)


class TestSpectralIdentities:
    """Mercer's trace and Hilbert-Schmidt identities, sum 1/lambda_j = int k(t, t)
    and sum 1/lambda_j^2 = int int k(s, t)^2, against the exact integrals of
    each kernel; for the demeaned and bridge kinds the second is
    zeta(4) = pi^4/90."""

    J = 10**5
    #: kind -> (trace, Hilbert-Schmidt), exact rationals of the kernel table.
    EXACT = {
        KernelKind.WIENER: (1 / 2, 1 / 6),
        KernelKind.DEMEANED: (1 / 6, 1 / 90),
        KernelKind.DETRENDED: (1 / 15, 11 / 12600),
        KernelKind.BRIDGE: (1 / 6, 1 / 90),
    }

    def hs_error(self, kind):
        hs = self.EXACT[kind][1]
        return abs(math.fsum((eigenvalues(kind, self.J) ** -2.0).tolist()) - hs) / hs

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hilbert_schmidt(self, kind):
        assert self.hs_error(kind) <= 1e-14

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_trace_tail_is_one_over_pi_squared_j(self, kind):
        trace = self.EXACT[kind][0]
        partial = math.fsum((1.0 / eigenvalues(kind, self.J)).tolist())
        assert 0.99 <= (trace - partial) * PI**2 * self.J <= 1.01

    def test_perturbed_first_root_fails_hilbert_schmidt(self, monkeypatch):
        exact_roots = eigen.bessel_roots

        def perturbed(n_max):
            z = exact_roots(n_max).copy()
            z[0] *= 1.0 + 1e-8
            return z

        monkeypatch.setattr(eigen, "bessel_roots", perturbed)
        assert self.hs_error(KernelKind.DETRENDED) > 1e-9


class TestEigenfunctions:
    def test_wiener_at_one(self):
        assert eigenfunction(KernelKind.WIENER, 1, 1.0) == math.sqrt(2.0)

    def test_detrended_even_vanishes_at_center(self):
        # Route 3 drops these terms at t = 1/2, so every one must be an exact zero.
        assert eigenfunction(KernelKind.DETRENDED, 2, 0.5) == 0.0
        assert eigenfunction(KernelKind.DETRENDED, 8, 0.5) == 0.0
        f = eigenfunction_matrix(KernelKind.DETRENDED, 2 * 10**4, [0.5])
        assert np.all(f[1::2] == 0.0)

    @pytest.mark.parametrize("j", range(1, 8))
    def test_demeaned_alternates_at_one(self, j):
        expected = math.sqrt(2.0) * (-1.0) ** j
        assert eigenfunction(KernelKind.DEMEANED, j, 1.0) == expected

    @pytest.mark.parametrize("j", range(1, 6))
    def test_bridge_pinned_exactly(self, j):
        assert eigenfunction(KernelKind.BRIDGE, j, 0.0) == 0.0
        assert eigenfunction(KernelKind.BRIDGE, j, 1.0) == 0.0
        # The simulator's pinned end columns need every index to vanish exactly.
        assert np.all(eigenfunction_matrix(KernelKind.BRIDGE, 2 * 10**4, [0.0, 1.0]) == 0.0)

    def test_detrended_parity_about_center(self):
        for u in np.linspace(0.0, 0.5, 9):
            for j in (2, 4, 6):
                left = eigenfunction(KernelKind.DETRENDED, j, 0.5 - u)
                right = eigenfunction(KernelKind.DETRENDED, j, 0.5 + u)
                assert right == pytest.approx(-left, abs=1e-12)
            for j in (1, 3, 5):
                left = eigenfunction(KernelKind.DETRENDED, j, 0.5 - u)
                right = eigenfunction(KernelKind.DETRENDED, j, 0.5 + u)
                assert right == pytest.approx(left, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eigenfunction(KernelKind.WIENER, 1, 1.5)
        with pytest.raises(ValueError):
            eigenfunction(KernelKind.WIENER, 0, 0.5)

    def test_in_place_sinpi_matches_the_out_of_place_reduction(self):
        def reference(x):
            n = np.round(x)
            s = np.sin(np.pi * (x - n))
            return np.where(n % 2.0 == 0.0, s, -s)

        whole = np.arange(-2000.0, 2001.0)
        rng = np.random.default_rng(3)
        x = np.concatenate([
            whole, -whole, whole + 0.5, whole - 0.5, [0.0, -0.0, 2.0**52, -(2.0**53), 1e300],
            rng.uniform(-1e3, 1e3, 4000), rng.uniform(-1.0, 1.0, 4000),
        ])
        # Bit patterns, so a zero of the other sign is a mismatch too.
        expected = reference(x).view(np.int64)
        assert np.array_equal(eigen._sinpi(x).view(np.int64), expected)
        assert np.array_equal(eigen._sinpi(x[:, None]).ravel().view(np.int64), expected)
        assert np.signbit(expected.view(float)[x == np.round(x)]).any()

    def test_sinpi_peak_is_two_operands_and_a_mask(self, traced_peak):
        # The rounded copy and the result, plus one byte a value for the odd mask.
        x = np.linspace(-1000.0, 1000.0, 10**6)
        peak, _ = traced_peak(eigen._sinpi, x)
        assert peak <= 2.13 * x.nbytes

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("j_max", [1, 2, 7, 1000])
    def test_detrended_rows_match_per_row_reference(self, j_max, step):
        # Each row from its own closed form, bit for bit: the cosine for odd j, the
        # Bessel-root sine for even j = 2n, and the eigenvalue of the same branch.
        t = np.array([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
        matrix = eigenfunction_matrix(KernelKind.DETRENDED, j_max, t, step)
        lam = eigenvalues(KernelKind.DETRENDED, j_max, step)
        assert matrix.shape == (j_max, t.size) and lam.shape == (j_max,)
        for row, j in enumerate(range(1, step * j_max + 1, step)):
            if j % 2:
                expected = eigen.SQRT2 * eigen._sinpi((j + 1.0) * t + 0.5)
                expected_lam = (j + 1.0) ** 2 * eigen.PI_SQUARED
            else:
                n = j // 2
                z = bessel_roots(n)[-1:]
                sign = 1.0 if n % 2 else -1.0
                expected = sign * (eigen.SQRT2 / np.abs(np.sin(z))) * np.sin(2.0 * z * (t - 0.5))
                expected_lam = 4.0 * z[0] ** 2
            assert matrix[row].tobytes() == expected.tobytes(), j
            assert lam[row] == expected_lam, j

    def test_matrix_matches_scalar(self):
        t = np.array([0.0, 0.3, 0.5, 1.0])
        for kind in ALL_KINDS:
            matrix = eigenfunction_matrix(kind, 6, t)
            for j in range(1, 7):
                for col, x in enumerate(t):
                    assert matrix[j - 1, col] == eigenfunction(kind, j, float(x))


class TestOrthonormality:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_ten_orthonormal(self, kind):
        nodes, weights = gauss_legendre_01(256)
        f = eigenfunction_matrix(kind, 10, nodes)
        gram_matrix = (f * weights) @ f.T
        assert np.max(np.abs(gram_matrix - np.eye(10))) <= 1e-8

    @pytest.mark.parametrize("j", [2, 4, 10, 20])
    def test_even_detrended_normalized(self, j):
        nodes, weights = gauss_legendre_01(256)
        f = eigenfunction_matrix(KernelKind.DETRENDED, j, nodes)[j - 1]
        assert abs(float(np.dot(weights, f * f)) - 1.0) <= 1e-10


class TestCapitalLambda:
    """The squared peak of the even detrended eigenfunction f_j, at
    t = 1/2 + pi/(4 z_n) with n = j/2, is the amplitude constant
    Lambda_j = 2 / sin(z_n)^2."""

    @staticmethod
    def squared_peak(j):
        z = bessel_roots(j // 2)[-1]
        peak = eigenfunction_matrix(KernelKind.DETRENDED, j, [0.5 + PI / (4.0 * z)])[j - 1, 0]
        return peak**2

    def test_frozen_value(self):
        assert self.squared_peak(2) == pytest.approx(LAMBDA_2, rel=1e-13)

    @pytest.mark.parametrize("j", [2, 4, 6, 12, 20])
    def test_exceeds_two(self, j):
        assert self.squared_peak(j) > 2.0

    @pytest.mark.parametrize("j", [2, 4, 6, 12, 20])
    def test_reduction_identity(self, j):
        z = 0.5 * math.sqrt(eigenvalue(KernelKind.DETRENDED, j))
        assert self.squared_peak(j) * math.sin(z) ** 2 / 2.0 == pytest.approx(1.0, abs=1e-12)


class TestFredholmConsistency:
    """Each eigenpair must satisfy f(t) = lambda * int_0^1 k(s, t) f(s) ds.

    The quadrature is split at the kink s = t; away from the kink the
    integrand is smooth, so 64 nodes per piece are ample for j <= 5.
    """

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_spot_check(self, kind):
        rng = np.random.default_rng(2024)
        for j in range(1, 6):
            lam = eigenvalue(kind, j)
            for t in rng.random(20):
                integral = integrate_01(
                    lambda s, t=t, j=j: kernel_matrix(kind, s, [t])[:, 0]
                    * eigenfunction_matrix(kind, j, s)[j - 1],
                    n=64,
                    split_at=float(t),
                )
                f_t = eigenfunction_matrix(kind, j, np.array([t]))[j - 1, 0]
                assert abs(lam * integral - f_t) <= 1e-8


class TestEigenPair:
    """The scalar evaluators agree bit for bit with the vectorized ones, and
    the eigenfunctions are normalized."""

    def test_bundle_consistent(self):
        assert eigenvalue(KernelKind.DEMEANED, 4) == eigenvalues(KernelKind.DEMEANED, 4)[3]
        t = np.linspace(0.0, 1.0, 7)
        scalar = np.array([eigenfunction(KernelKind.DEMEANED, 4, x) for x in t])
        assert np.array_equal(scalar, eigenfunction_matrix(KernelKind.DEMEANED, 4, t)[3])

    def test_unit_norm(self):
        nodes, weights = gauss_legendre_01(256)
        for kind in ALL_KINDS:
            norm = float(np.dot(weights, eigenfunction_matrix(kind, 3, nodes)[2] ** 2))
            assert abs(norm - 1.0) <= 1e-10


class TestDiagonalSpot:
    def test_detrended_diagonal_at_one(self):
        # closed form of the detrended kernel on the diagonal boundary
        assert kernel_value(KernelKind.DETRENDED, 1.0, 1.0) == pytest.approx(
            2.0 / 15.0, abs=1e-15
        )
