"""Tests for the closed-form kernels and Gram matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klx import KernelKind, eigenvalues, gram, kernel_matrix, kernel_value
from klx.quadrature import integrate_01

ALL_KINDS = list(KernelKind)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPointValues:
    def test_wiener_is_min(self):
        assert kernel_value(KernelKind.WIENER, 0.3, 0.7) == 0.3
        assert kernel_value(KernelKind.WIENER, 1.0, 1.0) == 1.0

    def test_demeaned_corner_values(self):
        assert kernel_value(KernelKind.DEMEANED, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert kernel_value(KernelKind.DEMEANED, 0.0, 1.0) == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_detrended_center_value(self):
        assert kernel_value(KernelKind.DETRENDED, 0.5, 0.5) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_bridge_center_value(self):
        assert kernel_value(KernelKind.BRIDGE, 0.5, 0.5) == 0.25

    @given(unit_floats)
    @settings(max_examples=50, deadline=None)
    def test_bridge_pinned_at_endpoints(self, t):
        assert kernel_value(KernelKind.BRIDGE, t, 1.0) == 0.0
        assert kernel_value(KernelKind.BRIDGE, t, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_value(KernelKind.WIENER, -0.1, 0.5)
        with pytest.raises(ValueError):
            kernel_value(KernelKind.WIENER, 0.5, 1.5)
        with pytest.raises(ValueError):
            kernel_value(KernelKind.WIENER, float("nan"), 0.5)


def exact_kernel(kind: KernelKind, s: float, t: float) -> Fraction:
    """The closed forms evaluated in exact rational arithmetic."""
    s, t = Fraction(s), Fraction(t)
    m = min(s, t)
    if kind is KernelKind.WIENER:
        return m
    if kind is KernelKind.BRIDGE:
        return m - s * t
    if kind is KernelKind.DEMEANED:
        return m - (s + t) + (s * s + t * t) / 2 + Fraction(1, 3)
    return (
        m
        - Fraction(11, 10) * (s + t)
        + 2 * (s * s + t * t)
        - (s**3 + t**3)
        - 3 * (s * t * t + t * s * s)
        + 2 * (s * t**3 + t * s**3)
        + Fraction(6, 5) * s * t
        + Fraction(2, 15)
    )


class TestExactReference:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_within_eight_eps_of_exact(self, kind):
        rng = np.random.default_rng(1729)
        points = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
        points += [(float(s), float(t)) for s, t in rng.random((1000, 2))]
        bound = Fraction(8, 2**52)
        worst = max(abs(Fraction(kernel_value(kind, s, t)) - exact_kernel(kind, s, t))
                    for s, t in points)
        assert worst <= bound


class TestSymmetry:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(s=unit_floats, t=unit_floats)
    @settings(max_examples=250, deadline=None)
    def test_exact_symmetry(self, kind, s, t):
        assert kernel_value(kind, s, t) == kernel_value(kind, t, s)


class TestGram:
    def test_single_point(self):
        g = gram(KernelKind.WIENER, [1.0])
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == 1.0

    def test_demeaned_two_points(self):
        g = gram(KernelKind.DEMEANED, [0.0, 1.0])
        assert g.entries[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert g.entries[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert g.entries[0, 1] == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert g.entries[0, 1] == g.entries[1, 0]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_symmetric_to_zero_ulps(self, kind):
        grid = np.linspace(0.03, 0.97, 23)
        entries = gram(kind, grid).entries
        assert np.array_equal(entries, entries.T)

    def test_detrended_uniform_grid_is_psd(self):
        entries = gram(KernelKind.DETRENDED, np.linspace(0.0, 1.0, 11)).entries
        eigs = np.linalg.eigvalsh(entries)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(
        grid=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=64,
            unique=True,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_grids_psd(self, kind, grid):
        entries = gram(kind, sorted(grid)).entries
        eigs = np.linalg.eigvalsh(entries)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(points=st.integers(min_value=2, max_value=300).flatmap(
               lambda n: st.lists(unit_floats, min_size=n, max_size=n, unique=True)),
           endpoints=st.sampled_from([(), (0.0,), (1.0,), (0.0, 1.0)]))
    @settings(max_examples=25, deadline=None)
    def test_min_eigenvalue_within_rounding_of_zero(self, kind, points, endpoints):
        # A covariance is positive semidefinite, so rounding alone may push its
        # least eigenvalue below 0, by at most a few n * eps * max|K|.
        grid = sorted(set(points) | set(endpoints))
        entries = gram(kind, grid).entries
        bound = 4 * len(grid) * np.finfo(float).eps * np.abs(entries).max()
        assert np.linalg.eigvalsh(entries).min() >= -bound

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            gram(KernelKind.WIENER, [])
        with pytest.raises(ValueError):
            gram(KernelKind.WIENER, [0.5, 0.2])
        with pytest.raises(ValueError):
            gram(KernelKind.WIENER, [0.2, 0.2])
        with pytest.raises(ValueError):
            gram(KernelKind.WIENER, [0.0, 1.5])


class TestProjectionIdentities:
    """Demeaning kills the constant direction; detrending also kills the
    linear one.  Integrals split at the kink are exact for these piecewise
    cubics, so the tolerance can be tight."""

    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 20))
    def test_demeaned_integrates_to_zero(self, t):
        val = integrate_01(
            lambda s: kernel_matrix(KernelKind.DEMEANED, s, [t])[:, 0],
            n=64,
            split_at=float(t),
        )
        assert abs(val) <= 1e-10

    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 20))
    def test_detrended_kills_constant_and_linear(self, t):
        constant = integrate_01(
            lambda s: kernel_matrix(KernelKind.DETRENDED, s, [t])[:, 0],
            n=64,
            split_at=float(t),
        )
        linear = integrate_01(
            lambda s: s * kernel_matrix(KernelKind.DETRENDED, s, [t])[:, 0],
            n=64,
            split_at=float(t),
        )
        assert abs(constant) <= 1e-10
        assert abs(linear) <= 1e-10


class TestKindParsing:
    def test_parse_accepts_names(self):
        assert KernelKind.parse("wiener") is KernelKind.WIENER
        assert KernelKind.parse(" Bridge ") is KernelKind.BRIDGE

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            KernelKind.parse("ornstein")

    def test_non_kind_argument_rejected(self):
        with pytest.raises(KeyError, match="wiener"):
            kernel_value("wiener", 0.2, 0.5)
        with pytest.raises(KeyError, match="bridge"):
            eigenvalues("bridge", 3)


class TestKernelMatrix:
    def test_cross_grid_shape_and_values(self):
        x = np.array([0.0, 0.5])
        y = np.array([0.25, 0.75, 1.0])
        m = kernel_matrix(KernelKind.WIENER, x, y)
        assert m.shape == (2, 3)
        assert m[1, 2] == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_matrix(KernelKind.WIENER, [0.0, 2.0], [0.5])
