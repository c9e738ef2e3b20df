"""Tests for the unit-interval Gauss-Legendre helpers."""

import mpmath
import numpy as np
import pytest

from klx.quadrature import gauss_legendre_01


def mp_legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in mpmath."""
    p_prev, p = mpmath.mpf(1), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1)


def mp_legendre_node(n, x0):
    """Node near x0 and its weight on [0, 1] by 40-digit Newton on P_n."""
    with mpmath.workdps(40):
        x = mpmath.mpf(2 * x0 - 1)
        for _ in range(6):
            p, dp = mp_legendre(n, x)
            x -= p / dp
        return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


def test_mpmath_reference_matches_closed_form_at_five_nodes():
    with mpmath.workdps(40):
        inner = mpmath.sqrt(5 - 2 * mpmath.sqrt(mpmath.mpf(10) / 7)) / 3
        outer = mpmath.sqrt(5 + 2 * mpmath.sqrt(mpmath.mpf(10) / 7)) / 3
        exact = [(0, mpmath.mpf(128) / 225),
                 (inner, (322 + 13 * mpmath.sqrt(70)) / 900),
                 (outer, (322 - 13 * mpmath.sqrt(70)) / 900)]
        for x, w in exact:
            node, weight = mp_legendre_node(5, float((x + 1) / 2) + 1e-3)
            assert abs(node - (x + 1) / 2) < mpmath.mpf(10) ** -35
            assert abs(weight - w / 2) < mpmath.mpf(10) ** -35


@pytest.mark.parametrize("n, indices", [
    (5, range(5)),
    (64, range(64)),
    (2000, (0, 700, 1000, 1999)),
], ids=["5", "64", "2000"])
def test_nodes_and_weights_match_mpmath_newton(n, indices):
    nodes, weights = gauss_legendre_01(n)
    weight_rtol = 1e-12 if n <= 64 else 1e-9
    for i in indices:
        node, weight = mp_legendre_node(n, nodes[i])
        # absolute on [0, 1]: the map (x + 1)/2 itself rounds
        assert abs(nodes[i] - node) <= 2e-16, i
        assert abs(weights[i] / weight - 1) <= weight_rtol, i


@pytest.mark.parametrize("n", [2000, 4096])
def test_end_weights_match_mpmath_at_the_same_node(n):
    # Near x = -1, dividing by x^2 - 1 cost the weights up to 1.5e-10.  The
    # end nodes map to [0, 1] exactly, so the 40-digit weight formula is
    # evaluated at the very x the rule used, with no Newton step.
    nodes, weights = gauss_legendre_01(n)
    for i in range(4):
        with mpmath.workdps(40):
            x = 2 * mpmath.mpf(nodes[i]) - 1
            _, dp = mp_legendre(n, x)
            weight = 1 / ((1 - x * x) * dp * dp)
        assert abs(weights[i] / weight - 1) <= 2e-11, i


@pytest.mark.parametrize("n", [1, 2, 5, 64, 101, 2000])
def test_rule_is_symmetric(n):
    nodes, weights = gauss_legendre_01(n)
    assert np.array_equal(weights, weights[::-1])
    if n % 2:
        assert nodes[n // 2] == 0.5


def test_arrays_are_read_only():
    nodes, weights = gauss_legendre_01(8)
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 16, 64, 256, 1000])
def test_weights_sum_to_one(n):
    _, weights = gauss_legendre_01(n)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert (weights > 0).all()


def test_nodes_inside_and_increasing(n=64):
    nodes, _ = gauss_legendre_01(n)
    assert nodes[0] > 0.0 and nodes[-1] < 1.0
    assert (np.diff(nodes) > 0).all()


def test_polynomial_exactness():
    # n-point rule integrates degree 2n-1 exactly; check x^9 with 5 nodes
    nodes, weights = gauss_legendre_01(5)
    assert float(np.dot(weights, nodes**9)) == pytest.approx(0.1, abs=1e-15)


def test_split_handles_kink(integrate_split):
    # |x - 0.4| integrates to 0.4^2/2 + 0.6^2/2 = 0.26
    val = integrate_split(lambda x: np.abs(x - 0.4), 0.4, n=16)
    assert val == pytest.approx(0.26, abs=1e-15)


def test_split_at_endpoint_degenerates_gracefully(integrate_split):
    assert integrate_split(lambda x: x, 0.0, n=8) == pytest.approx(0.5, abs=1e-15)
    assert integrate_split(lambda x: x, 1.0, n=8) == pytest.approx(0.5, abs=1e-15)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_legendre_01(0)
