"""Tests for Mercer partial sums and the zeta(2) pipelines."""

import math

import numpy as np
import pytest

from klx import (
    ZETA2,
    KernelKind,
    basel_estimate,
    eigenfunction,
    eigenvalue,
    kernel_value,
    mercer_partial,
    mercer_terms,
    odd_squares_partial,
    proof_report,
    proof_tail_bound,
    truncated_covariance,
    zeta_partial,
)
from klx import eigen, mercer, series
from klx.series import _kahan

ALL_KINDS = list(KernelKind)


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1e-300))


class TestMercerPartial:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_term(self, kind):
        t = 0.37
        expected = eigenfunction(kind, 1, t) ** 2 / eigenvalue(kind, 1)
        assert mercer_partial(kind, t, 1) == pytest.approx(expected, rel=1e-15)

    def test_wiener_diagonal_at_one(self):
        assert mercer_partial(KernelKind.WIENER, 1.0, 10**4) == pytest.approx(1.0, abs=1e-3)

    def test_demeaned_diagonal_at_one(self):
        assert mercer_partial(KernelKind.DEMEANED, 1.0, 10**4) == pytest.approx(
            1.0 / 3.0, abs=1e-4
        )

    def test_detrended_diagonal_at_center(self):
        assert mercer_partial(KernelKind.DETRENDED, 0.5, 10**4) == pytest.approx(
            1.0 / 12.0, abs=1e-4
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_pointwise_convergence_to_diagonal(self, kind, t):
        diag = kernel_value(kind, t, t)
        err_coarse = abs(mercer_partial(kind, t, 1000) - diag)
        err_fine = abs(mercer_partial(kind, t, 10000) - diag)
        assert err_fine <= 1e-3
        if err_coarse == 0.0:
            # degenerate diagonal points (all eigenfunctions vanish there)
            assert err_fine == 0.0
        else:
            assert err_fine < err_coarse

    def test_even_detrended_terms_vanish_at_center(self):
        terms = mercer_terms(KernelKind.DETRENDED, 0.5, 40)
        assert (np.abs(terms[1::2]) < 1e-28).all()
        assert (terms[0::2] > 0).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mercer_partial(KernelKind.WIENER, 0.5, 0)
        with pytest.raises(ValueError):
            mercer_partial(KernelKind.WIENER, 1.5, 10)


class TestBaselEstimates:
    def test_route1_single_term(self):
        assert basel_estimate(1, 1) == 4.0 / 3.0

    def test_route3_single_term_is_one(self):
        assert ulps_apart(basel_estimate(3, 1), 1.0) <= 4.0

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_converges(self, proof):
        assert basel_estimate(proof, 10**5) == pytest.approx(ZETA2, abs=1e-4)

    @pytest.mark.parametrize("j_terms", [1, 10, 1000])
    def test_route2_equals_zeta_partial_to_4_ulps(self, j_terms):
        assert ulps_apart(basel_estimate(2, j_terms), zeta_partial(2.0, j_terms).value) <= 4.0

    @pytest.mark.parametrize("j_terms", [1, 10, 1000, 10**4])
    def test_route1_literal_form_agrees_to_4_ulps(self, j_terms):
        literal = ZETA2 * mercer_partial(KernelKind.WIENER, 1.0, j_terms)
        assert ulps_apart(basel_estimate(1, j_terms), literal) <= 4.0

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_monotone_increasing_below_limit(self, proof):
        values = [basel_estimate(proof, j) for j in (1, 2, 5, 10, 50, 200, 1000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < ZETA2 for v in values)

    def test_cross_route_agreement(self):
        estimates = [basel_estimate(p, 10**5) for p in (1, 2, 3)]
        for a in estimates:
            for b in estimates:
                assert abs(a - b) <= 2e-5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            basel_estimate(4, 10)
        with pytest.raises(ValueError):
            basel_estimate(1, 0)


class TestTailBounds:
    @pytest.mark.parametrize("proof", [1, 2, 3])
    @pytest.mark.parametrize("j_terms", [1, 10, 100, 1000, 10**4, 10**5])
    def test_bounds_are_honest(self, proof, j_terms):
        err = ZETA2 - basel_estimate(proof, j_terms)
        assert 0.0 < err <= proof_tail_bound(proof, j_terms)

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_bounds_are_sharp_within_factor_four(self, proof):
        j_terms = 100
        err = ZETA2 - basel_estimate(proof, j_terms)
        assert proof_tail_bound(proof, j_terms) <= 4.0 * err

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            proof_tail_bound(1, 0)
        with pytest.raises(ValueError):
            proof_tail_bound(0, 10)


class TestConvergenceReport:
    def test_rows_and_pass(self):
        report = proof_report(2, [10, 100, 1000])
        assert report.proof_id == "Proof2"
        assert [row.j_terms for row in report.rows] == [10, 100, 1000]
        estimates = [row.estimate for row in report.rows]
        assert all(a < b for a, b in zip(estimates, estimates[1:]))
        assert report.passes()
        for row in report.rows:
            assert row.abs_error <= row.tail_bound

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            proof_report(1, [])

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_refuses_level_above_cap_before_building_terms(self, proof, monkeypatch):
        def refuse(*args):
            raise AssertionError("terms built for a refused level")

        monkeypatch.setattr(mercer, "mercer_terms", refuse)
        monkeypatch.setattr(mercer, "_kahan", refuse)
        monkeypatch.setattr(series, "_kahan", refuse)
        with pytest.raises(ValueError, match=str(series._MAX_TERMS + 1)):
            proof_report(proof, [10, series._MAX_TERMS + 1])

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_accepts_level_at_cap(self, proof, monkeypatch):
        requested, sums = [], []

        def stub_terms(kind, t, n, step):
            requested.append((n, step))
            return np.zeros(0)

        def stub_sum(terms):
            sums.append(terms)
            return 0.0

        monkeypatch.setattr(mercer, "mercer_terms", stub_terms)
        monkeypatch.setattr(mercer, "_kahan", stub_sum)
        monkeypatch.setattr(series, "_kahan", stub_sum)
        report = proof_report(proof, [series._MAX_TERMS])
        assert [row.j_terms for row in report.rows] == [series._MAX_TERMS]
        assert len(sums) == 1
        # Route 3 asks for J odd-index terms (step 2), not 2J terms of every index.
        assert requested == ([] if proof == 1 else [(series._MAX_TERMS, 2 if proof == 3 else 1)])

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_levels_match_per_level_sums_in_request_order(self, proof):
        levels = [1000, 10, 1000, 1, 100000, 37]
        per_level = {
            1: lambda j: (4.0 / 3.0) * _kahan((2 * k - 1) ** -2.0 for k in range(1, j + 1)),
            2: lambda j: (math.pi**2 / 2.0) * mercer_partial(KernelKind.DEMEANED, 1.0, j),
            3: lambda j: (2.0 * math.pi**2) * mercer_partial(KernelKind.DETRENDED, 0.5, 2 * j),
        }[proof]
        report = proof_report(proof, levels)
        assert [row.j_terms for row in report.rows] == levels
        assert [row.estimate for row in report.rows] == [per_level(j) for j in levels]

    @pytest.mark.parametrize("proof, j_max", [(3, 1000), (2, 1000)])
    def test_each_route_builds_its_terms_once(self, proof, j_max, monkeypatch):
        calls = []

        def counting(kind, t, n, step):
            calls.append((n, step))
            return mercer_terms(kind, t, n, step)

        monkeypatch.setattr(mercer, "mercer_terms", counting)
        proof_report(proof, [10, 1000, 100])
        assert calls == [(j_max, 2 if proof == 3 else 1)]

    def test_route3_solves_no_bessel_root(self, monkeypatch):
        def refuse(n_max):
            raise AssertionError("route 3 solved a Bessel root")

        monkeypatch.setattr(eigen, "_solve_roots", refuse)
        monkeypatch.setattr(eigen, "_roots_cache", np.empty(0))
        report = proof_report(3, [1, 10, 1000, 10**5])
        assert report.passes()
        with pytest.raises(AssertionError, match="Bessel root"):
            mercer_terms(KernelKind.DETRENDED, 0.5, 2)

    def test_route3_terms_are_the_odd_indices_of_the_full_range(self):
        j_terms = 10**5
        full = mercer_terms(KernelKind.DETRENDED, 0.5, 2 * j_terms)
        odd = mercer_terms(KernelKind.DETRENDED, 0.5, j_terms, 2)
        assert odd.tobytes() == full[0::2].tobytes()
        assert (full[1::2] == 0.0).all()

    def test_ladder_matches_reference_routes_bit_for_bit(self):
        ladder = [1, 10, 10**3, 10**5, 10**6]
        route1 = [(4.0 / 3.0) * odd_squares_partial(j - 1).value for j in ladder]
        route3 = [(2.0 * math.pi**2) * mercer_partial(KernelKind.DETRENDED, 0.5, 2 * j)
                  for j in ladder]
        assert [row.estimate for row in proof_report(1, ladder).rows] == route1
        assert [row.estimate for row in proof_report(3, ladder).rows] == route3

    def test_chunked_sum_equals_fsum_across_chunk_edges(self):
        terms = np.random.default_rng(7).standard_normal(3 * mercer._CHUNK + 5) * 1e3
        for count in (0, 1, mercer._CHUNK, mercer._CHUNK + 1, terms.size):
            assert mercer._sum_array(terms[:count]) == math.fsum(terms[:count].tolist())


class TestTruncatedCovariance:
    def test_diagonal_matches_mercer_partial(self):
        val = truncated_covariance(KernelKind.DEMEANED, 0.3, 0.3, 50)
        assert val == pytest.approx(mercer_partial(KernelKind.DEMEANED, 0.3, 50), rel=1e-15)

    def test_symmetric(self):
        a = truncated_covariance(KernelKind.WIENER, 0.2, 0.9, 100)
        b = truncated_covariance(KernelKind.WIENER, 0.9, 0.2, 100)
        assert a == b

    def test_converges_to_kernel(self):
        approx = truncated_covariance(KernelKind.BRIDGE, 0.25, 0.7, 5000)
        assert approx == pytest.approx(kernel_value(KernelKind.BRIDGE, 0.25, 0.7), abs=1e-3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_covariance(KernelKind.WIENER, -0.1, 0.5, 10)
