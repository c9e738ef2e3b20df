"""Tests for Mercer partial sums and the zeta(2) pipelines."""

import math
from functools import partial

import numpy as np
import pytest

from klx import (
    ZETA2,
    KernelKind,
    basel_estimate,
    eigenfunction,
    eigenfunction_matrix,
    eigenvalue,
    eigenvalues,
    kernel_matrix,
    odd_squares_partial,
    proof_report,
    proof_tail_bound,
    truncated_covariance,
    zeta_partial,
)
from klx import eigen, mercer, series

ALL_KINDS = list(KernelKind)


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1e-300))


class TestMercerPartial:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_term(self, kind):
        t = 0.37
        expected = eigenfunction(kind, 1, t) ** 2 / eigenvalue(kind, 1)
        assert truncated_covariance(kind, t, t, 1) == pytest.approx(expected, rel=1e-15)

    def test_wiener_diagonal_at_one(self):
        assert truncated_covariance(KernelKind.WIENER, 1.0, 1.0, 10**4) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_demeaned_diagonal_at_one(self):
        assert truncated_covariance(KernelKind.DEMEANED, 1.0, 1.0, 10**4) == pytest.approx(
            1.0 / 3.0, abs=1e-4
        )

    def test_detrended_diagonal_at_center(self):
        assert truncated_covariance(KernelKind.DETRENDED, 0.5, 0.5, 10**4) == pytest.approx(
            1.0 / 12.0, abs=1e-4
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_pointwise_convergence_to_diagonal(self, kind, t):
        diag = kernel_matrix(kind, [t], [t])[0, 0]
        err_coarse = abs(truncated_covariance(kind, t, t, 1000) - diag)
        err_fine = abs(truncated_covariance(kind, t, t, 10000) - diag)
        assert err_fine <= 1e-3
        if err_coarse == 0.0:
            # degenerate diagonal points (all eigenfunctions vanish there)
            assert err_fine == 0.0
        else:
            assert err_fine < err_coarse

    def test_even_detrended_terms_vanish_at_center(self):
        f = eigenfunction_matrix(KernelKind.DETRENDED, 40, 0.5)[:, 0]
        terms = f * f / eigenvalues(KernelKind.DETRENDED, 40)
        assert (np.abs(terms[1::2]) < 1e-28).all()
        assert (terms[0::2] > 0).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            truncated_covariance(KernelKind.WIENER, 0.5, 0.5, 0)
        with pytest.raises(ValueError):
            truncated_covariance(KernelKind.WIENER, 1.5, 1.5, 10)


class TestBlockedTerms:
    """``proof_report`` fills the Mercer terms through ``_mercer_fill`` one block of
    ``series._BLOCK`` rows at a time, each block from its own eigenpairs alone."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("j_max", [1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
    def test_equals_the_unblocked_terms(self, kind, j_max, fill_blocks):
        for step in (1, 2):
            lam = eigen.eigenvalues(kind, j_max, step)
            for t in (0.0, 0.3, 0.5, 1.0):
                f = eigen.eigenfunction_matrix(kind, j_max, t, step)[:, 0]
                blocked = fill_blocks(j_max, partial(mercer._mercer_fill, kind, t, step))
                assert blocked.tobytes() == (f * f / lam).tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("step", [1, 2])
    def test_peak_is_the_terms_and_one_block(self, kind, step, traced_peak, fill_blocks):
        # The Bessel root cache lives on between calls, so it is grown first: its 4 MB for
        # the detrended step 1 are the cache's, not the fill's.
        eigen.bessel_roots(10**6 // 2)
        peak, terms = traced_peak(fill_blocks, 10**6, partial(mercer._mercer_fill, kind, 0.3, step))
        assert peak < 1.25 * terms.nbytes


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
        assert ulps_apart(basel_estimate(2, j_terms), zeta_partial(2.0, j_terms)) <= 4.0

    @pytest.mark.parametrize("j_terms", [1, 10, 1000, 10**4])
    def test_route1_literal_form_agrees_to_4_ulps(self, j_terms):
        literal = ZETA2 * truncated_covariance(KernelKind.WIENER, 1.0, 1.0, j_terms)
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
        assert list(report.j_terms) == [10, 100, 1000]
        estimates = report.estimate.tolist()
        assert all(a < b for a, b in zip(estimates, estimates[1:]))
        assert report.passes()
        for abs_error, tail_bound in zip(report.abs_error, report.tail_bound):
            assert abs_error <= tail_bound

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            proof_report(1, [])

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_refuses_level_above_cap_before_building_terms(self, proof, monkeypatch):
        def refuse(*args):
            raise AssertionError("terms built for a refused level")

        monkeypatch.setattr(mercer, "_mercer_fill", refuse)
        monkeypatch.setattr(mercer, "_power_fill", refuse)
        monkeypatch.setattr(mercer, "_kahan", refuse)
        monkeypatch.setattr(series, "_kahan", refuse)
        with pytest.raises(ValueError, match=str(series._MAX_TERMS + 1)):
            proof_report(proof, [10, series._MAX_TERMS + 1])

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_accepts_level_at_cap(self, proof, monkeypatch):
        rows, sums = [], []

        def stub_fill(*args):
            *_, step, block, first = args
            rows.append((first, block.size, step))
            block[:] = 0.0

        def stub_sum(terms):
            sums.append(terms)
            return 0.0

        monkeypatch.setattr(mercer, "_mercer_fill", stub_fill)
        monkeypatch.setattr(mercer, "_power_fill", stub_fill)
        monkeypatch.setattr(series, "_kahan", stub_sum)
        report = proof_report(proof, [series._MAX_TERMS])
        assert list(report.j_terms) == [series._MAX_TERMS]
        assert len(sums) == 1
        # Each of the J rows filled once.  Route 3 fills J odd-index terms (step 2), not 2J
        # terms of every index; route 1 the odd squares, route 2 every index.
        assert sorted(first for first, _, _ in rows) == list(
            range(0, series._MAX_TERMS, series._BLOCK))
        assert sum(size for _, size, _ in rows) == series._MAX_TERMS
        assert {step for _, _, step in rows} == {1 if proof == 2 else 2}

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_levels_match_per_level_sums_in_request_order(self, proof):
        levels = [1000, 10, 1000, 1, 100000, 37]
        per_level = {
            1: lambda j: (4.0 / 3.0) * math.fsum((2 * k - 1) ** -2.0 for k in range(1, j + 1)),
            2: lambda j: (math.pi**2 / 2.0) * truncated_covariance(KernelKind.DEMEANED,
                                                                   1.0, 1.0, j),
            3: lambda j: (2.0 * math.pi**2) * truncated_covariance(KernelKind.DETRENDED,
                                                                   0.5, 0.5, 2 * j),
        }[proof]
        report = proof_report(proof, levels)
        assert list(report.j_terms) == levels
        assert report.estimate.tolist() == [per_level(j) for j in levels]

    @pytest.mark.parametrize("proof, j_max", [(3, 1000), (2, 1000), (3, 40000), (2, 40000)])
    def test_each_route_builds_its_terms_once(self, proof, j_max, monkeypatch):
        calls = []
        fill = mercer._mercer_fill

        def counting(kind, t, step, block, first):
            calls.append((first, block.size, step))
            fill(kind, t, step, block, first)

        monkeypatch.setattr(mercer, "_mercer_fill", counting)
        proof_report(proof, [10, j_max, 100])
        # Each row filled once, in blocks, last block first.
        firsts = list(range(0, j_max, series._BLOCK))[::-1]
        assert [first for first, _, _ in calls] == firsts
        assert sum(size for _, size, _ in calls) == j_max
        assert {step for _, _, step in calls} == {2 if proof == 3 else 1}

    @pytest.mark.parametrize("proof", [1, 2, 3])
    def test_holds_one_block_not_the_terms(self, proof, traced_peak):
        # 10**6 terms are 8 MB as an array; the walk holds a block, its work buffer and one
        # block's eigenpair temporaries.
        peak, report = traced_peak(proof_report, proof, [10**6])
        assert peak < 2**20
        assert report.passes()

    def test_route3_solves_no_bessel_root(self, monkeypatch):
        def refuse(n_max):
            raise AssertionError("route 3 solved a Bessel root")

        monkeypatch.setattr(eigen, "_solve_roots", refuse)
        monkeypatch.setattr(eigen, "_roots_cache", np.empty(0))
        report = proof_report(3, [1, 10, 1000, 10**5])
        assert report.passes()
        with pytest.raises(AssertionError, match="Bessel root"):
            mercer._mercer_fill(KernelKind.DETRENDED, 0.5, 1, np.empty(2), 0)

    def test_route3_terms_are_the_odd_indices_of_the_full_range(self, fill_blocks):
        j_terms = 10**5
        full = fill_blocks(2 * j_terms, partial(mercer._mercer_fill, KernelKind.DETRENDED, 0.5, 1))
        odd = fill_blocks(j_terms, partial(mercer._mercer_fill, KernelKind.DETRENDED, 0.5, 2))
        assert odd.tobytes() == full[0::2].tobytes()
        assert (full[1::2] == 0.0).all()

    def test_ladder_matches_reference_routes_bit_for_bit(self):
        ladder = [1, 10, 10**3, 10**5, 10**6]
        route1 = [(4.0 / 3.0) * odd_squares_partial(j - 1) for j in ladder]
        route3 = [(2.0 * math.pi**2)
                  * truncated_covariance(KernelKind.DETRENDED, 0.5, 0.5, 2 * j) for j in ladder]
        assert proof_report(1, ladder).estimate.tolist() == route1
        assert proof_report(3, ladder).estimate.tolist() == route3


#: Pairs for the sequence form: repeated, swapped and s = t pairs, endpoints included.
_BATCH_S = [0.3, 0.7, 0.3, 0.0, 0.5, 1.0, 0.3337, 0.25, 0.3, 1.0]
_BATCH_T = [0.7, 0.3, 0.7, 0.0, 0.5, 0.0, 0.6663, 0.25, 0.7, 1.0]


class TestTruncatedCovariance:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("j_max", [1, 7, 1000])
    def test_sequences_equal_the_scalar_calls_byte_for_byte(self, kind, j_max):
        batch = truncated_covariance(kind, _BATCH_S, _BATCH_T, j_max)
        assert batch.dtype == np.float64 and batch.shape == (len(_BATCH_S),)
        scalars = [truncated_covariance(kind, s, t, j_max) for s, t in zip(_BATCH_S, _BATCH_T)]
        assert all(type(value) is float for value in scalars)
        assert batch.tobytes() == np.array(scalars).tobytes()
        assert truncated_covariance(kind, np.array([0.4]), [0.4], j_max).shape == (1,)
        assert truncated_covariance(kind, [], [], j_max).shape == (0,)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("j_max", [1, 7, 1000])
    def test_diagonal_is_the_sum_of_the_mercer_terms(self, kind, j_max):
        lam = eigenvalues(kind, j_max)
        for t in (0.0, 0.3, 0.5, 1.0):
            f = eigenfunction_matrix(kind, j_max, t)[:, 0]
            expected = math.fsum(f * f / lam).hex()
            assert truncated_covariance(kind, t, t, j_max).hex() == expected
            assert truncated_covariance(kind, [0.9, t], [0.1, t], j_max)[1].hex() == expected

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_bad_sequences_are_refused_before_any_evaluation(self, bad, monkeypatch):
        calls = []
        matrix = mercer.eigenfunction_matrix
        monkeypatch.setattr(mercer, "eigenfunction_matrix",
                            lambda *args: calls.append(args) or matrix(*args))
        for s, t, name in (([0.2, bad], [0.3, 0.4], "s"), ([0.2, 0.3], [bad, 0.4], "t")):
            with pytest.raises(ValueError, match=f"^{name} must lie in"):
                truncated_covariance(KernelKind.WIENER, s, t, 10)
        for s, t in (([0.2, 0.3], [0.4]), (0.2, [0.4]), ([[0.2]], [[0.4]])):
            with pytest.raises(ValueError, match="1-D sequences of one length"):
                truncated_covariance(KernelKind.WIENER, s, t, 10)
        assert calls == []
        truncated_covariance(KernelKind.WIENER, [0.2], [0.4], 10)
        assert len(calls) == 1

    def test_symmetric(self):
        a = truncated_covariance(KernelKind.WIENER, 0.2, 0.9, 100)
        b = truncated_covariance(KernelKind.WIENER, 0.9, 0.2, 100)
        assert a == b

    def test_converges_to_kernel(self):
        approx = truncated_covariance(KernelKind.BRIDGE, 0.25, 0.7, 5000)
        assert approx == pytest.approx(kernel_matrix(KernelKind.BRIDGE, [0.25], [0.7])[0, 0],
                                       abs=1e-3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_covariance(KernelKind.WIENER, -0.1, 0.5, 10)
