"""Tests for the Nystrom discretization of the kernel eigenproblem."""

import dataclasses
import math

import numpy as np
import pytest

import klx.kernels
import klx.nystrom
from klx import (
    KernelKind,
    compare_eigenpairs,
    eigenvalue,
    kernel_matrix,
    nystrom_solve,
)

ALL_KINDS = list(KernelKind)


def dense_top_eigenpairs(kind, n_nodes, n_eigs):
    """Reference route: full eigh of the symmetrised Gram, weight-normalised."""
    nodes, weights = klx.nystrom.gauss_legendre_01(n_nodes)
    sqrt_w = np.sqrt(weights)
    symmetrized = klx.nystrom.gram(kind, nodes).entries * np.outer(sqrt_w, sqrt_w)
    spectrum, vectors = np.linalg.eigh(symmetrized)
    return spectrum[::-1][:n_eigs], vectors[:, ::-1][:, :n_eigs] / sqrt_w[:, None]


def record_eigh_shapes(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recording(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


class TestSolutionInvariants:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weights_and_spectrum(self, kind):
        solution = nystrom_solve(kind, 64, 64)
        assert abs(solution.weights.sum() - 1.0) <= 1e-14
        # the operator is positive semidefinite up to rounding
        assert solution.eigenvalues.min() >= -1e-10
        assert (np.diff(solution.eigenvalues) <= 0).all()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weighted_orthonormality(self, kind):
        solution = nystrom_solve(kind, 200, 8)
        overlap = (solution.eigenvectors.T * solution.weights) @ solution.eigenvectors
        assert np.max(np.abs(overlap - np.eye(8))) <= 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_trace_identity(self, kind):
        # sum of all operator eigenvalues equals the quadrature of the diagonal
        solution = nystrom_solve(kind, 128, 128)
        diagonal = np.array([kernel_matrix(kind, [x], [x])[0, 0] for x in solution.nodes])
        assert abs(solution.eigenvalues.sum() - float(np.dot(solution.weights, diagonal))) <= 1e-8

    def test_wiener_trace_is_half(self):
        solution = nystrom_solve(KernelKind.WIENER, 128, 128)
        assert solution.eigenvalues.sum() == pytest.approx(0.5, abs=1e-8)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            nystrom_solve(KernelKind.WIENER, 16, 20)
        with pytest.raises(ValueError):
            nystrom_solve(KernelKind.WIENER, 8, 4)
        with pytest.raises(ValueError):
            nystrom_solve(KernelKind.WIENER, 64, 0)

    def test_node_cap_is_checked_before_quadrature(self, monkeypatch):
        class QuadratureReached(Exception):
            pass

        def reached(n):
            raise QuadratureReached(n)

        monkeypatch.setattr(klx.nystrom, "gauss_legendre_01", reached)
        cap = klx.nystrom._MAX_NODES
        with pytest.raises(ValueError, match=str(cap + 1)):
            nystrom_solve(KernelKind.WIENER, cap + 1, 5)
        with pytest.raises(QuadratureReached):
            nystrom_solve(KernelKind.WIENER, cap, 5)


class TestTopEigenpairSolver:
    @pytest.mark.parametrize("n_eigs", [1, 5])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_dense_eigh(self, kind, n_eigs):
        solution = nystrom_solve(kind, 400, n_eigs)
        mu, vectors = dense_top_eigenpairs(kind, 400, n_eigs)
        assert np.max(np.abs(solution.eigenvalues - mu) / mu) <= 1e-13
        signs = np.sign(np.sum(solution.weights[:, None] * solution.eigenvectors * vectors, axis=0))
        assert np.max(np.abs(solution.eigenvectors * signs - vectors)) <= 1e-12

    # 16 eigenpairs make the largest block, 40, that 400 nodes still iterate;
    # 45 make a block of 98 on 1000 nodes.
    @pytest.mark.parametrize(("n_nodes", "n_eigs", "max_steps"), [(400, 16, 12), (1000, 45, 8)])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_large_blocks_match_dense_eigh_to_the_residual_over_the_gap(
            self, monkeypatch, kind, n_nodes, n_eigs, max_steps):
        shapes = record_eigh_shapes(monkeypatch)
        solution = nystrom_solve(kind, n_nodes, n_eigs)
        steps = len(shapes)
        assert set(shapes) == {(2 * n_eigs + 8,) * 2}
        # From the Chebyshev block this stops after 7-10 Ritz steps at 400
        # nodes and 5-7 at 1000; a normal random start took 15-17 and 16-18.
        assert steps <= max_steps
        mu, vectors = dense_top_eigenpairs(kind, n_nodes, n_eigs + 1)
        assert np.max(np.abs(solution.eigenvalues - mu[:-1]) / mu[:-1]) <= 1e-13
        # A kept pair stops with a residual below 1e-14 * mu_1, so by
        # Davis-Kahan its unit vector is off by about that over its gap.  A
        # fixed bound cannot hold here: with mu_j 1e-4 apart, even the dense
        # reference moves its vectors by about 1e-12.
        gap = np.minimum(-np.diff(mu), np.r_[np.inf, -np.diff(mu[:-1])])
        sqrt_w = np.sqrt(solution.weights)[:, None]
        unit, reference = solution.eigenvectors * sqrt_w, vectors[:, :-1] * sqrt_w
        signs = np.sign(np.sum(unit * reference, axis=0))
        error = np.linalg.norm(unit * signs - reference, axis=0)
        assert np.all(error * gap <= 2e-14 * mu[0])

    def test_repeat_is_byte_identical(self):
        first = nystrom_solve(KernelKind.DETRENDED, 400, 5)
        second = nystrom_solve(KernelKind.DETRENDED, 400, 5)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_small_block_iterates(self, monkeypatch):
        # block 2*16 + 8 = 40 is 1/10 of 400 nodes: only 40 x 40 Ritz problems
        shapes = record_eigh_shapes(monkeypatch)
        nystrom_solve(KernelKind.WIENER, 400, 16)
        assert len(shapes) > 1
        assert set(shapes) == {(40, 40)}

    def test_large_block_takes_one_whole_space_eigh(self, monkeypatch):
        # block 2*17 + 8 = 42 exceeds 1/10 of 400 nodes
        shapes = record_eigh_shapes(monkeypatch)
        solution = nystrom_solve(KernelKind.WIENER, 400, 17)
        assert shapes == [(400, 400)]
        mu, vectors = dense_top_eigenpairs(KernelKind.WIENER, 400, 17)
        assert solution.eigenvalues.tobytes() == mu.tobytes()
        assert solution.eigenvectors.tobytes() == vectors.tobytes()

    @pytest.mark.parametrize(("n_nodes", "n_eigs", "side"), [
        # The golden configs, the oracle workload, and requests on each side of the choice
        (100, 5, "dense"), (300, 20, "dense"), (128, 3, "dense"), (4096, 400, "dense"),
        (500, 3, "iterated"), (2000, 5, "iterated"), (4096, 150, "iterated"),
    ])
    def test_side_taken(self, monkeypatch, n_nodes, n_eigs, side):
        # Each side stops at its first step: the dense side builds the Gram
        # matrix, the iterated side applies the operator matrix-free.
        class Taken(Exception):
            pass

        def stop(name):
            def raising(*args):
                raise Taken(name)
            return raising

        monkeypatch.setattr(klx.nystrom, "gram", stop("dense"))
        monkeypatch.setattr(klx.nystrom, "_kernel_apply", stop("iterated"))
        nodes = np.linspace(0.0, 1.0, n_nodes)
        with pytest.raises(Taken, match=side):
            klx.nystrom._top_eigenpairs(KernelKind.DETRENDED, nodes, np.ones(n_nodes), n_eigs)

    def test_iteration_cap_raises_runtime_error(self, monkeypatch):
        monkeypatch.setattr(klx.nystrom, "_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="failed to converge on 400 nodes"):
            nystrom_solve(KernelKind.WIENER, 400, 5)


class TestMatrixFreeOperator:
    @pytest.mark.parametrize("n_nodes", [16, 400, 2000])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_apply_matches_dense_symmetrised_gram(self, kind, n_nodes):
        nodes, weights = klx.nystrom.gauss_legendre_01(n_nodes)
        sqrt_w = np.sqrt(weights)
        block = np.random.default_rng(n_nodes).standard_normal((n_nodes, 18))
        dense = klx.nystrom.gram(kind, nodes).entries * np.outer(sqrt_w, sqrt_w) @ block
        scale = sqrt_w[:, None]
        applied = scale * klx.kernels._kernel_apply(kind, nodes, scale * block)
        assert np.max(np.abs(applied - dense)) <= 1e-15

    def test_dropping_the_correction_fails_the_oracle(self, monkeypatch):
        # Negative control: with the detrended table zeroed the apply is the
        # Wiener operator, and the oracle gate must notice.  The Gram is never
        # built on this (iterated) side, so only the apply sees the change.
        def no_gram(kind, grid):
            raise AssertionError("the iterated side built the Gram matrix")

        monkeypatch.setattr(klx.nystrom, "gram", no_gram)
        assert compare_eigenpairs(KernelKind.DETRENDED, 5, 400).passes()
        monkeypatch.setitem(klx.kernels._COEFFICIENTS, KernelKind.DETRENDED, np.zeros((4, 4)))
        assert not compare_eigenpairs(KernelKind.DETRENDED, 5, 400).passes()


class TestEigenvalueAccuracy:
    def test_wiener_fundamental_mode(self):
        solution = nystrom_solve(KernelKind.WIENER, 400, 1)
        assert solution.eigenvalues[0] == pytest.approx(4.0 / math.pi**2, rel=1e-4)
        assert 1.0 / solution.eigenvalues[0] == pytest.approx(math.pi**2 / 4.0, rel=1e-4)

    def test_demeaned_third_mode(self):
        solution = nystrom_solve(KernelKind.DEMEANED, 400, 3)
        assert 1.0 / solution.eigenvalues[2] == pytest.approx(9.0 * math.pi**2, rel=1e-3)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_refinement_decreases_error(self, kind):
        lam_true = eigenvalue(kind, 1)
        errors = []
        for n_nodes in (100, 200, 400):
            mu = nystrom_solve(kind, n_nodes, 1).eigenvalues[0]
            errors.append(abs(1.0 / mu - lam_true) / lam_true)
        assert errors[0] >= errors[1] >= errors[2]


class TestComparison:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_modes_match_at_moderate_resolution(self, kind):
        comparison = compare_eigenpairs(kind, 5, 400)
        assert comparison.passes()
        for rel_error, max_deviation in zip(comparison.rel_error, comparison.max_deviation):
            assert rel_error <= 1e-3
            assert max_deviation <= 1e-3

    def test_detrended_even_rows_are_root_eigenvalues(self):
        comparison = compare_eigenpairs(KernelKind.DETRENDED, 6, 400)
        for j, analytic, nystrom in zip(comparison.j.tolist(), comparison.analytic,
                                        comparison.nystrom):
            assert analytic == eigenvalue(KernelKind.DETRENDED, j)
            assert nystrom == pytest.approx(analytic, rel=1e-3)

    def test_bridge_modes_match(self):
        comparison = compare_eigenpairs(KernelKind.BRIDGE, 5, 400)
        for j, analytic, rel_error in zip(comparison.j.tolist(), comparison.analytic,
                                          comparison.rel_error):
            assert analytic == pytest.approx(j**2 * math.pi**2, rel=1e-15)
            assert rel_error <= 1e-3

    def test_sign_agnostic_eigenvector_match(self):
        # deviations are measured after sign alignment, so they are small even
        # though the raw eigensolver sign is arbitrary
        comparison = compare_eigenpairs(KernelKind.DEMEANED, 5, 400)
        assert comparison.max_deviation.max() <= 1e-3

    def test_refuses_a_non_positive_operator_eigenvalue(self, monkeypatch):
        def third_eigenvalue_zero(kind, n_nodes, n_eigs):
            solution = nystrom_solve(kind, n_nodes, n_eigs)
            mu = solution.eigenvalues.copy()
            mu[2] = 0.0
            return dataclasses.replace(solution, eigenvalues=mu)

        monkeypatch.setattr(klx.nystrom, "nystrom_solve", third_eigenvalue_zero)
        with pytest.raises(RuntimeError, match="operator eigenvalue 3 is not positive"):
            compare_eigenpairs(KernelKind.WIENER, 5, 64)

