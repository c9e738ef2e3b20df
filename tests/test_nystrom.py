"""Tests for the Nystrom discretization of the kernel eigenproblem."""

import math

import numpy as np
import pytest

import klx.kernels
import klx.nystrom
from klx import (
    KernelKind,
    compare_eigenpairs,
    eigenvalue,
    kernel_value,
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
        diagonal = np.array([kernel_value(kind, float(x), float(x)) for x in solution.nodes])
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

    def test_repeat_is_byte_identical(self):
        first = nystrom_solve(KernelKind.DETRENDED, 400, 5)
        second = nystrom_solve(KernelKind.DETRENDED, 400, 5)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_small_block_iterates(self, monkeypatch):
        # block 2*6 + 8 = 20 is 1/20 of 400 nodes: only 20 x 20 Ritz problems
        shapes = record_eigh_shapes(monkeypatch)
        nystrom_solve(KernelKind.WIENER, 400, 6)
        assert len(shapes) > 1
        assert set(shapes) == {(20, 20)}

    def test_large_block_takes_one_whole_space_eigh(self, monkeypatch):
        # block 2*7 + 8 = 22 exceeds 1/20 of 400 nodes
        shapes = record_eigh_shapes(monkeypatch)
        solution = nystrom_solve(KernelKind.WIENER, 400, 7)
        assert shapes == [(400, 400)]
        mu, vectors = dense_top_eigenpairs(KernelKind.WIENER, 400, 7)
        assert solution.eigenvalues.tobytes() == mu.tobytes()
        assert solution.eigenvectors.tobytes() == vectors.tobytes()

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
        for row in comparison.rows:
            assert row.rel_error <= 1e-3
            assert row.max_deviation <= 1e-3

    def test_detrended_even_rows_are_root_eigenvalues(self):
        comparison = compare_eigenpairs(KernelKind.DETRENDED, 6, 400)
        for row in comparison.rows:
            assert row.analytic == eigenvalue(KernelKind.DETRENDED, row.j)
            assert row.nystrom == pytest.approx(row.analytic, rel=1e-3)

    def test_bridge_modes_match(self):
        comparison = compare_eigenpairs(KernelKind.BRIDGE, 5, 400)
        for row in comparison.rows:
            assert row.analytic == pytest.approx(row.j**2 * math.pi**2, rel=1e-15)
            assert row.rel_error <= 1e-3

    def test_sign_agnostic_eigenvector_match(self):
        # deviations are measured after sign alignment, so they are small even
        # though the raw eigensolver sign is arbitrary
        comparison = compare_eigenpairs(KernelKind.DEMEANED, 5, 400)
        assert max(row.max_deviation for row in comparison.rows) <= 1e-3

