"""Nystrom discretization of the kernel eigenproblem.

This is the numerical cross-check for the closed-form eigenpairs: discretize
the integral operator (Kf)(t) = integral_0^1 k(s, t) f(s) ds on Gauss-Legendre
nodes, symmetrize with the square-root weight matrix, and diagonalize.  The
operator eigenvalues mu_j approximate 1/lambda_j; nothing here reuses the
analytic formulas, so agreement between the two routes validates both.

Only the top k eigenpairs are wanted, so the solver depends on (n, k) alone.
When the block p = 2k + 8 is at most 1/10 of the n nodes, block subspace
iteration with Rayleigh-Ritz (Rutishauser 1970; Saad, Numerical Methods for
Large Eigenvalue Problems, 2011, ch. 5) stops once every kept Ritz pair has a
residual at rounding level.  It starts from the Chebyshev polynomials
T_0..T_{p-1} at the nodes, which depend on no kernel and no random stream.
Each step applies the operator to the n x p block matrix-free, in O(n p)
(``kernels._kernel_apply``), so this side never forms the Gram matrix.
Otherwise one dense eigh of the whole Gram matrix is cheaper: that is
Rayleigh-Ritz on the whole space, exact in one step.  With BLAS on one thread
(see ``klx/__init__.py``), on a 2-vCPU x86 host with OpenBLAS, detrended
kernel, iteration stays ahead down to about n/p = 10 at 400 nodes, 6 at 1000
and 3 at 2000 (medians of 5-9 runs alternating the sides): at 1000 nodes
dense eigh took 0.10 s against 0.08 s iterated at n/p = 10 and 0.14 s at 4;
at 4096 nodes iteration took 0.9 s at n/p = 10, 1.8 s at 6 and 3.7 s at 4
(medians of 3), where the dense eigh, which the start does not touch, took
14.4 s when last measured.  The 1/10 share follows the smaller sizes, and it
keeps the golden configs on the side that made their bytes (128 nodes, 3
eigenpairs stays dense).

The kink of min(s, t) along the diagonal limits the quadrature to algebraic
convergence, which is plenty for a validation oracle: relative eigenvalue
errors at 1000 nodes sit well below the frozen 1e-3 acceptance tolerance and
keep shrinking as nodes double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import eigenfunction_matrix, eigenvalues
from .kernels import KernelKind, _kernel_apply, gram
from .quadrature import gauss_legendre_01
from .series import _require_count

#: Frozen relative-eigenvalue tolerance for oracle comparisons at >= 500 nodes.
EIGENVALUE_RTOL = 1e-3

_MIN_NODES = 16
# One doubling above the 2000-node ladder of the acceptance suite and of
# README's oracle experiments.  The iterated side needs only O(n p) memory,
# but requests with many modes take the whole-space eigh of the dense n x n
# Gram (n^2 memory, n^3 time) and the Gauss-Legendre rule itself costs O(n^2)
# time, so larger requests are refused before the rule is even computed.
_MAX_NODES = 4096

# Subspace iteration.  The residual tolerance, relative to the top Ritz value,
# sits about ten times above the residual of a dense eigh at 4096 nodes; the
# kernels here converge in 3-12 steps from the Chebyshev start block, so the
# cap only stops a solve gone wrong.
_GUARD_COLUMNS = 8
_ITERATION_SHARE = 10
_RESIDUAL_RTOL = 1e-14
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class NystromSolution:
    """Discrete eigendecomposition of the kernel operator.

    ``eigenvalues`` are the operator eigenvalues mu_j (approximating
    1/lambda_j) in descending order; ``eigenvectors`` columns are the
    discrete eigenfunction samples, orthonormal in the weighted inner
    product sum_i w_i u_i v_i.
    """

    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _top_eigenpairs(
    kind: KernelKind, nodes: np.ndarray, sqrt_w: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top k eigenpairs of A = W^1/2 K W^1/2 on the nodes, descending.

    Raises np.linalg.LinAlgError when either solver fails to converge.
    """
    n = nodes.size
    p = 2 * k + _GUARD_COLUMNS
    if _ITERATION_SHARE * p > n:
        spectrum, vectors = np.linalg.eigh(gram(kind, nodes).entries * np.outer(sqrt_w, sqrt_w))
        return spectrum[::-1][:k], vectors[:, ::-1][:, :k]
    scale = sqrt_w[:, None]
    # The Chebyshev basis T_0..T_{p-1} at the nodes, the same for every kind.
    q, _ = np.linalg.qr(np.cos(np.outer(np.arccos(2.0 * nodes - 1.0), np.arange(p))))
    for _ in range(_MAX_ITERATIONS):
        aq = scale * _kernel_apply(kind, nodes, scale * q)
        theta, w = np.linalg.eigh(q.T @ aq)
        theta, w = theta[::-1], w[:, ::-1]
        ritz = q @ w[:, :k]
        a_ritz = aq @ w
        residual = np.linalg.norm(a_ritz[:, :k] - ritz * theta[:k], axis=0).max()
        if residual <= _RESIDUAL_RTOL * theta[0]:
            return theta[:k], ritz
        q, _ = np.linalg.qr(a_ritz)
    raise np.linalg.LinAlgError(
        f"subspace iteration stopped after {_MAX_ITERATIONS} steps "
        f"with relative residual {residual / theta[0]:.1e}"
    )


def nystrom_solve(kind: KernelKind, n_nodes: int, n_eigs: int) -> NystromSolution:
    """Solve the discretized eigenproblem on n_nodes Gauss-Legendre nodes.

    Returns the top n_eigs operator eigenvalues and weight-normalized
    eigenvectors.  Requires n_nodes >= n_eigs >= 1 and 16 <= n_nodes <= 4096.
    """
    _require_count(n_eigs, "n_eigs")
    if not _MIN_NODES <= n_nodes <= _MAX_NODES:
        raise ValueError(f"n_nodes must lie in [{_MIN_NODES}, {_MAX_NODES}], got {n_nodes}")
    if n_eigs > n_nodes:
        raise ValueError(f"n_eigs ({n_eigs}) cannot exceed n_nodes ({n_nodes})")
    nodes, weights = gauss_legendre_01(n_nodes)
    sqrt_w = np.sqrt(weights)
    try:
        mu, vectors = _top_eigenpairs(kind, nodes, sqrt_w, n_eigs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge on {n_nodes} nodes: {exc}") from exc
    eigenvectors = vectors / sqrt_w[:, None]
    mu.setflags(write=False)
    eigenvectors.setflags(write=False)
    return NystromSolution(nodes=nodes, weights=weights, eigenvalues=mu, eigenvectors=eigenvectors)


@dataclass(frozen=True, eq=False)
class OracleComparison:
    """Analytic vs Nystrom eigenpairs, matched by sorted order: one entry per mode."""

    j: np.ndarray
    analytic: np.ndarray
    nystrom: np.ndarray
    rel_error: np.ndarray
    max_deviation: np.ndarray

    def passes(self) -> bool:
        return bool(np.all(self.rel_error <= EIGENVALUE_RTOL))


def compare_eigenpairs(kind: KernelKind, n_eigs: int, n_nodes: int) -> OracleComparison:
    """Compare the first n_eigs analytic eigenpairs against the Nystrom solve.

    Each mode reports lambda on both routes and the relative error, and the
    max absolute deviation of its eigenfunction at the nodes after fixing the
    sign by maximizing the weighted inner product with the analytic
    eigenfunction.
    """
    solution = nystrom_solve(kind, n_nodes, n_eigs)
    not_positive = np.flatnonzero(solution.eigenvalues <= 0.0)
    if not_positive.size:
        raise RuntimeError(f"operator eigenvalue {not_positive[0] + 1} is not positive; "
                           "too many modes requested")
    lam_analytic = eigenvalues(kind, n_eigs)
    lam_numeric = 1.0 / solution.eigenvalues
    f_analytic = eigenfunction_matrix(kind, n_eigs, solution.nodes)
    overlap = np.einsum("ij,ji->i", solution.weights * f_analytic, solution.eigenvectors)
    vectors = np.where(overlap < 0.0, -1.0, 1.0)[:, None] * solution.eigenvectors.T
    return OracleComparison(np.arange(1, n_eigs + 1), lam_analytic, lam_numeric,
                            np.abs(lam_numeric - lam_analytic) / lam_analytic,
                            np.max(np.abs(f_analytic - vectors), axis=1))
