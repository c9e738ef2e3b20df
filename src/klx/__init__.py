"""Karhunen-Loeve eigenstructure of Wiener-type processes on [0, 1].

Closed-form covariance kernels and eigenpairs for the Wiener process, its
demeaned and detrended variants and the Brownian bridge; Mercer-series
pipelines that verify zeta(2) = pi^2/6; a Nystrom solver that cross-validates
every analytic eigenpair against the integral equation it must satisfy; and
reproducible Monte Carlo simulation of truncated expansions.
"""

import os

# numpy's OpenBLAS starts a worker thread per CPU at import, which busy-waits
# after start-up and after every threaded call.  On a 2-vCPU x86 host that spin
# was 17-43 % of the CPU time of each benchmark workload (the oracle at 2000
# nodes, four processes: 2.11 -> 1.42 s; `import numpy` alone: 0.21 -> 0.14 s
# of wall time), and the thread count changed the last bits of dense eigh and
# QR results, so output bytes depended on the CPUs a process could use.  One
# thread gives the same bytes on any CPU count.  A value the caller set is
# kept.  This runs before the first import of numpy below, so it reaches the
# CLI; a program that imported numpy before klx keeps numpy's own thread count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .eigen import (
    bessel_roots,
    eigenfunction,
    eigenfunction_matrix,
    eigenvalue,
    eigenvalues,
)
from .kernels import GramMatrix, KernelKind, gram, kernel_matrix
from .mercer import (
    ZETA2,
    ConvergenceReport,
    basel_estimate,
    proof_report,
    proof_tail_bound,
    truncated_covariance,
)
from .nystrom import (
    EIGENVALUE_RTOL,
    NystromSolution,
    OracleComparison,
    compare_eigenpairs,
    nystrom_solve,
)
from .quadrature import gauss_legendre_01
from .series import (
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
from .simulate import (
    KLX1_MAGIC,
    CovarianceTestReport,
    PathEnsemble,
    SimulationConfig,
    covariance_test,
    empirical_covariance,
    read_klx1,
    sample_paths,
    write_ensemble_csv,
    write_ensemble_klx1,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "CovarianceTestReport",
    "EIGENVALUE_RTOL",
    "GramMatrix",
    "KLX1_MAGIC",
    "KernelKind",
    "NystromSolution",
    "OracleComparison",
    "PathEnsemble",
    "SimulationConfig",
    "ZETA2",
    "basel_estimate",
    "bernoulli_residual",
    "bessel_roots",
    "compare_eigenpairs",
    "covariance_test",
    "eigenfunction",
    "eigenfunction_matrix",
    "eigenvalue",
    "eigenvalues",
    "empirical_covariance",
    "estermann_residual",
    "gauss_legendre_01",
    "gram",
    "kernel_matrix",
    "leibniz_partial",
    "nystrom_solve",
    "odd_squares_partial",
    "proof_report",
    "proof_tail_bound",
    "read_klx1",
    "sample_paths",
    "triangular_closed_form",
    "triangular_partial",
    "triangular_partial_table",
    "truncated_covariance",
    "write_ensemble_csv",
    "write_ensemble_klx1",
    "zeta2_tail_bounds",
    "zeta_partial",
    "zeta_partial_table",
]
