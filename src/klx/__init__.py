"""Karhunen-Loeve eigenstructure of Wiener-type processes on [0, 1].

Closed-form covariance kernels and eigenpairs for the Wiener process, its
demeaned and detrended variants and the Brownian bridge; Mercer-series
pipelines that verify zeta(2) = pi^2/6; a Nystrom solver that cross-validates
every analytic eigenpair against the integral equation it must satisfy; and
reproducible Monte Carlo simulation of truncated expansions.
"""

from .eigen import (
    bessel_roots,
    eigenfunction,
    eigenfunction_matrix,
    eigenvalue,
    eigenvalues,
)
from .kernels import GramMatrix, KernelKind, gram, kernel_matrix, kernel_value
from .mercer import (
    ZETA2,
    ConvergenceReport,
    ConvergenceRow,
    basel_estimate,
    mercer_partial,
    mercer_terms,
    proof_report,
    proof_tail_bound,
    truncated_covariance,
)
from .nystrom import (
    EIGENVALUE_RTOL,
    NystromSolution,
    OracleComparison,
    OracleRow,
    compare_eigenpairs,
    nystrom_solve,
)
from .quadrature import gauss_legendre_01, integrate_01
from .series import (
    PartialSum,
    ResidualSequenceEntry,
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
    CovarianceCheck,
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
    "ConvergenceRow",
    "CovarianceCheck",
    "CovarianceTestReport",
    "EIGENVALUE_RTOL",
    "GramMatrix",
    "KLX1_MAGIC",
    "KernelKind",
    "NystromSolution",
    "OracleComparison",
    "OracleRow",
    "PartialSum",
    "PathEnsemble",
    "ResidualSequenceEntry",
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
    "integrate_01",
    "kernel_matrix",
    "kernel_value",
    "leibniz_partial",
    "mercer_partial",
    "mercer_terms",
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
