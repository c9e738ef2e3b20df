"""Command-line interface.

Subcommands: verify (zeta(2) pipelines), eigen (eigenpair tables), oracle
(analytic vs Nystrom comparison), simulate (path ensembles + covariance
test), series (classical partial sums).  Exit codes: 0 success/pass,
1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import series
from .eigen import eigenfunction_matrix, eigenvalues
from .kernels import KernelKind
from .mercer import PROOF_IDS, ZETA2, proof_report
from .nystrom import EIGENVALUE_RTOL, compare_eigenpairs
from .reports import Table, _g17, render
from .simulate import (
    SimulationConfig,
    _require_sizes,
    _require_test_settings,
    _require_writable_target,
    covariance_test,
    sample_paths,
    write_ensemble_csv,
    write_ensemble_klx1,
)

_FORMATS = ("pretty", "csv", "json")

#: Most rows ``klx eigen`` tabulates.  The text is built whole: 10^6 detrended
#: rows take 4-5 s and 270 MB as csv, 4-5 s and 420 MB as json, 6-7 s and
#: 320 MB as pretty, so the 10^7 level cap of the sums would allow some 4 GB.
_MAX_EIGEN_ROWS = 10**6


def _int_list(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _columns(records, fields: tuple[str, ...]) -> tuple[list, ...]:
    """One list per field of the records, for a Table."""
    return tuple([getattr(record, field) for record in records] for field in fields)


def _cmd_verify(args) -> int:
    if not args.J:
        raise ValueError("--J must list at least one truncation level")
    proofs = list(PROOF_IDS) if args.proof == "all" else [int(args.proof)]
    proof_reports = [proof_report(proof, args.J) for proof in proofs]
    ok = all(report.passes() for report in proof_reports)
    ids = [report.proof_id for report in proof_reports for _ in report.rows]
    rows = [row for report in proof_reports for row in report.rows]
    table = Table(("proof_id", "J", "estimate", "abs_error", "tail_bound"),
                  (ids, *_columns(rows, ("j_terms", "estimate", "abs_error", "tail_bound"))))
    sys.stdout.write(render(table, args.format, extra={"target": ZETA2, "passed": ok}))
    if args.format == "pretty":
        status = "all rows within tail bounds" if ok else "tail bound violated"
        sys.stdout.write(f"target pi^2/6 = {_g17(ZETA2)}; {status}\n")
    return 0 if ok else 1


def _cmd_eigen(args) -> int:
    kind = KernelKind.parse(args.kind)
    if args.j_max < 1:
        raise ValueError("--j-max must be >= 1")
    if args.j_max > _MAX_EIGEN_ROWS:
        raise ValueError(f"--j-max must be <= {_MAX_EIGEN_ROWS}, got {args.j_max}")
    lam = eigenvalues(kind, args.j_max)
    f = eigenfunction_matrix(kind, args.j_max, [0.0, 0.5, 1.0])
    labels = ["odd", "even"] if kind is KernelKind.DETRENDED else ["-"]
    branch = (labels * args.j_max)[:args.j_max]
    table = Table(("j", "lambda", "branch", "f_at_0", "f_at_half", "f_at_1"),
                  (range(1, args.j_max + 1), lam, branch, *f.T))
    sys.stdout.write(render(table, args.format))
    return 0


def _cmd_oracle(args) -> int:
    kind = KernelKind.parse(args.kind)
    comparison = compare_eigenpairs(kind, args.eigs, args.nodes)
    fields = ("j", "analytic", "nystrom", "rel_error", "max_deviation")
    table = Table(("j", "lambda_analytic", "lambda_nystrom", "rel_error", "max_deviation"),
                  _columns(comparison.rows, fields))
    ok = comparison.passes()
    sys.stdout.write(render(table, args.format, extra={"rtol": EIGENVALUE_RTOL, "passed": ok}))
    if args.format == "pretty":
        verdict = "within" if ok else "exceeds"
        sys.stdout.write(
            f"{kind.value} at {args.nodes} nodes: eigenvalue error {verdict} rtol {EIGENVALUE_RTOL:g}\n"
        )
    return 0 if ok else 1


def _to_out(path: str, action, *args) -> None:
    """Run action(*args); an OSError becomes a ValueError that names the --out path."""
    try:
        action(*args)
    except OSError as exc:
        raise ValueError(f"cannot write output file {path!r}: {exc}") from exc


def _cmd_simulate(args) -> int:
    kind = KernelKind.parse(args.kind)
    if args.grid_points < 2:
        raise ValueError("--grid-points must be >= 2 to include both endpoints")
    _require_sizes(args.J, args.M, args.grid_points)
    _require_test_settings(args.pairs, args.z_threshold)
    if args.out is not None:
        _to_out(args.out, _require_writable_target, args.out)
    config = SimulationConfig(
        kind=kind,
        truncation=args.J,
        n_paths=args.M,
        grid=np.linspace(0.0, 1.0, args.grid_points),
        seed=args.seed,
    )
    ensemble = sample_paths(config)
    report = covariance_test(ensemble, pair_count=args.pairs, z_threshold=args.z_threshold)
    if args.out is not None:
        write = write_ensemble_csv if args.out.endswith(".csv") else write_ensemble_klx1
        _to_out(args.out, write, ensemble, args.out)
    names = ("s", "t", "empirical", "truncated_target", "stderr", "z_score")
    table = Table(names, _columns(report.checks, names))
    extra = {field: getattr(report, field)
             for field in ("passed", "skipped", "exceedances", "allowed_exceedances")}
    sys.stdout.write(render(table, args.format, extra))
    if report.skipped:
        sys.stderr.write(f"warning: {report.message}\n")
    elif args.format == "pretty":
        sys.stdout.write(report.message + "\n")
    return 0 if report.passed else 1


#: --which name -> (value at index n, reference limit).
_SERIES = {
    "zeta": (lambda n: series.zeta_partial(2.0, n), math.pi**2 / 6.0),
    "triangular": (series.triangular_partial, 2.0),
    "odd": (series.odd_squares_partial, math.pi**2 / 8.0),
    "leibniz": (series.leibniz_partial, math.pi / 4.0),
    "estermann": (series.estermann_residual, 0.0),
    "bernoulli": (series.bernoulli_residual, math.pi**2 / 16.0),
}


def _cmd_series(args) -> int:
    if not args.N:
        raise ValueError("--N must list at least one index")
    value_at, limit = _SERIES[args.which]
    values = np.array([value_at(n) for n in args.N])
    limits = np.full(len(args.N), limit)
    table = Table(("series", "N", "value", "reference_limit", "distance"),
                  ([args.which] * len(args.N), args.N, values, limits, values - limits))
    sys.stdout.write(render(table, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klx",
        description="Karhunen-Loeve eigenstructure toolkit: zeta(2) verification, "
        "eigen tables, Nystrom cross-checks, path simulation and series tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the zeta(2) convergence pipelines")
    p.add_argument("--proof", choices=("1", "2", "3", "all"), default="all")
    p.add_argument("--J", type=_int_list, required=True, help="comma-separated truncation levels")
    p.add_argument("--format", choices=_FORMATS, default="pretty")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eigen", help="tabulate analytic eigenpairs")
    p.add_argument("--kind", required=True)
    p.add_argument("--j-max", type=int, required=True)
    p.add_argument("--format", choices=_FORMATS, default="pretty")
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("oracle", help="compare analytic eigenpairs with the Nystrom solver")
    p.add_argument("--kind", required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--eigs", type=int, required=True)
    p.add_argument("--format", choices=_FORMATS, default="pretty")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="simulate truncated-expansion paths")
    p.add_argument("--kind", required=True)
    p.add_argument("--J", type=int, required=True, help="truncation level")
    p.add_argument("--M", type=int, required=True, help="number of paths")
    p.add_argument("--grid-points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="write the ensemble to this path: CSV if it ends in .csv, else KLX1")
    p.add_argument("--pairs", type=int, default=50, help="covariance pairs to test")
    p.add_argument("--z-threshold", type=float, default=4.0)
    p.add_argument("--format", choices=_FORMATS, default="pretty")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("series", help="classical partial-sum tables")
    p.add_argument("--which", choices=sorted(_SERIES), required=True)
    p.add_argument("--N", type=_int_list, required=True)
    p.add_argument("--format", choices=_FORMATS, default="pretty")
    p.set_defaults(func=_cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
