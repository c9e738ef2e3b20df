#!/usr/bin/env python3
"""Node-refinement study of the Nystrom solver against the analytic eigenpairs.

For each kernel kind, solves at a doubling ladder of node counts and records
the relative eigenvalue error and the sign-aligned eigenfunction deviation of
the first few modes.

Usage:
    python3 scripts/oracle_refinement.py [--out-dir results] [--eigs 5]
                                         [--nodes 250,500,1000,2000]
"""

import argparse
import itertools
import pathlib

from klx import KernelKind, compare_eigenpairs
from klx.reports import Table, to_csv_text, to_pretty_text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--eigs", type=int, default=5)
    parser.add_argument("--nodes", default="250,500,1000,2000")
    args = parser.parse_args()

    ladders = [int(x) for x in args.nodes.split(",") if x.strip()]
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = ("kind", "n_nodes", "j", "lambda_analytic", "lambda_nystrom",
               "rel_error", "max_deviation")
    parts = []
    for kind in KernelKind:
        for n_nodes in ladders:
            c = compare_eigenpairs(kind, args.eigs, n_nodes)
            parts.append(([kind.value] * args.eigs, [n_nodes] * args.eigs, c.j, c.analytic,
                          c.nystrom, c.rel_error, c.max_deviation))
            print(f"{kind.value:10s} {n_nodes:5d} nodes: worst rel error {c.rel_error.max():.3e}")

    table = Table(columns, tuple(list(itertools.chain(*column)) for column in zip(*parts)))
    path = out_dir / "oracle_refinement.csv"
    path.write_text(to_csv_text(table))
    print(f"\nwrote {path}\n")
    print(to_pretty_text(table))


if __name__ == "__main__":
    main()
