#!/usr/bin/env python3
"""Convergence study: zeta(2) estimates from all three routes over a J ladder.

Writes one CSV per route plus a combined one, and prints a summary table.

Usage:
    python3 scripts/basel_convergence.py [--out-dir results] [--ladder 10,100,...]
"""

import argparse
import pathlib

from klx import ZETA2, proof_report
from klx.reports import Table, to_csv_text, to_pretty_text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--ladder",
        default="10,100,1000,10000,100000",
        help="comma-separated truncation levels",
    )
    args = parser.parse_args()

    ladder = [int(x) for x in args.ladder.split(",") if x.strip()]
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = ("proof_id", "J", "estimate", "abs_error", "tail_bound")
    all_rows = []
    for proof in (1, 2, 3):
        report = proof_report(proof, ladder)
        rows = tuple(
            (report.proof_id, r.j_terms, r.estimate, r.abs_error, r.tail_bound)
            for r in report.rows
        )
        all_rows.extend(rows)
        path = out_dir / f"basel_{report.proof_id.lower()}.csv"
        path.write_text(to_csv_text(Table(columns, tuple(zip(*rows)))))
        print(f"wrote {path} (honest bounds: {report.passes()})")

    combined = Table(columns, tuple(zip(*all_rows)))
    (out_dir / "basel_all.csv").write_text(to_csv_text(combined))
    print(f"\ntarget pi^2/6 = {ZETA2:.17g}\n")
    print(to_pretty_text(combined))


if __name__ == "__main__":
    main()
