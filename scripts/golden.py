#!/usr/bin/env python3
"""Golden output digests: the sha256 of stdout and of every written file for
a fixed list of ``klx`` commands, kept in ``tests/golden.json`` together with
the fingerprint of the host that made them.

Usage:
    python3 scripts/golden.py           # compare with tests/golden.json; exit 1 on a difference
    python3 scripts/golden.py --write   # regenerate tests/golden.json

This script is the only writer of that file.  Regenerate it only for a
deliberate change of output bytes, or on a new kind of host, and say why in
CHANGES.md.  Every command runs in this process, in a temporary directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

from klx.cli import main as klx_main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
FORMATS = ("pretty", "csv", "json")
KINDS = ("wiener", "bridge", "demeaned", "detrended")

#: Oracle node and eigenpair counts: the dense eigensolver, and the matrix-free one.
ORACLE_SIDES = (("dense", ("--nodes", "100", "--eigs", "5")),
                ("matrix-free", ("--nodes", "500", "--eigs", "3")))

#: Name -> klx arguments; "{out}" stands for the temporary directory.
COMMANDS = {
    **{f"verify {fmt}": ("verify", "--J", "1,7,1000,65536,65537,1000000", "--format", fmt)
       for fmt in FORMATS},
    # zeta and triangular refuse N = 0, so each series also runs from N = 1.
    **{f"series {which} from-{levels[0]} {fmt}": ("series", "--which", which, "--N", levels,
                                                  "--format", fmt)
       for which in ("zeta", "triangular", "odd", "leibniz", "estermann", "bernoulli")
       for levels in ("0,1,10,100000", "1,10,100000") for fmt in FORMATS},
    **{f"eigen {kind} {fmt}": ("eigen", "--kind", kind, "--j-max", "50", "--format", fmt)
       for kind in KINDS for fmt in FORMATS},
    # lambda_j passes 1e6 near j = 318: the writer's fallback takes over mid-column
    # and sets pretty's width.
    **{f"eigen detrended 400 {fmt}": ("eigen", "--kind", "detrended", "--j-max", "400",
                                      "--format", fmt)
       for fmt in FORMATS},
    **{f"oracle {kind} {side}": ("oracle", "--kind", kind, *args, "--format", "json")
       for kind in KINDS for side, args in ORACLE_SIDES},
    # The pretty footers: bridge exceeds rtol at 100 nodes and is within it at 500.
    **{f"oracle bridge {side} pretty": ("oracle", "--kind", "bridge", *args, "--format", "pretty")
       for side, args in ORACLE_SIDES},
    **{f"simulate degenerate {fmt}": ("simulate", "--kind", "bridge", "--J", "8", "--M", "16",
                                      "--grid-points", "2", "--format", fmt)
       for fmt in FORMATS},
    **{f"simulate {name} seed {seed} {suffix}": (
        "simulate", "--kind", kind, "--J", j, "--M", "20000", "--grid-points", g,
        "--seed", str(seed), "--out", f"{{out}}/{name}.{suffix}", "--format", "json")
       for name, kind, j, g in (("wide", "bridge", "64", "101"), ("long", "wiener", "2000", "11"))
       for seed in (1, 2) for suffix in ("csv", "klx1")},
    "simulate long seed 1 pretty": ("simulate", "--kind", "wiener", "--J", "2000", "--M", "20000",
                                    "--grid-points", "11", "--seed", "1", "--format", "pretty"),
    # README's convergence study: one CSV per route and one of all three.
    **{f"verify proof {proof} ladder csv": ("verify", "--proof", proof, "--J", "10,100,1000",
                                            "--format", "csv")
       for proof in ("all", "1", "2", "3")},
}

REGENERATE = "python3 scripts/golden.py --write"


def fingerprint() -> dict:
    """What the bytes depend on besides the code: numpy, the machine, the BLAS
    and the SIMD paths numpy dispatches."""
    from numpy._core._multiarray_umath import __cpu_features__ as cpu

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas": f"{blas['name']} {blas['version']}",
            "AVX512F": bool(cpu.get("AVX512F")), "AVX2": bool(cpu.get("AVX2"))}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: pathlib.Path) -> dict:
    return {path.name: _sha256(path.read_bytes()) for path in sorted(directory.iterdir())}


def _run_command(argv, work: pathlib.Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = klx_main([arg.replace("{out}", str(work)) for arg in argv])
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()), "files": _files(work)}


def digests(names=None) -> dict:
    """Name -> digests of each listed command (all of them by default), each
    run in a fresh temporary directory."""
    found = {}
    for name in COMMANDS if names is None else names:
        with tempfile.TemporaryDirectory() as tmp:
            found[name] = _run_command(COMMANDS[name], pathlib.Path(tmp))
    return found


def mismatches(stored: dict, found: dict) -> list[str]:
    """Why found departs from the stored golden file, as messages."""
    if stored["fingerprint"] != fingerprint():
        return [f"host fingerprint {fingerprint()} differs from the one the digests were made "
                f"on, {stored['fingerprint']}; the bytes may differ here without a fault. "
                f"Regenerate with `{REGENERATE}` on this host and say why in CHANGES.md."]
    expected = {name: stored["digests"][name] for name in found if name in stored["digests"]}
    return ([f"{name}: expected {expected[name]}, got {found[name]}"
             for name in expected if expected[name] != found[name]]
            + [f"{name}: no stored digest" for name in found if name not in expected])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args()
    found = digests()
    if args.write:
        GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(), "digests": found},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(found)} digests to {GOLDEN}")
        return 0
    stored = json.loads(GOLDEN.read_text())
    problems = mismatches(stored, found) + [f"{name}: stored but not run" for name in
                                            stored["digests"] if name not in found]
    for problem in problems:
        print(problem)
    print(f"{len(found)} runs, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
