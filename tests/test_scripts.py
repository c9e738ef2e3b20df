"""Smoke tests of the study scripts and the benchmark tracer, each run as its
own process."""

import csv
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / path), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def csv_row_count(path):
    with open(path, newline="") as handle:
        return sum(1 for _ in csv.DictReader(handle))


def test_oracle_refinement(tmp_path):
    result = run_script("scripts/oracle_refinement.py", "--nodes", "64,128", "--eigs", "3",
                        "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    # four kinds x two node counts x three modes
    assert csv_row_count(tmp_path / "oracle_refinement.csv") == 24


def test_basel_convergence(tmp_path):
    result = run_script("scripts/basel_convergence.py", "--ladder", "10,100", "--out-dir",
                        str(tmp_path))
    assert result.returncode == 0, result.stderr
    for route in (1, 2, 3):
        assert csv_row_count(tmp_path / f"basel_proof{route}.csv") == 2
    assert csv_row_count(tmp_path / "basel_all.csv") == 6


def test_benchmark_tracer_installs(tmp_path):
    # The tracer refuses to run unless every name in its REQUIRED_NAMES
    # resolves, so renaming a wrapped function fails here.
    result = run_script("benchmarks/tracer.py", str(tmp_path / "spans.json"), "t", "--",
                        "series", "--which", "zeta", "--N", "10")
    assert result.returncode == 0, result.stderr
