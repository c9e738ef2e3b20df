"""Smoke tests of the study scripts and the benchmark tracer, each run as its
own process, and static checks that package modules, scripts and tests use
what they import and that the package exports exactly what it imports."""

import ast
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


def unused_imports(source):
    """Names a module imports but never reads, as (line, name)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in ("annotations", "*"):
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def files_with_unused_imports(paths):
    """Each file among paths that imports a name it never reads, with its hits."""
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text())
             for path in paths}
    return {name: hits for name, hits in found.items() if hits}


def export_mismatches(source):
    """How a package's ``__all__`` departs from sorted, unique and equal to the
    names the package imports, as a list of messages."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"])
    found = []
    if exported != sorted(exported):
        found.append("__all__ is not sorted")
    found += [f"exported twice: {name}" for name in sorted(set(exported))
              if exported.count(name) > 1]
    found += [f"exported, not imported: {name}" for name in sorted(set(exported) - imported)]
    found += [f"imported, not exported: {name}" for name in sorted(imported - set(exported))]
    return found


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


def test_package_modules_have_no_unused_imports():
    # __init__.py imports to re-export; every other module must read what it imports.
    modules = sorted((ROOT / "src" / "klx").glob("*.py"))
    assert files_with_unused_imports(p for p in modules if p.name != "__init__.py") == {}


def test_scripts_and_tests_have_no_unused_imports():
    paths = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert files_with_unused_imports(paths) == {}


def test_unused_import_guard_flags_a_dead_name():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom x import a, b as c\nc(math.pi)\n")
    assert unused_imports(source) == [(2, "os"), (3, "a")]


def test_package_exports_match_imports():
    assert export_mismatches((ROOT / "src" / "klx" / "__init__.py").read_text()) == []


def test_export_guard_flags_a_dangling_name():
    source = "from .a import x, y\nfrom .b import w\n__all__ = ['y', 'x', 'x', 'v']\n"
    assert export_mismatches(source) == [
        "__all__ is not sorted",
        "exported twice: x",
        "exported, not imported: v",
        "imported, not exported: w",
    ]
