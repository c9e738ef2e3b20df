"""A smoke test of the benchmark tracer, run as its own process, and of
README's library example; static checks that package modules, scripts and
tests use what they import, that package modules read every private name
they bind, that the package exports exactly what it imports, that only
the CLI's ``main`` writes a command's output, and that only ``series`` sums
with ``math.fsum``."""

import ast
import csv
import json
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


def dead_private_names(sources):
    """Private module-level names (functions, classes, assigned constants)
    that no source among sources reads, as (file, line, name); sources maps
    each file name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [(node.lineno, node.name)]
            else:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                bound = [(node.lineno, t.id) for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            found += [(name, line, b) for line, b in bound
                      if b.startswith("_") and not b.startswith("__") and b not in read]
    return sorted(found)


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


def finish_path_breaches(source):
    """Each read of ``render``, ``print`` or ``stdout`` inside a module-level
    ``_cmd_*`` function of source, as (function, line, name)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            for inner in ast.walk(node):
                name = (inner.id if isinstance(inner, ast.Name)
                        else inner.attr if isinstance(inner, ast.Attribute) else None)
                if name in ("render", "print", "stdout"):
                    found.append((node.name, inner.lineno, name))
    return sorted(found)


def fsum_uses(source):
    """Each use of ``fsum`` in source: a ``.fsum`` attribute, the name ``fsum``, or an
    import of it under any name, as (line, name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fsum":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "fsum":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name == "fsum"]
    return sorted(set(found))


def csv_row_count(path):
    with open(path, newline="") as handle:
        return sum(1 for _ in csv.DictReader(handle))


def test_benchmark_tracer_installs(tmp_path):
    # The tracer refuses to run unless every name in its REQUIRED_NAMES
    # resolves, so renaming a wrapped function fails here.  The benchmark's
    # --trace 1 pass reads the series.kahan spans, so a sum routed around
    # _kahan fails here too.
    # The 700 x 101 export writes five writer blocks under the traced wrapper.
    # The two oracle runs reach the oracle hooks on each side of the Nystrom
    # solver's choice: the dense Gram at 119 nodes (block 12 is over 1/10 of
    # them), the matrix-free apply at 500.
    # At J = 40 000 routes 2 and 3 each build their terms in three blocks; the benchmark's
    # eigen.eigenfunction_matrix.entries adds the blocks' spans, so they must cover 2 J rows.
    path = tmp_path / "spans.json"
    big = tmp_path / "big.csv"
    runs = {
        "series": ("series", "--which", "zeta", "--N", "10"),
        "verify": ("verify", "--proof", "all", "--J", "10", "--format", "json"),
        "verify-blocks": ("verify", "--proof", "all", "--J", "40000", "--format", "json"),
        "simulate": ("simulate", "--kind", "wiener", "--J", "10", "--M", "16", "--grid-points",
                     "3", "--pairs", "2", "--format", "json",
                     "--out", str(tmp_path / "paths.csv")),
        "simulate-big": ("simulate", "--kind", "bridge", "--J", "10", "--M", "700",
                         "--grid-points", "101", "--pairs", "2", "--format", "json",
                         "--out", str(big)),
        "oracle-dense": ("oracle", "--kind", "detrended", "--nodes", "119", "--eigs", "2"),
        "oracle-matrix-free": ("oracle", "--kind", "bridge", "--nodes", "500", "--eigs", "3"),
    }
    spans = {}
    for name, argv in runs.items():
        result = run_script("benchmarks/tracer.py", str(path), "t", "--", *argv)
        assert result.returncode == 0, result.stderr
        spans[name] = json.loads(path.read_text())
    names = {run: {span["name"] for span in run_spans} for run, run_spans in spans.items()}
    for run in ("series", "verify", "verify-blocks", "simulate", "simulate-big"):
        assert "series.kahan" in names[run]
    assert sum(span["entries"] for span in spans["verify-blocks"]
               if span["name"] == "eigen.eigenfunction_matrix") == 2 * 40000
    assert "simulate.write_ensemble_csv" in names["simulate-big"]
    # One truncated_covariance call per covariance test, summed through _kahan.
    targets = [span for span in spans["simulate-big"]
               if span["name"] == "mercer.truncated_covariance"]
    assert len(targets) == 1
    assert csv_row_count(big) == 700
    grams = [span["entries"] for span in spans["oracle-dense"] if span["name"] == "kernels.gram"]
    assert grams == [119 * 119]
    assert "eigen.bessel_roots" in names["oracle-dense"]


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "basel_estimate" in block
    exec(compile(block, "README.md", "exec"), {})


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


def test_package_modules_read_every_private_name_they_bind():
    modules = sorted((ROOT / "src" / "klx").glob("*.py"))
    assert dead_private_names({p.name: p.read_text() for p in modules}) == []


def test_dead_name_guard_flags_an_unread_private_name():
    sources = {"a.py": "_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\n"
                       "class _K:\n    pass\n__all__ = []\n",
               "b.py": "from . import a\n_D = a._f() + a._C\n"}
    assert dead_private_names(sources) == [("a.py", 1, "_B"), ("a.py", 5, "_K"), ("b.py", 2, "_D")]


def test_only_main_writes_command_output():
    # Each _cmd_* returns its table, json keys and footer; main renders them.
    assert finish_path_breaches((ROOT / "src" / "klx" / "cli.py").read_text()) == []


def test_finish_path_guard_flags_a_subcommand_that_writes():
    source = ("import sys\nfrom . import reports\nfrom .reports import render\n"
              "def _cmd_a(args):\n    sys.stdout.write(render(t, 'csv'))\n"
              "def _cmd_b(args):\n    sys.stderr.write('warning')\n    print(1)\n"
              "def _cmd_c(args):\n    return reports.render\n"
              "def main():\n    sys.stdout.write(render(t, 'csv'))\n")
    assert finish_path_breaches(source) == [
        ("_cmd_a", 5, "render"), ("_cmd_a", 5, "stdout"), ("_cmd_b", 8, "print"),
        ("_cmd_c", 10, "render")]


def test_only_series_sums_with_fsum():
    # series._kahan is the one sum: fsum rounds the exact parts of its blocks once.  An
    # fsum over a whole array elsewhere would hold and walk every term again.
    modules = sorted((ROOT / "src" / "klx").glob("*.py"))
    found = {p.name: fsum_uses(p.read_text()) for p in modules if p.name != "series.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_fsum_guard_flags_every_use():
    source = ("import math\nfrom math import fsum as add, pi\nx = math.fsum([pi])\n"
              "y = add([1.0]) + sum([2.0])\nz = m.fsum\n")
    assert fsum_uses(source) == [(2, "import fsum"), (3, "math.fsum"), (5, "m.fsum")]
    assert fsum_uses("from math import fsum\nfsum([1.0])\n") == [(1, "import fsum"),
                                                                  (2, "fsum")]


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
