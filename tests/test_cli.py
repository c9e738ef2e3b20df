"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success/pass, 1 verification failure, 2 usage or
configuration error (argparse errors also exit 2 via SystemExit).
"""

import dataclasses
import json
import math
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

import klx.cli
import klx.mercer
import klx.nystrom
import klx.series
import klx.simulate
from klx import KernelKind, eigenfunction, eigenvalue, read_klx1
from klx.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestVerify:
    def test_single_proof_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "--proof", "2", "--J", "10,100,1000",
                           "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 3
        estimates = [float(r["estimate"]) for r in rows]
        assert estimates == sorted(estimates)
        for r in rows:
            assert float(r["abs_error"]) <= float(r["tail_bound"])

    def test_all_proofs_close_to_target(self, capsys):
        code, out, _ = run(capsys, "verify", "--proof", "all", "--J", "1000",
                           "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 3
        assert {r["proof_id"] for r in rows} == {"Proof1", "Proof2", "Proof3"}
        for r in rows:
            assert abs(float(r["estimate"]) - math.pi**2 / 6.0) <= 1e-3

    def test_invalid_proof_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--proof", "4", "--J", "10"])
        assert excinfo.value.code == 2

    def test_empty_j_list_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--proof", "1", "--J", ",")
        assert code == 2
        assert "error" in err

    def test_huge_j_exits_2_before_any_term(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("terms built for a refused level")

        monkeypatch.setattr(klx.mercer, "_power_fill", refuse)
        monkeypatch.setattr(klx.mercer, "_mercer_fill", refuse)
        code, out, err = run(capsys, "verify", "--proof", "all", "--J", "10,100000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "100000000000000" in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--proof", "2", "--J", "10,0"), "level must be >= 1, got 0"),
        (("verify", "--proof", "3", "--J", "10000001"), "level must be <= 10000000, got 10000001"),
        (("series", "--which", "triangular", "--N", "0,5"), "level must be >= 1, got 0"),
        (("series", "--which", "zeta", "--N", "10000001"), "level must be <= 10000000, got 10000001"),
        # Past int64: the level is refused before any array is sized from it.
        (("verify", "--J", "100000000000000000000"),
         "level must be <= 10000000, got 100000000000000000000"),
        (("series", "--which", "zeta", "--N", "100000000000000000000"),
         "level must be <= 10000000, got 100000000000000000000"),
    ], ids=["verify-low", "verify-high", "series-low", "series-high", "verify-past-int64",
            "series-past-int64"])
    def test_both_level_walkers_word_a_bad_level_alike(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--proof", "1", "--J", "10",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["proof_id"] == "Proof1"


class TestEigen:
    def test_wiener_table(self, capsys):
        code, out, _ = run(capsys, "eigen", "--kind", "wiener", "--j-max", "3",
                           "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        expected = [math.pi**2 / 4.0, 9.0 * math.pi**2 / 4.0, 25.0 * math.pi**2 / 4.0]
        for row, lam in zip(rows, expected):
            assert float(row["lambda"]) == pytest.approx(lam, rel=1e-15)

    def test_detrended_branch_labels(self, capsys):
        code, out, _ = run(capsys, "eigen", "--kind", "detrended", "--j-max", "4",
                           "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert [r["branch"] for r in rows] == ["odd", "even", "odd", "even"]
        assert float(rows[1]["lambda"]) == pytest.approx(80.76291422570652, rel=1e-12)

    def test_bridge_first_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "eigen", "--kind", "bridge", "--j-max", "1",
                           "--format", "csv")
        assert code == 0
        assert float(csv_rows(out)[0]["lambda"]) == pytest.approx(math.pi**2, rel=1e-15)

    def test_unknown_kind_exits_2(self, capsys):
        code, _, err = run(capsys, "eigen", "--kind", "poisson", "--j-max", "2")
        assert code == 2
        assert "unknown kernel kind" in err

    @pytest.mark.parametrize("j_max", [klx.cli._MAX_EIGEN_ROWS + 1, klx.series._MAX_TERMS + 1,
                                       10**11])
    def test_j_max_past_the_level_cap_exits_2_before_any_array(self, capsys, monkeypatch, j_max):
        def refuse(kind, j_max):
            raise AssertionError("eigenvalues called past the level cap")

        monkeypatch.setattr(klx.cli, "eigenvalues", refuse)
        code, out, err = run(capsys, "eigen", "--kind", "wiener", "--j-max", str(j_max))
        assert code == 2
        assert out == ""
        assert err == f"error: --j-max must be <= {klx.cli._MAX_EIGEN_ROWS}, got {j_max}\n"

    def test_j_max_at_the_row_cap_is_accepted(self, capsys, monkeypatch):
        def reached(kind, j_max):
            raise ValueError(f"eigenvalues asked for {j_max}")

        monkeypatch.setattr(klx.cli, "eigenvalues", reached)
        cap = klx.cli._MAX_EIGEN_ROWS
        code, out, err = run(capsys, "eigen", "--kind", "wiener", "--j-max", str(cap))
        assert (code, out, err) == (2, "", f"error: eigenvalues asked for {cap}\n")

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_rows_equal_scalar_evaluators(self, capsys, kind):
        code, out, _ = run(capsys, "eigen", "--kind", kind.value, "--j-max", "41",
                           "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert [int(r["j"]) for r in rows] == list(range(1, 42))
        for j, row in enumerate(rows, start=1):
            assert float(row["lambda"]) == eigenvalue(kind, j)
            for column, t in (("f_at_0", 0.0), ("f_at_half", 0.5), ("f_at_1", 1.0)):
                assert float(row[column]) == eigenfunction(kind, j, t)


class TestOracle:
    def test_pass_at_moderate_nodes(self, capsys):
        code, out, _ = run(capsys, "oracle", "--kind", "demeaned", "--nodes", "200",
                           "--eigs", "3", "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 3
        for r in rows:
            assert float(r["rel_error"]) <= 1e-3

    def test_too_many_eigs_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--kind", "detrended", "--nodes", "16",
                           "--eigs", "20")
        assert code == 2
        assert "cannot exceed" in err

    def test_huge_node_count_exits_2_before_quadrature(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"Gauss-Legendre rule requested for {n} nodes")

        monkeypatch.setattr(klx.nystrom, "gauss_legendre_01", refuse)
        code, out, err = run(capsys, "oracle", "--kind", "wiener", "--nodes", "100000000",
                             "--eigs", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "100000000" in err

    def test_unconverged_eigensolver_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(klx.nystrom, "_MAX_ITERATIONS", 1)
        code, out, err = run(capsys, "oracle", "--kind", "wiener", "--nodes", "2000",
                             "--eigs", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: eigensolver failed to converge on 2000 nodes")
        assert "Traceback" not in err

    def test_non_positive_operator_eigenvalue_exits_1(self, capsys, monkeypatch):
        solve = klx.nystrom.nystrom_solve

        def third_eigenvalue_zero(kind, n_nodes, n_eigs):
            solution = solve(kind, n_nodes, n_eigs)
            mu = solution.eigenvalues.copy()
            mu[2] = 0.0
            return dataclasses.replace(solution, eigenvalues=mu)

        monkeypatch.setattr(klx.nystrom, "nystrom_solve", third_eigenvalue_zero)
        code, out, err = run(capsys, "oracle", "--kind", "wiener", "--nodes", "64", "--eigs", "5")
        assert (code, out) == (1, "")
        assert err == ("error: operator eigenvalue 3 is not positive; "
                       "too many modes requested\n")


class TestSimulate:
    def test_deterministic_output_files(self, capsys, tmp_path):
        out_a = tmp_path / "a.klx"
        out_b = tmp_path / "b.klx"
        args = ["simulate", "--kind", "wiener", "--J", "50", "--M", "400",
                "--grid-points", "5", "--seed", "7", "--pairs", "10"]
        code_a, _, _ = run(capsys, *args, "--out", str(out_a))
        code_b, _, _ = run(capsys, *args, "--out", str(out_b))
        assert code_a == 0 and code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_output_by_extension(self, capsys, tmp_path):
        out = tmp_path / "paths.csv"
        code, _, _ = run(capsys, "simulate", "--kind", "bridge", "--J", "20",
                         "--M", "64", "--grid-points", "5", "--seed", "1",
                         "--pairs", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 65
        assert [float(x) for x in lines[0].split(",")] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_out_name_picks_the_format(self, capsys, tmp_path):
        # A name ending in .csv gets CSV; any other name, with or without a suffix, gets KLX1.
        args = ["simulate", "--kind", "wiener", "--J", "20", "--M", "32",
                "--grid-points", "5", "--seed", "4", "--pairs", "5"]
        for name in ("x.csv", "x.bin", "x"):
            code, _, _ = run(capsys, *args, "--out", str(tmp_path / name))
            assert code == 0
        lines = (tmp_path / "x.csv").read_text().splitlines()
        from_csv = [[float(v) for v in line.split(",")] for line in lines[1:]]
        for name in ("x.bin", "x"):
            assert (tmp_path / name).read_bytes()[:4] == b"KLX1"
            assert read_klx1(str(tmp_path / name)).tolist() == from_csv

    def test_out_format_option_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "wiener", "--J", "10", "--M", "16",
                  "--grid-points", "3", "--out", str(tmp_path / "x.csv"),
                  "--out-format", "klx1"])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_two_point_bridge_grid_skips_with_warning(self, capsys):
        code, _, err = run(capsys, "simulate", "--kind", "bridge", "--J", "10",
                           "--M", "16", "--grid-points", "2", "--seed", "0")
        assert code == 0
        assert "skipped" in err

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "simulate", "--kind", "demeaned", "--J", "20",
                           "--M", "200", "--grid-points", "5", "--seed", "3",
                           "--pairs", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["rows"]) == 8

    def test_bad_grid_points_exits_2(self, capsys):
        code, _, _ = run(capsys, "simulate", "--kind", "wiener", "--J", "10",
                         "--M", "16", "--grid-points", "1")
        assert code == 2

    @pytest.mark.parametrize("with_out", [False, True], ids=["no-out", "out"])
    def test_simulates_once(self, capsys, tmp_path, monkeypatch, with_out):
        calls = []
        sample_paths = klx.cli.sample_paths

        def counted(config):
            calls.append(config)
            return sample_paths(config)

        monkeypatch.setattr(klx.cli, "sample_paths", counted)
        out = ["--out", str(tmp_path / "paths.klx")] if with_out else []
        code, _, _ = run(capsys, "simulate", "--kind", "wiener", "--J", "20", "--M", "64",
                         "--grid-points", "5", "--pairs", "5", *out)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("threshold", ["inf", "nan", "0"])
    def test_bad_z_threshold_exits_2_without_output(self, capsys, tmp_path, threshold):
        out = tmp_path / "paths.klx"
        code, _, err = run(capsys, "simulate", "--kind", "wiener", "--J", "10", "--M", "16",
                           "--grid-points", "3", "--z-threshold", threshold,
                           "--out", str(out))
        assert code == 2
        assert "z_threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--pairs", "10001"), ("--z-threshold", "nan"),
                                             ("--pairs", "0")])
    def test_bad_test_settings_exit_2_before_sampling(self, capsys, tmp_path, monkeypatch,
                                                      flag, value):
        def refuse(config):
            raise AssertionError("sample_paths called for refused test settings")

        monkeypatch.setattr(klx.cli, "sample_paths", refuse)
        out = tmp_path / "paths.csv"
        code, stdout, err = run(capsys, "simulate", "--kind", "wiener", "--J", "10", "--M", "16",
                                "--grid-points", "3", flag, value, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")
        assert not out.exists()

    # numpy refuses both sizes up front (364 TiB and 72.8 TiB), so nothing is allocated.
    @pytest.mark.parametrize("j, m", [("4", "10000000000000"), ("10000000000000", "100")],
                             ids=["huge-M", "huge-J"])
    def test_impossible_allocation_exits_2(self, capsys, j, m):
        code, _, err = run(capsys, "simulate", "--kind", "wiener", "--J", j, "--M", m,
                           "--grid-points", "5")
        assert code == 2
        assert err.startswith("error: ") and "allocate" in err

    @pytest.mark.parametrize("j, m", [("10", str(10**12)), (str(10**12), "16")],
                             ids=["huge-M", "huge-J"])
    def test_oversized_config_exits_2_before_sampling(self, capsys, tmp_path, monkeypatch, j, m):
        def refuse(config):
            raise AssertionError("sample_paths called for an oversized config")

        monkeypatch.setattr(klx.cli, "sample_paths", refuse)
        out = tmp_path / "paths.klx"
        code, stdout, err = run(capsys, "simulate", "--kind", "wiener", "--J", j, "--M", m,
                                "--grid-points", "11", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and "refusing to allocate" in err
        assert str(11 * 10**12) in err
        assert os.listdir(tmp_path) == []

    def test_entry_cap_is_checked_before_the_grid_is_built(self, capsys, monkeypatch):
        class GridReached(Exception):
            pass

        def reached(*args, **kwargs):
            raise GridReached

        monkeypatch.setattr(np, "linspace", reached)
        code, stdout, err = run(capsys, "simulate", "--kind", "wiener", "--J", "10",
                                "--M", "16", "--grid-points", str(2**40))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and "refusing to allocate" in err
        assert str(10 * 2**40) in err
        with pytest.raises(GridReached):
            main(["simulate", "--kind", "wiener", "--J", "1", "--M", "2",
                  "--grid-points", str(klx.simulate._MAX_ENTRIES // 2)])

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--kind", "wiener", "--J", "10",
                           "--M", "16", "--grid-points", "3",
                           "--out", str(tmp_path / "missing" / "x.klx"))
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.parametrize("target", ["existing-dir", "missing/x.csv", "missing/x.klx"])
    def test_bad_out_exits_2_before_sampling(self, capsys, tmp_path, monkeypatch, target):
        def refuse(config):
            raise AssertionError("sample_paths called for an unwritable --out")

        monkeypatch.setattr(klx.cli, "sample_paths", refuse)
        (tmp_path / "existing-dir").mkdir()
        code, stdout, err = run(capsys, "simulate", "--kind", "wiener", "--J", "10",
                                "--M", "16", "--grid-points", "3",
                                "--out", str(tmp_path / target))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: cannot write output file")
        assert ("is a directory" if target == "existing-dir" else "no directory") in err
        assert os.listdir(tmp_path) == ["existing-dir"]
        assert os.listdir(tmp_path / "existing-dir") == []

    @pytest.mark.parametrize("name", ["fifo.csv", "fifo.klx"])
    def test_non_regular_out_exits_2_before_sampling(self, capsys, tmp_path, monkeypatch, name):
        def refuse(config):
            raise AssertionError("sample_paths called for a non-regular --out")

        monkeypatch.setattr(klx.cli, "sample_paths", refuse)
        os.mkfifo(tmp_path / name)
        code, stdout, err = run(capsys, "simulate", "--kind", "bridge", "--J", "4",
                                "--M", "3", "--grid-points", "3",
                                "--out", str(tmp_path / name))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: cannot write output file")
        assert "not a regular file" in err
        assert stat.S_ISFIFO(os.stat(tmp_path / name).st_mode)
        assert os.listdir(tmp_path) == [name]

    def test_empty_out_exits_2_before_sampling(self, capsys, tmp_path, monkeypatch):
        def refuse(config):
            raise AssertionError("sample_paths called for an empty --out")

        monkeypatch.setattr(klx.cli, "sample_paths", refuse)
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "simulate", "--kind", "bridge", "--J", "4",
                                "--M", "3", "--grid-points", "3", "--out", "",
                                "--format", "json")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: cannot write output file '': it names no file")
        assert os.listdir(tmp_path) == []

    def test_csv_bytes_do_not_depend_on_the_cpus_available(self, tmp_path):
        # 2000 x 101 values: many writer blocks, and BLAS on a run with one CPU or two.
        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        outputs = []
        for name, preexec in (("pinned.csv", one_cpu), ("free.csv", None)):
            result = subprocess.run(
                [sys.executable, "-m", "klx.cli", "simulate", "--kind", "bridge", "--J", "16",
                 "--M", "2000", "--grid-points", "101", "--seed", "5", "--pairs", "5",
                 "--out", str(tmp_path / name), "--format", "json"],
                env=src_env(), capture_output=True, text=True, timeout=120,
                preexec_fn=preexec)
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["passed"] is True
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        assert sorted(os.listdir(tmp_path)) == ["free.csv", "pinned.csv"]


class TestSeries:
    def test_triangular_closed_form_row(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "triangular", "--N", "3",
                           "--format", "csv")
        assert code == 0
        assert float(csv_rows(out)[0]["value"]) == pytest.approx(1.5, abs=1e-15)

    def test_estermann_residuals_decrease(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "estermann",
                           "--N", "10,100,1000", "--format", "csv")
        assert code == 0
        values = [abs(float(r["value"])) for r in csv_rows(out)]
        assert values[0] > values[1] > values[2]

    def test_zeta_rejects_zero(self, capsys):
        code, _, err = run(capsys, "series", "--which", "zeta", "--N", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("which", sorted(klx.cli._SERIES))
    def test_huge_n_exits_2_before_any_term(self, which, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("terms built for a refused level")

        for name in ("_power_fill", "_triangular_fill", "_leibniz_fill"):
            monkeypatch.setattr(klx.series, name, refuse)
        code, out, err = run(capsys, "series", "--which", which, "--N", "100000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("which", sorted(klx.cli._SERIES))
    def test_level_at_cap_accepted(self, which, capsys, monkeypatch):
        monkeypatch.setattr(klx.series, "_kahan", lambda terms: 0.0)
        code, out, _ = run(capsys, "series", "--which", which, "--N",
                           str(klx.series._MAX_TERMS), "--format", "csv")
        assert code == 0
        assert csv_rows(out)[0]["N"] == str(klx.series._MAX_TERMS)

    def test_unknown_series_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["series", "--which", "fibonacci", "--N", "3"])
        assert excinfo.value.code == 2

    def test_reference_limits(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "bernoulli", "--N", "1000",
                           "--format", "csv")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["reference_limit"]) == pytest.approx(math.pi**2 / 16.0, rel=1e-15)
        assert abs(float(row["distance"])) < 0.01


_DEGENERATE_PRETTY = ("s  t  empirical  truncated_target  stderr  z_score\n"
                      "-  -  ---------  ----------------  ------  -------\n")

#: Case -> (argv, patch (module, name, value) or None, exit code, table rows,
#: pretty footer or None).
_VERDICTS = {
    "verify-fails": (("verify", "--J", "10"), (klx.mercer, "_FLOAT_SLACK", -1.0), 1, 3,
                     "target pi^2/6 = 1.6449340668482264; tail bound violated"),
    "simulate-fails": (("simulate", "--kind", "wiener", "--J", "10", "--M", "200",
                        "--grid-points", "5", "--pairs", "5"),
                       (klx.simulate, "truncated_covariance",
                        lambda kind, s, t, j_max: np.full(len(s), 1e3)), 1, 5,
                       "5 of 5 pairs exceeded |z| > 4.0 (allowed 1)"),
    "simulate-skips": (("simulate", "--kind", "bridge", "--J", "8", "--M", "16",
                        "--grid-points", "2"), None, 0, 0, None),
}


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
@pytest.mark.parametrize("case", sorted(_VERDICTS))
def test_verdict_sets_exit_code_footer_and_passed(capsys, monkeypatch, case, fmt):
    argv, patch, exit_code, rows, footer = _VERDICTS[case]
    if patch is not None:
        monkeypatch.setattr(*patch)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == exit_code
    lines = out.splitlines()
    if fmt == "pretty":
        # header, rule, rows, then the footer, if the command has one
        assert len(lines) == 2 + rows + (footer is not None)
        if footer is None:
            assert out == _DEGENERATE_PRETTY
        else:
            assert lines[-1] == footer
    elif fmt == "csv":
        assert len(lines) == 1 + rows
        assert {line.count(",") for line in lines} == {lines[0].count(",")}
    else:
        doc = json.loads(out)
        assert doc["passed"] is (exit_code == 0)
        assert len(doc["rows"]) == rows
    skipped = case == "simulate-skips"
    assert err == ("warning: all grid columns are degenerate; covariance test skipped\n"
                   if skipped else "")


def src_env():
    """Environment for a fresh interpreter that imports klx from this checkout."""
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def loaded_by_import(*packages):
    """Modules of the given top-level packages that ``import klx.cli`` loads."""
    probe = ("import sys, klx.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_does_not_load_scipy():
    assert loaded_by_import("scipy") == "[]"


def test_import_does_not_load_numpy_random():
    # numpy.random adds about 6 MB of RSS and 13 ms to start-up; the simulation
    # loads it when it runs, not at import.
    assert "'numpy.random" not in loaded_by_import("numpy")


def test_oracle_does_not_load_numpy_random():
    # 500 nodes and 3 eigenpairs take the iterated side, whose start block is
    # the Chebyshev basis at the nodes, not a random draw.
    probe = ("import sys, klx.cli; "
             "code = klx.cli.main(['oracle', '--kind', 'detrended', '--nodes', '500', "
             "'--eigs', '3', '--format', 'json']); "
             "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def test_import_does_not_load_process_pools():
    # The CSV writer runs in the calling process; nothing needs pool machinery.
    assert loaded_by_import("multiprocessing", "concurrent") == "[]"


def test_import_builds_no_writer_table():
    # Every table of the %.17g writer is built on first use, not at import.
    probe = "import klx.cli; from klx import reports; print(reports._g17_tables.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_import_does_not_load_secrets():
    # Temp file names come from os.urandom; secrets would bring hmac and hashlib.
    assert loaded_by_import("secrets", "hmac", "hashlib") == "[]"


_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def unpinned_env(**settings):
    """src_env() without the BLAS thread count that importing klx set in this process."""
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return dict(env, **settings)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize(("preset", "expected"), [(None, "1"), ("2", "2")])
def test_import_runs_blas_on_one_thread_unless_the_caller_chose(preset, expected):
    # The preset "2" is the negative control: its second thread shows that the
    # count below sees OpenBLAS's worker threads.
    settings = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    probe = ("import os, klx.cli; "
             "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    result = subprocess.run([sys.executable, "-c", probe], env=unpinned_env(**settings),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    assert value == expected
    if len(_CPUS) >= int(expected):
        assert threads == expected


@pytest.mark.skipif(len(_CPUS) < 2, reason="needs 2 or more CPUs")
@pytest.mark.parametrize("argv", [
    ("simulate", "--kind", "wiener", "--J", "2000", "--M", "200", "--grid-points", "201",
     "--seed", "3", "--out", "{out}", "--format", "json"),
    ("oracle", "--kind", "bridge", "--nodes", "300", "--eigs", "20", "--format", "json"),
], ids=["simulate", "oracle"])
def test_output_bytes_do_not_depend_on_the_cpu_count(tmp_path, argv):
    # With BLAS on as many threads as CPUs, the QR factor, the projection and the
    # dense eigh each rounded differently on one CPU than on two.
    out = tmp_path / "paths.klx"
    cpu = min(_CPUS)
    runs = []
    for preexec in (lambda: os.sched_setaffinity(0, {cpu}), None):
        result = subprocess.run([sys.executable, "-m", "klx.cli",
                                 *(arg.format(out=out) for arg in argv)],
                                env=unpinned_env(), capture_output=True, timeout=120,
                                preexec_fn=preexec)
        assert result.returncode in (0, 1), result.stderr
        runs.append((result.returncode, result.stdout, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert ("--out" in argv) == (runs[0][2] is not None)
    assert runs[0] == runs[1]
