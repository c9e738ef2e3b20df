"""Tests of the benchmark itself: its output checks, negative controls and tracer.

    python3 -m pytest benchmarks/test_benchmark.py -q

The commands here are small versions of the workloads, so the file runs in
well under a minute.  Scratch files go to ``.bench_out/`` in the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = [
    run.Command(("oracle", "--kind", "detrended", "--nodes", "500", "--eigs", "3",
                 "--format", "json"), run.check_oracle(3)),
    run.Command(("verify", "--proof", "all", "--J", "10,1000", "--format", "json"),
                run.check_verify(6)),
    run._simulate_command("wiener", 40, 300, 6, 7, ".bench_out/selftest.klx1"),
    run._simulate_command("bridge", 16, 300, 9, 7, ".bench_out/selftest.csv"),
]


def _write_ensemble(command):
    """Run a simulate command and leave its file in place for tampering."""
    outcome = run.spawn([sys.executable, "-m", "klx.cli", *command.argv])
    assert outcome.code == 0, outcome.error
    return run.ROOT / command.ensemble.path


def test_small_workloads_pass_their_checks():
    result = run.run_pass(SMALL, {})
    assert [o.error for o in result.outcomes] == [None] * len(SMALL)


def test_truncated_klx1_file_fails():
    command = SMALL[2]
    path = _write_ensemble(command)
    assert run.check_ensemble(command.ensemble, None)[0] is None
    with open(path, "r+b") as handle:
        handle.truncate(path.stat().st_size - 8)
    assert "bytes, expected" in run.check_ensemble(command.ensemble, None)[0]
    with open(path, "r+b") as handle:
        handle.truncate(12)
    assert "truncated" in run.check_ensemble(command.ensemble, None)[0]
    path.unlink()


def test_changed_ensemble_byte_fails():
    command = SMALL[2]
    path = _write_ensemble(command)
    error, digest = run.check_ensemble(command.ensemble, None)
    assert error is None
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    assert "changed between passes" in run.check_ensemble(command.ensemble, digest)[0]
    path.unlink()


def test_changed_ensemble_counts_as_failed_command():
    result = run.run_pass([SMALL[3]], {0: "0" * 64})
    assert "changed between passes" in result.outcomes[0].error


def test_csv_with_missing_row_fails():
    command = SMALL[3]
    path = _write_ensemble(command)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert "data rows" in run.check_ensemble(command.ensemble, None)[0]
    path.unlink()


def test_oracle_reporting_failure_fails():
    doc = {"rows": [{"j": 1, "rel_error": 1e-5}], "rtol": 1e-3, "passed": False}
    assert "passed = false" in run.check_oracle(1)(0, json.dumps(doc))
    doc = {"rows": [{"j": 1, "rel_error": 2e-3}], "rtol": 1e-3, "passed": True}
    assert "rel_error" in run.check_oracle(1)(0, json.dumps(doc))
    # A real under-resolved oracle run exits 1 with passed = false.
    coarse = run.Command(("oracle", "--kind", "wiener", "--nodes", "16", "--eigs", "5",
                          "--format", "json"), run.check_oracle(5))
    assert run.run_pass([coarse], {}).outcomes[0].error.startswith("exit code 1")


def test_verify_row_outside_tail_bound_fails():
    doc = {"rows": [{"proof_id": "Proof1", "J": 10, "abs_error": 0.2, "tail_bound": 0.1}],
           "passed": True}
    assert "tail bound" in run.check_verify(1)(0, json.dumps(doc))


def test_traced_counts_repeat_and_every_layer_is_seen():
    hashes = {}
    first = run.run_pass(SMALL, hashes, trace_id="selftest/pass0")
    second = run.run_pass(SMALL, hashes, trace_id="selftest/pass1")
    for result in (first, second):
        assert [o.error for o in result.outcomes] == [None] * len(SMALL)
    a, b = tracer.layer_metrics(first.spans), tracer.layer_metrics(second.spans)
    counts = {k: v for k, (v, unit) in a.items() if unit != "s" and not unit.endswith("/s")}
    assert counts == {k: b[k][0] for k in counts}
    # Both names sample_paths is looked up by: the CLI's and covariance_test's.
    assert counts["simulate.sample_paths.calls"] == 4
    assert counts["simulate.normals_drawn"] == 2 * (300 * 40 + 300 * 16)
    assert counts["quadrature.gauss_legendre_01.calls"] == 1
    assert counts["nystrom.eigensolve.computed"] == 500
    assert counts["nystrom.eigensolve.useful_ratio"] == 3 / 500
    assert counts["kernels.gram.entries"] == 500 * 500
    assert counts["series.kahan.terms"] > 0
    assert counts["eigen.bessel_roots.solved"] > 0
    assert counts["mercer.truncated_covariance.calls"] == 100
    assert counts["simulate.write.bytes"] > 0
    assert counts["reports.render.bytes"] > 0
    assert len({s["trace"] for s in first.spans}) == len(SMALL)
    roots = [s for s in first.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * len(SMALL)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: workload.why for name, workload in run.WORKLOADS.items()}
    outcome = run.Outcome([], 0, 1.0, 1.0, 1.0, "")
    end_to_end = run.end_to_end_metrics([run.PassResult([outcome])], [outcome])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()}
    per_layer = {name: unit for name, (_, unit) in tracer.layer_metrics([]).items()}
    per_layer["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer


def test_self_time_excludes_children():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "name": "b", "start": 4.0, "end": 6.0},
        {"id": 3, "parent": 2, "name": "c", "start": 4.5, "end": 5.0},
    ]
    assert tracer._self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.5, 3: 0.5}


def test_without_sources_the_benchmark_fails():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-1e6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(autouse=True, scope="module")
def _clean_outputs():
    yield
    for name in ("selftest.klx1", "selftest.csv"):
        (run.OUT / name).unlink(missing_ok=True)
