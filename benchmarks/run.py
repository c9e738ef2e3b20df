"""klx benchmark: end-to-end CLI runs per workload, and a traced per-layer run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py                # every workload, end to end

It measures the checkout it sits in: ``src/klx`` next to ``benchmarks/``,
with nothing installed (children get ``PYTHONPATH=src``).  One client runs a
workload's commands one after another, each waiting for the one before (a
closed loop); one run of all of a workload's commands is a pass.

``--trace 0`` first times ``klx <subcommand> --help`` in fresh processes
(``setup_s``: interpreter start plus the numpy/scipy/klx imports every run
pays), then repeats passes of fresh ``python -m klx.cli`` children for about
``--seconds`` and reports medians over passes.  ``--trace 1`` runs one
untraced pass, then one pass through ``tracer.py``, and reports the per-layer
metrics of the traced pass and the tracing overhead.

``BENCHMARK.json`` at the repository root is the benchmark's record: the
workloads and why each was chosen, and every metric with its unit and, for the
end-to-end ones, the share by which a change may worsen it.

Every command's output is checked; a non-zero exit or a failed check counts
the command as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, spans
and a full result record go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: Frozen acceptance tolerance of the Nystrom oracle (relative eigenvalue error).
ORACLE_RTOL = 1e-3
KINDS = ("wiener", "demeaned", "detrended", "bridge")
SETUP_REPEATS = 5
#: A child that runs this long is killed and counted as failed, so that one
#: hung command cannot hold the run past its deadline.
COMMAND_TIMEOUT_S = 150.0
THREAD_VARS = ("KLX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Ensemble:
    """The ensemble file a simulate command writes, and what it must hold."""

    path: str
    n_paths: int
    grid_points: int
    pinned_ends: bool = False


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]
    ensemble: Ensemble | None = None


@dataclass(frozen=True)
class Workload:
    subcommand: str
    why: str
    commands: Callable[[int], list[Command]]
    paths_per_pass: int = 0


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else the reason.


def _json_output(code: int, stdout: str):
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def check_verify(n_rows: int):
    def check(code: int, stdout: str) -> str | None:
        doc, error = _json_output(code, stdout)
        if error:
            return error
        if doc.get("passed") is not True:
            return "verify reported passed = false"
        if len(doc["rows"]) != n_rows:
            return f"expected {n_rows} rows, got {len(doc['rows'])}"
        for row in doc["rows"]:
            if row["abs_error"] is None or not row["abs_error"] <= row["tail_bound"]:
                return f"{row['proof_id']} at J={row['J']}: error exceeds its tail bound"
        return None

    return check


def check_oracle(n_rows: int):
    def check(code: int, stdout: str) -> str | None:
        doc, error = _json_output(code, stdout)
        if error:
            return error
        if doc.get("passed") is not True:
            return "oracle reported passed = false"
        if len(doc["rows"]) != n_rows:
            return f"expected {n_rows} rows, got {len(doc['rows'])}"
        for row in doc["rows"]:
            if row["rel_error"] is None or not row["rel_error"] <= ORACLE_RTOL:
                return f"eigenvalue {row['j']}: rel_error {row['rel_error']} > {ORACLE_RTOL}"
        return None

    return check


def check_simulate(code: int, stdout: str) -> str | None:
    doc, error = _json_output(code, stdout)
    if error:
        return error
    if doc.get("passed") is not True or doc.get("skipped") is not False:
        return "covariance test did not pass"
    return None


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_klx1(path: Path, spec: Ensemble) -> str | None:
    with open(path, "rb") as handle:
        header = handle.read(20)
    if header[:4] != b"KLX1":
        return f"bad KLX1 magic {header[:4]!r}"
    if len(header) < 20:
        return "KLX1 header is truncated"
    dims = (int.from_bytes(header[4:12], "little"), int.from_bytes(header[12:20], "little"))
    if dims != (spec.n_paths, spec.grid_points):
        return f"KLX1 dimensions {dims} != {(spec.n_paths, spec.grid_points)}"
    size = path.stat().st_size
    expected = 20 + 8 * spec.n_paths * spec.grid_points
    if size != expected:
        return f"KLX1 file has {size} bytes, expected {expected}"
    return None


def _check_csv(path: Path, spec: Ensemble) -> str | None:
    import numpy as np

    grid = ",".join(f"{g:.17g}" for g in np.linspace(0.0, 1.0, spec.grid_points))
    with open(path) as handle:
        if handle.readline().rstrip("\n") != grid:
            return "CSV header row is not the grid"
        first = handle.readline().rstrip("\n").split(",")
        rows = 1 + sum(1 for _ in handle) if first != [""] else 0
    if rows != spec.n_paths:
        return f"CSV has {rows} data rows, expected {spec.n_paths}"
    if len(first) != spec.grid_points:
        return f"CSV rows have {len(first)} fields, expected {spec.grid_points}"
    if spec.pinned_ends and (first[0] != "0" or first[-1] != "0"):
        return "pinned endpoint columns are not exactly zero"
    return None


def check_ensemble(spec: Ensemble, expected_sha256: str | None) -> tuple[str | None, str | None]:
    """Check an ensemble file; return (error, sha256 of its bytes)."""
    path = ROOT / spec.path
    if not path.is_file():
        return "ensemble file was not written", None
    check = _check_csv if path.suffix == ".csv" else _check_klx1
    error = check(path, spec)
    digest = _file_sha256(path)
    if error is None and expected_sha256 is not None and digest != expected_sha256:
        error = f"ensemble bytes changed between passes (sha256 {digest[:16]}...)"
    return error, digest


# ---------------------------------------------------------------------------
# Workloads.  The reasons are repeated in BENCHMARK.json.


def _oracle_commands(seed: int) -> list[Command]:
    kinds = list(KINDS)
    random.Random(seed).shuffle(kinds)
    return [Command(("oracle", "--kind", kind, "--nodes", "2000", "--eigs", "5",
                     "--format", "json"), check_oracle(5)) for kind in kinds]


def _verify_commands(seed: int) -> list[Command]:
    return [Command(("verify", "--proof", "all", "--J", "1000,10000,100000,1000000",
                     "--format", "json"), check_verify(12))]


def _simulate_command(kind: str, j: int, m: int, g: int, seed: int, out: str) -> Command:
    return Command(
        ("simulate", "--kind", kind, "--J", str(j), "--M", str(m), "--grid-points", str(g),
         "--seed", str(seed), "--out", out, "--format", "json"),
        check_simulate,
        Ensemble(out, m, g, pinned_ends=kind == "bridge"),
    )


WORKLOADS = {
    "oracle-2000": Workload(
        "oracle",
        "Nystrom oracle at 2000 nodes for all four kinds: Gram build, full eigh keeping 5 of "
        "2000 pairs, cold Gauss-Legendre nodes; no simulation, almost no Bessel roots",
        _oracle_commands,
    ),
    "verify-1e6": Workload(
        "verify",
        "all three zeta(2) routes up to J=1e6: Bessel roots re-solved as route 3 grows, "
        "pure-Python Kahan sums; no Gram, eigensolve or normals",
        _verify_commands,
    ),
    "simulate-long": Workload(
        "simulate",
        "Wiener J=2000 M=20000 G=11 to KLX1: bound by per-path normals (4e7), ensemble "
        "simulated twice, tiny write; where batched normals and one pass show",
        lambda seed: [_simulate_command("wiener", 2000, 20000, 11, seed,
                                        ".bench_out/long.klx1")],
        paths_per_pass=20000,
    ),
    "simulate-wide": Workload(
        "simulate",
        "bridge J=64 M=20000 G=101 to CSV: per-path generator set-up, CSV writer and MxG "
        "matrix dominate; pinned zero columns; where a streaming writer shows",
        lambda seed: [_simulate_command("bridge", 64, 20000, 101, seed,
                                        ".bench_out/wide.csv")],
        paths_per_pass=20000,
    ),
}


# ---------------------------------------------------------------------------
# Running commands.


@dataclass
class Outcome:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    error: str | None = None
    sha256: str | None = None


@dataclass
class PassResult:
    outcomes: list[Outcome]
    spans: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str]) -> Outcome:
    """Run one child to completion; wall time, rusage CPU and peak RSS from wait4."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"stdout-{os.getpid()}.txt", OUT / f"stderr-{os.getpid()}.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr_lines = err_path.read_text(errors="replace").strip().splitlines()
    out_path.unlink()
    err_path.unlink()
    outcome = Outcome(argv, code, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stdout)
    if code != 0:
        outcome.error = f"exit code {code}" + (f": {stderr_lines[-1]}" if stderr_lines else "")
    return outcome


def run_pass(commands: list[Command], hashes: dict[int, str], trace_id: str | None = None
             ) -> PassResult:
    """Run the commands in order; with trace_id, each under the tracer."""
    result = PassResult([])
    for index, command in enumerate(commands):
        if trace_id is None:
            argv = [sys.executable, "-m", "klx.cli", *command.argv]
        else:
            spans_path = OUT / f"spans-{os.getpid()}.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(spans_path), f"{trace_id}/cmd{index}",
                    "--", *command.argv]
        outcome = spawn(argv)
        outcome.error = outcome.error or command.check(outcome.code, outcome.stdout)
        if command.ensemble is not None:
            error, outcome.sha256 = check_ensemble(command.ensemble, hashes.get(index))
            outcome.error = outcome.error or error
            hashes.setdefault(index, outcome.sha256)
            (ROOT / command.ensemble.path).unlink(missing_ok=True)
        if trace_id is not None and spans_path.is_file():
            offset = len(result.spans)
            for span in json.loads(spans_path.read_text()):
                span["id"] += offset
                span["parent"] = None if span["parent"] is None else span["parent"] + offset
                result.spans.append(span)
            spans_path.unlink()
        result.outcomes.append(outcome)
    return result


def measure_setup(subcommand: str) -> list[Outcome]:
    def check(code: int, stdout: str) -> str | None:
        return None if code == 0 and stdout.startswith("usage:") else "help output missing"

    outcomes = []
    for _ in range(SETUP_REPEATS):
        outcome = spawn([sys.executable, "-m", "klx.cli", subcommand, "--help"])
        outcome.error = outcome.error or check(outcome.code, outcome.stdout)
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# Provenance and reporting.


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(name: str, seed: int, commands: list[Command]) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": name,
        "seed": seed,
        "argv": [[sys.executable, "-m", "klx.cli", *c.argv] for c in commands],
    }


def end_to_end_metrics(passes: list[PassResult], setup: list[Outcome]
                       ) -> dict[str, tuple[float, str]]:
    """Medians over the untraced passes, and over the set-up runs for setup_s."""
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": (statistics.median(o.wall_s for o in setup), "s"),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    hashes: dict[int, str] = {}
    outcomes: list[Outcome] = []
    passes: list[PassResult] = []
    spans: list[dict] = []

    if trace:
        plain = run_pass(commands, hashes)
        traced = run_pass(commands, hashes, trace_id=f"{name}/seed{seed}/pass1")
        passes, spans = [plain, traced], traced.spans
        metrics = tracer.layer_metrics(spans)
        metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    else:
        setup = measure_setup(workload.subcommand)
        outcomes.extend(setup)
        start = time.perf_counter()
        while True:
            passes.append(run_pass(commands, hashes))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
                break
        metrics = end_to_end_metrics(passes, setup)
    for p in passes:
        outcomes.extend(p.outcomes)

    failures = [o for o in outcomes if o.error]
    digests = sorted({o.sha256 for o in outcomes if o.sha256})
    record = {
        "provenance": provenance(name, seed, commands),
        "trace": trace,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb} for p in passes],
        "ensemble_sha256": digests,
        "attempted": len(outcomes),
        "failed": len(failures),
        "errors": [{"argv": o.argv, "error": o.error} for o in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(passes)} passes): {workload.why}")
    for o in failures:
        print(f"FAILED {' '.join(o.argv)}: {o.error}")
    if not trace:
        walls = sorted(p.wall_s for p in passes)
        print(f"  pass wall_s: {', '.join(_fmt(w) for w in walls)}")
        if workload.paths_per_pass:
            print(f"  paths_per_s = {_fmt(workload.paths_per_pass / metrics['wall_s'][0])} 1/s")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {_fmt(value)} {unit}")
    print(f"  error_rate = {_fmt(len(failures) / len(outcomes))} ({len(failures)} of "
          f"{len(outcomes)} commands)")
    for digest in digests:
        print(f"  ensemble sha256 {digest}")
    print("provenance " + json.dumps(record["provenance"]))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "klx" / "cli.py").is_file():
        sys.stderr.write(f"error: no klx sources under {ROOT / 'src'}; run inside a klx "
                         "source checkout\n")
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(names) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
