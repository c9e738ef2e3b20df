"""Monte Carlo simulation of the four processes from truncated expansions.

The expansion X(t) = sum_{j<=J} lambda_j^(-1/2) f_j(t) Z_j with independent
standard normal Z_j has the law N(0, B^T B) on a grid of G points, where B is
the J x G basis with rows lambda_j^(-1/2) f_j(grid).  A path is sampled as W R
with R = qr(B, mode="r") of shape min(J, G) x G, so R^T R = B^T B: the same
law from min(J, G) normals W per path, which are not the coefficients Z_j.
The normals of an ensemble come from one Philox counter-based stream keyed by
the seed (key seed * 2**64), drawn in path order, so a path's normals do not
depend on the ensemble size or on the block that holds it.  Paths are
projected in fixed blocks of ``_BLOCK_PATHS``, because BLAS may round a row
differently in a matmul of another shape; identical configs therefore give
identical bytes.  The blocks also bound the memory the normals take.
Statistical checks compare empirical covariances against the truncated target
sum_{j<=J} f_j(s) f_j(t) / lambda_j, which isolates Monte Carlo error from
truncation bias.
"""

from __future__ import annotations

import itertools
import math
import os
import secrets
import stat
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .eigen import eigenfunction_matrix, eigenvalues
from .kernels import KernelKind, _validated_grid
from .mercer import truncated_covariance
from .reports import _csv_blocks
from .series import _require_count

KLX1_MAGIC = b"KLX1"

_BLOCK_PATHS = 2048
_MAX_SEED = 2**64
#: Largest basis or ensemble a config may ask for: 2**26 float64 entries, 512 MiB.
_MAX_ENTRIES = 2**26
#: Most pairs one covariance test draws: about 6.5 s at 0.65 ms a pair on 20 000 paths.
_MAX_PAIRS = 10**4
#: Fewest values worth a forked CSV writer process.  Median ``_write_csv`` time
#: with 1 part against 2, 101 columns, 2 CPUs: 2**12 values 1.7 against 4.8 ms,
#: 2**15 10.7-11.7 against 11.7-14.6 ms, 2**15.75 15.1-15.3 against 17.1-17.2 ms,
#: 2**16 18.1-21.2 against 16.9-18.5 ms, 2**18 65.8 against 45.9 ms; so two
#: parts pay from 2**16 values, 2**15 each.
_CSV_MIN_PART_VALUES = 2**15
#: Bytes per read when a part file is appended to the export.
_CSV_COPY_BYTES = 2**20


def _require_sizes(truncation: int, n_paths: int, grid_points: int) -> None:
    """Refuse counts out of range, and a basis or ensemble past _MAX_ENTRIES."""
    _require_count(truncation, "truncation")
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    for name, count in (("truncation", truncation), ("n_paths", n_paths)):
        if count * grid_points > _MAX_ENTRIES:
            raise ValueError(f"{name} * grid points = {count * grid_points} exceeds "
                             f"{_MAX_ENTRIES} entries; refusing to allocate")


def _require_test_settings(pair_count: int, z_threshold: float) -> None:
    """Refuse a pair count outside 1.._MAX_PAIRS or a threshold not finite and > 0."""
    _require_count(pair_count, "pair_count")
    if pair_count > _MAX_PAIRS:
        raise ValueError(f"pair_count must be <= {_MAX_PAIRS}, got {pair_count}")
    if not (math.isfinite(z_threshold) and z_threshold > 0.0):
        raise ValueError(f"z_threshold must be finite and > 0, got {z_threshold}")


@dataclass(frozen=True)
class SimulationConfig:
    """Process kind, truncation level, ensemble size, grid and seed."""

    kind: KernelKind
    truncation: int
    n_paths: int
    grid: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        grid = _validated_grid(self.grid)
        _require_sizes(self.truncation, self.n_paths, grid.size)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths: row i holds path i sampled on config.grid."""

    config: SimulationConfig
    values: np.ndarray


@dataclass(frozen=True)
class CovarianceCheck:
    """Empirical vs truncated-target covariance at one grid point pair."""

    s: float
    t: float
    empirical: float
    truncated_target: float
    stderr: float
    z_score: float


@dataclass(frozen=True)
class CovarianceTestReport:
    checks: tuple[CovarianceCheck, ...]
    exceedances: int
    allowed_exceedances: int
    passed: bool
    skipped: bool
    message: str


def sample_paths(config: SimulationConfig) -> PathEnsemble:
    """Generate the ensemble; bit-identical for identical configs.

    Each path is N(0, B^T B) on the grid, drawn as min(J, G) standard normals
    times R = qr(B, mode="r"); the normals are not the expansion coefficients.
    """
    j_max = config.truncation
    basis = eigenfunction_matrix(config.kind, j_max, config.grid)
    basis = basis / np.sqrt(eigenvalues(config.kind, j_max))[:, None]
    factor = np.linalg.qr(basis, mode="r")
    values = np.empty((config.n_paths, config.grid.size))
    gen = np.random.Generator(np.random.Philox(key=config.seed * _MAX_SEED))
    for start in range(0, config.n_paths, _BLOCK_PATHS):
        stop = min(start + _BLOCK_PATHS, config.n_paths)
        values[start:stop] = gen.standard_normal((stop - start, factor.shape[0])) @ factor

    if not np.isfinite(values).all():
        raise RuntimeError("simulation produced non-finite values")
    values.setflags(write=False)
    return PathEnsemble(config=config, values=values)


def empirical_covariance(ensemble: PathEnsemble, s_index: int, t_index: int) -> CovarianceCheck:
    """Covariance check at one grid index pair.

    The process is zero-mean, so the empirical covariance is the plain mean
    of the products; stderr is their sample standard deviation over sqrt(M).
    Raises on a degenerate (zero-spread) product column.
    """
    config = ensemble.config
    grid = config.grid
    for name, idx in (("s_index", s_index), ("t_index", t_index)):
        if not 0 <= idx < grid.size:
            raise ValueError(f"{name} out of range: {idx}")
    products = ensemble.values[:, s_index] * ensemble.values[:, t_index]
    stderr = float(products.std(ddof=1)) / math.sqrt(products.size)
    if stderr == 0.0:
        raise ValueError(
            f"degenerate product column at grid pair ({grid[s_index]}, {grid[t_index]}): "
            "stderr is zero"
        )
    target = truncated_covariance(config.kind, grid[s_index], grid[t_index], config.truncation)
    empirical = float(products.mean())
    return CovarianceCheck(
        s=float(grid[s_index]),
        t=float(grid[t_index]),
        empirical=empirical,
        truncated_target=target,
        stderr=stderr,
        z_score=(empirical - target) / stderr,
    )


def _allowed_exceedances(pair_count: int, z_threshold: float) -> int:
    """Exceedance budget: expected count plus four binomial sigmas, at least 1."""
    p = math.erfc(z_threshold / math.sqrt(2.0))
    expected = pair_count * p
    return max(1, math.ceil(expected + 4.0 * math.sqrt(max(expected * (1.0 - p), 0.0))))


def covariance_test(
    ensemble: PathEnsemble, pair_count: int, z_threshold: float
) -> CovarianceTestReport:
    """Z-test the ensemble's covariances at random grid pairs.

    Pairs are drawn (deterministically from the seed) among grid columns with
    spread, that is with two distinct values; constant columns, such as the
    Wiener process at t = 0 or the bridge endpoints where every
    eigenfunction vanishes, carry no information and are excluded.  If no
    column has spread the test is skipped and counts as a pass.
    """
    _require_test_settings(pair_count, z_threshold)
    config = ensemble.config
    usable = np.flatnonzero(ensemble.values.max(axis=0) > ensemble.values.min(axis=0))
    skipped = usable.size == 0
    checks = ()
    if not skipped:
        sampler = np.random.Generator(np.random.Philox(key=config.seed * _MAX_SEED + 1))
        picks = usable[sampler.integers(0, usable.size, size=(pair_count, 2))]
        checks = tuple(empirical_covariance(ensemble, int(s), int(t)) for s, t in picks)
    exceedances = sum(1 for c in checks if abs(c.z_score) > z_threshold)
    allowed = _allowed_exceedances(pair_count, z_threshold)
    if skipped:
        message = "all grid columns are degenerate; covariance test skipped"
    else:
        message = (
            f"{exceedances} of {pair_count} pairs exceeded |z| > {z_threshold} "
            f"(allowed {allowed})"
        )
    return CovarianceTestReport(
        checks=checks,
        exceedances=exceedances,
        allowed_exceedances=allowed,
        passed=exceedances <= allowed,
        skipped=skipped,
        message=message,
    )


def _require_writable_target(path: str) -> None:
    """Refuse, with an OSError that says why, an output path that is a directory
    or another file that is not regular (a FIFO, a device), or has no directory."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError("it is a directory" if os.path.isdir(path) else "it is not a regular file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OSError(f"no directory {parent!r}")


def _write_atomically(path: str, chunks: Iterable[bytes | memoryview]) -> None:
    """Write chunks to a temp file beside path, then rename it into place.

    On any exception the temp file is removed and a file already at path is
    left as it was, so a failed export never leaves a partial file.  Refuses
    a target _require_writable_target refuses before the temp file is opened.
    """
    _require_writable_target(path)
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    handle = open(tmp, "xb")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_part_count(n_rows: int, n_cols: int) -> int:
    """Processes that format a CSV export: one per CPU this process may run
    on, at most one per row and one per _CSV_MIN_PART_VALUES values."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, n_rows, n_rows * n_cols // _CSV_MIN_PART_VALUES))


def _reaped_parts(children: dict[int, tuple[str, int, int]]):
    """Reap each writer child in row order and yield the bytes of its part
    file; a reaped child leaves ``children``.  Raises OSError for a child
    that failed."""
    for pid, (part, start, stop) in list(children.items()):
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del children[pid]
        if status != 0:
            how = f"was killed by signal {-status}" if status < 0 else f"exited with {status}"
            raise OSError(f"the CSV writer process for rows {start}-{stop} {how}")
        with open(part, "rb") as handle:
            yield from iter(lambda: handle.read(_CSV_COPY_BYTES), b"")


def _write_csv(ensemble: PathEnsemble, path: str, parts: int) -> None:
    """CSV export split into ``parts`` contiguous row ranges.

    Each range after the first is formatted by a forked child into a part
    file that the parent opened beside path.  The parent writes the header
    and the first range into the temp file of _write_atomically, then reaps
    the children in row order and appends their parts.  A child ends in
    ``os._exit`` whatever happens, so it never unwinds into the caller,
    flushes the parent's buffers or runs ``atexit``.  It runs only
    element-wise numpy, ``%`` and writes, no BLAS, so forking after BLAS has
    started its threads is safe.  On any exception in the parent every live
    child is killed and reaped; the part files are always removed.  A target
    _require_writable_target refuses is refused before any child is forked.
    """
    _require_writable_target(path)
    values = ensemble.values
    bounds = [values.shape[0] * k // parts for k in range(parts + 1)]
    parent = os.getpid()
    children: dict[int, tuple[str, int, int]] = {}
    part_paths = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            part = f"{path}.{secrets.token_hex(6)}.part"
            with open(part, "xb") as handle:
                part_paths.append(part)
                pid = os.fork()
                if pid == 0:
                    for chunk in _csv_blocks(values, start, stop):
                        handle.write(chunk)
                    handle.flush()
                    os._exit(0)
            children[pid] = (part, start, stop)
        _write_atomically(path, itertools.chain(
            _csv_blocks(ensemble.config.grid[None, :], 0, 1), _csv_blocks(values, 0, bounds[1]),
            _reaped_parts(children)))
    except BaseException as exc:
        if os.getpid() != parent:
            os.write(2, f"error: CSV writer process: {exc!r}\n".encode())
            os._exit(1)
        raise
    finally:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in part_paths:
            os.unlink(part)


def write_ensemble_csv(ensemble: PathEnsemble, path: str) -> None:
    """CSV export: header row holds the grid, then one row per path.

    Every value is printed exactly by the block writer of ``klx.reports``, in
    up to one process per CPU this process may run on (forked children, one
    contiguous row range each); the bytes do not depend on how many.
    """
    _write_csv(ensemble, path, _csv_part_count(*ensemble.values.shape))


def write_ensemble_klx1(ensemble: PathEnsemble, path: str) -> None:
    """Binary export: magic "KLX1", two little-endian uint64 dims (paths,
    grid points), then the row-major little-endian float64 matrix."""
    values = np.ascontiguousarray(ensemble.values, dtype="<f8")
    _write_atomically(path, [
        KLX1_MAGIC,
        struct.pack("<QQ", *values.shape),
        values.reshape(-1).view(np.uint8).data,
    ])


def read_klx1(path: str) -> np.ndarray:
    """Read a KLX1 binary matrix back as an (n_paths, n_grid) float array.

    A regular file whose size does not match its header raises ValueError
    before any array is sized from the header; otherwise the payload is read
    straight into one array of the header's shape.  A shape numpy or the
    memory cannot hold, which a pipe's header may claim, raises ValueError too.
    """
    mismatch = ValueError("KLX1 payload size does not match header dimensions")
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != KLX1_MAGIC:
            raise ValueError(f"not a KLX1 file: bad magic {magic!r}")
        header = handle.read(16)
        if len(header) != 16:
            raise ValueError("truncated KLX1 header: expected 16 bytes of dimensions")
        n_paths, n_grid = struct.unpack("<QQ", header)
        info = os.fstat(handle.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size != 20 + 8 * n_paths * n_grid:
            raise mismatch
        try:
            values = np.empty((n_paths, n_grid), dtype="<f8")
        except (MemoryError, ValueError):
            raise ValueError(f"KLX1 dimensions {n_paths} x {n_grid} are too large "
                             "for an array") from None
        if handle.readinto(values.reshape(-1).view(np.uint8)) != values.nbytes or handle.read(1):
            raise mismatch
    return values
