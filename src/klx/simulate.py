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

import contextlib
import math
import os
import shutil
import signal
import stat
import struct
import tempfile
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
#: Largest basis or ensemble a config may ask for: 2**26 float64 entries, 512 MiB.  A run
#: holds up to three at once (eigen._sinpi's operand, rounded copy and result, then the basis
#: and np.linalg.qr's two copies): ``klx simulate --J 6100000 --M 2 --grid-points 11`` peaks
#: at 1613 MB (detrended) to 1629 MB; at the M cap (--J 2 --M 6100000) at 641 MB.
_MAX_ENTRIES = 2**26
#: Most pairs one covariance test draws.  It computes each distinct unordered pair once, at
#: most U(U+1)/2 for U usable columns: 0.1 ms of products on 20 000 paths and one target linear
#: in J (Wiener, medians of 3-5: 0.3 ms at J = 2000, 0.1 s at 6.6 * 10**5, 1.0-1.3 s at 6 * 10**6).
#: 10**4 pairs at J = 2000 on 20 000 paths took 0.05 s with 11 points, 4.2 s with 101.
_MAX_PAIRS = 10**4
#: Fewest values worth a forked CSV writer process.  Median ``_write_csv`` ms, 1
#: part against 2, 101 columns, 2 CPUs, ranges of 2-4 runs of 15: 2**12 values 1.9-2.0
#: against 5.5-6.0, 2**15 8.6-10.9 / 13.3-18.0, 2**16 14.1-23.0 / 16.8-23.4, 2**17
#: 28.6-34.8 / 28.1-33.9, 2**18 60.6-70.1 / 43.9-56.0: two parts start at 2**16 values.
_CSV_MIN_PART_VALUES = 2**15


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

    def __post_init__(self) -> None:
        if np.ndim(self.values) != 2 or np.shape(self.values)[1] != self.config.grid.size:
            raise ValueError(f"values must be 2-D with one column per grid point "
                             f"({self.config.grid.size}), got shape {np.shape(self.values)}")


@dataclass(frozen=True, eq=False)
class CovarianceTestReport:
    """Empirical vs truncated-target covariance, one entry per tested pair, and the verdict."""

    s: np.ndarray
    t: np.ndarray
    empirical: np.ndarray
    truncated_target: np.ndarray
    stderr: np.ndarray
    z_score: np.ndarray
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


def empirical_covariance(ensemble: PathEnsemble, s_index: int,
                         t_index: int) -> tuple[float, float]:
    """Empirical covariance at one grid index pair, and its standard error.

    The process is zero-mean, so the empirical covariance is the plain mean
    of the products; stderr is their sample standard deviation over sqrt(M).
    Raises on a degenerate (zero-spread) product column.
    """
    grid = ensemble.config.grid
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
    return float(products.mean()), stderr


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
    grid = config.grid
    usable = np.flatnonzero(ensemble.values.max(axis=0) > ensemble.values.min(axis=0))
    skipped = usable.size == 0
    pairs = np.empty((0, 2), dtype=np.intp)
    if not skipped:
        sampler = np.random.Generator(np.random.Philox(key=config.seed * _MAX_SEED + 1))
        pairs = usable[sampler.integers(0, usable.size, size=(pair_count, 2))]
    # Once per distinct unordered pair: both helpers give (s, t) and (t, s) the same bits.
    slots: dict[tuple[int, int], int] = {}
    where = [slots.setdefault((min(s, t), max(s, t)), len(slots)) for s, t in pairs.tolist()]
    rows = [(*empirical_covariance(ensemble, s, t),
             truncated_covariance(config.kind, grid[s], grid[t], config.truncation))
            for s, t in slots]
    empirical, stderr, target = np.array(rows).reshape(-1, 3).T[:, where]
    z_score = (empirical - target) / stderr
    exceedances = int(np.count_nonzero(np.abs(z_score) > z_threshold))
    allowed = _allowed_exceedances(pair_count, z_threshold)
    if skipped:
        message = "all grid columns are degenerate; covariance test skipped"
    else:
        message = (
            f"{exceedances} of {pair_count} pairs exceeded |z| > {z_threshold} "
            f"(allowed {allowed})"
        )
    return CovarianceTestReport(
        s=grid[pairs[:, 0]],
        t=grid[pairs[:, 1]],
        empirical=empirical,
        truncated_target=target,
        stderr=stderr,
        z_score=z_score,
        exceedances=exceedances,
        allowed_exceedances=allowed,
        passed=exceedances <= allowed,
        skipped=skipped,
        message=message,
    )


def _require_writable_target(path: str) -> None:
    """Refuse, with an OSError that says why, an output path that is empty, is a
    directory or another non-regular file (a FIFO, a device), or has no directory."""
    if not path:
        raise OSError("it names no file")
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError("it is a directory" if os.path.isdir(path) else "it is not a regular file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OSError(f"no directory {parent!r}")


@contextlib.contextmanager
def _atomic_file(path: str):
    """Yield a binary handle on a new temp file beside path; when the block
    ends, rename the file into place.

    On any exception the temp file is removed and a file already at path is
    left as it was, so a failed export never leaves a partial file.  A killed one
    leaves the temp file, named because ``os.link`` cannot place an anonymous file
    (EXDEV).  Refuses a target _require_writable_target refuses before opening it.
    """
    _require_writable_target(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    handle = open(tmp, "xb")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_part_count(n_rows: int, n_cols: int) -> int:
    """Processes that format a CSV export: one per CPU this process may run
    on, at most one per row and one per _CSV_MIN_PART_VALUES values."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, n_rows, n_rows * n_cols // _CSV_MIN_PART_VALUES))


def _format_part(part, values: np.ndarray, start: int, stop: int, parent: int):
    """Forked CSV writer child: format rows start..stop into part, then ``os._exit``: 0
    once flushed, 1 on any exception (after an ``error:`` line on fd 2) or when orphaned."""
    try:
        for chunk in _csv_blocks(values, start, stop):
            if os.getppid() != parent:
                os._exit(1)
            part.write(chunk)
        part.flush()
        os._exit(0)
    except BaseException as exc:
        os.write(2, f"error: CSV writer process: {exc!r}\n".encode())
    finally:
        os._exit(1)


def _write_csv(ensemble: PathEnsemble, path: str, parts: int) -> None:
    """CSV export in ``parts`` contiguous row ranges, through one temp file of
    _atomic_file, opened before any fork.  Each range after the first is
    formatted by a forked child, _format_part, into an anonymous temporary file
    the parent opened in path's directory.  The parent writes the header and the
    first range into the temp file, then reaps the children in row order and
    appends each part in place; on any exception it kills and reaps every live
    child.  Processes, not threads: ``%`` formatting holds the GIL, and two
    threads took 29 % longer and 8 MB more on 20 000 x 101 values.  A child
    runs only element-wise numpy, ``%`` and writes, no BLAS, so forking after
    BLAS has started its threads is safe."""
    values = ensemble.values
    bounds = [values.shape[0] * k // parts for k in range(parts + 1)]
    parent = os.getpid()
    children: dict[int, tuple] = {}
    with _atomic_file(path) as out, contextlib.ExitStack() as stack:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                part = stack.enter_context(tempfile.TemporaryFile(dir=os.path.dirname(path) or "."))
                if (pid := os.fork()) == 0:
                    _format_part(part, values, start, stop, parent)
                children[pid] = (part, start, stop)
            out.writelines(_csv_blocks(ensemble.config.grid[None, :], 0, 1))
            out.writelines(_csv_blocks(values, 0, bounds[1]))
            for pid, (part, start, stop) in list(children.items()):
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if status != 0:
                    how = (f"was killed by signal {-status}" if status < 0
                           else f"exited with {status}")
                    raise OSError(f"the CSV writer process for rows {start}-{stop} {how}")
                part.seek(0)
                shutil.copyfileobj(part, out)
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
    with _atomic_file(path) as out:
        out.writelines([KLX1_MAGIC, struct.pack("<QQ", *values.shape),
                        values.reshape(-1).view(np.uint8).data])


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
