"""Tests for truncated-expansion path simulation and covariance checks.

Heavy statistical runs live in the acceptance suite; here the ensembles are
kept small enough to run in seconds while still exercising every contract.
"""

import dataclasses
import math
import os
import pathlib
import re
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klx import (
    KLX1_MAGIC,
    KernelKind,
    SimulationConfig,
    covariance_test,
    eigenfunction_matrix,
    eigenvalues,
    empirical_covariance,
    gram,
    mercer_terms,
    read_klx1,
    sample_paths,
    truncated_covariance,
    write_ensemble_csv,
    write_ensemble_klx1,
)
from klx import mercer, reports, simulate
from klx.simulate import _MAX_ENTRIES, PathEnsemble, _atomic_file


def config(kind=KernelKind.WIENER, truncation=64, n_paths=512, grid=None, seed=42):
    if grid is None:
        grid = np.linspace(0.0, 1.0, 9)
    return SimulationConfig(kind=kind, truncation=truncation, n_paths=n_paths, grid=grid, seed=seed)


def ensemble_of(values):
    """values as they are, as an ensemble on an even grid of one point per column."""
    return PathEnsemble(config=config(grid=np.linspace(0.0, 1.0, values.shape[1])), values=values)


def scaled_basis(kind, j_max, grid):
    """Test-only reference: the J x G basis B whose Gram B^T B is the paths' law on grid."""
    return eigenfunction_matrix(kind, j_max, grid) / np.sqrt(eigenvalues(kind, j_max))[:, None]


def as_bridge(ensemble):
    """The same paths labelled as a bridge ensemble: a deliberate kernel mismatch."""
    bridge = dataclasses.replace(ensemble.config, kind=KernelKind.BRIDGE)
    return PathEnsemble(config=bridge, values=ensemble.values)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            config(truncation=0)
        with pytest.raises(ValueError):
            config(n_paths=1)
        with pytest.raises(ValueError):
            config(grid=np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            config(grid=np.array([]))
        with pytest.raises(ValueError):
            config(seed=-1)
        with pytest.raises(ValueError):
            config(seed=2**64)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 5), (4,), (3, 4, 1)])
    def test_ensemble_needs_one_column_per_grid_point(self, shape):
        # A 4-point grid over 3-column rows once gave a CSV whose header and
        # rows disagreed in width, with no error.
        cfg = config(n_paths=3, grid=np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="one column per grid point"):
            PathEnsemble(config=cfg, values=np.zeros(shape))
        PathEnsemble(config=cfg, values=np.zeros((3, 4)))

    @pytest.mark.parametrize("field", ["truncation", "n_paths"])
    def test_rejects_sizes_past_the_entry_cap(self, field):
        # 9 grid points: the largest count whose basis or ensemble fits the cap is accepted.
        fits = _MAX_ENTRIES // 9
        assert config(**{field: fits}).grid.size == 9
        with pytest.raises(ValueError, match=f"{field} .* {9 * (fits + 1)} exceeds .* allocate"):
            config(**{field: fits + 1})

    def test_grid_is_read_only(self):
        cfg = config()
        with pytest.raises(ValueError):
            cfg.grid[0] = 0.5

    def test_caller_grid_stays_writeable(self):
        grid = np.linspace(0.0, 1.0, 5)
        cfg = config(grid=grid)
        gram(KernelKind.WIENER, grid)
        assert grid.flags.writeable
        grid[0] = 0.5
        assert cfg.grid[0] == 0.0


class TestSampling:
    def test_wiener_origin_column_is_zero(self):
        ensemble = sample_paths(config(grid=np.array([0.0]), n_paths=16))
        assert (ensemble.values == 0.0).all()

    def test_bridge_endpoints_exactly_zero(self):
        cfg = config(kind=KernelKind.BRIDGE, grid=np.array([0.0, 0.25, 0.75, 1.0]))
        ensemble = sample_paths(cfg)
        assert (ensemble.values[:, 0] == 0.0).all()
        assert (ensemble.values[:, 3] == 0.0).all()
        assert (ensemble.values[:, 1] != 0.0).any()

    @pytest.mark.parametrize("truncation", [1, 8, 64])
    def test_pinned_zeros_are_positive(self, truncation):
        # The CSV export prints -0.0 as "-0", so the pinned columns must hold +0.0;
        # == 0.0 cannot tell the two apart.
        grid = np.linspace(0.0, 1.0, 11)
        bridge = sample_paths(config(kind=KernelKind.BRIDGE, truncation=truncation, grid=grid))
        wiener = sample_paths(config(truncation=truncation, grid=grid))
        pinned = np.column_stack([bridge.values[:, 0], bridge.values[:, -1], wiener.values[:, 0]])
        assert (pinned == 0.0).all()
        assert not np.signbit(pinned).any()

    def test_values_finite_and_shaped(self):
        cfg = config()
        ensemble = sample_paths(cfg)
        assert ensemble.values.shape == (cfg.n_paths, cfg.grid.size)
        assert np.isfinite(ensemble.values).all()

    def test_deterministic_for_identical_config(self):
        a = sample_paths(config(seed=7))
        b = sample_paths(config(seed=7))
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = sample_paths(config(seed=7))
        b = sample_paths(config(seed=8))
        assert not np.array_equal(a.values, b.values)

    def test_independent_of_block_partitioning(self, monkeypatch):
        # 50 paths in blocks of 7 cross seven block boundaries, the last block short.
        # With J = 1 the projection is one product per entry, so the bytes must match;
        # with J > 1 BLAS may round rows at a matmul's ragged edge differently.
        exact = config(n_paths=50, truncation=1)
        summed = config(n_paths=50, truncation=32)
        whole = [sample_paths(cfg).values for cfg in (exact, summed)]
        monkeypatch.setattr("klx.simulate._BLOCK_PATHS", 7)
        blocked = [sample_paths(cfg).values for cfg in (exact, summed)]
        assert np.array_equal(whole[0], blocked[0])
        np.testing.assert_allclose(blocked[1], whole[1], rtol=0.0, atol=1e-14)

    def test_normals_are_one_seed_keyed_stream_in_path_order(self, monkeypatch):
        # With J = 1 the projection is one product per entry, so the bytes must
        # equal one stream keyed seed * 2**64, drawn straight across blocks of 7.
        cfg = config(n_paths=50, truncation=1)
        monkeypatch.setattr("klx.simulate._BLOCK_PATHS", 7)
        basis = eigenfunction_matrix(cfg.kind, 1, cfg.grid) / math.sqrt(eigenvalues(cfg.kind, 1)[0])
        stream = np.random.Generator(np.random.Philox(key=cfg.seed * 2**64))
        assert np.array_equal(sample_paths(cfg).values, stream.standard_normal((50, 1)) @ basis)

    def test_normals_are_min_truncation_grid_per_path_through_the_qr_factor(self, monkeypatch):
        # J = 32 > G = 9: each path takes the next 9 normals of the seed-keyed stream,
        # times R = qr(B, mode="r"), block by block with the same matmul shapes.
        cfg = config(n_paths=50, truncation=32)
        monkeypatch.setattr("klx.simulate._BLOCK_PATHS", 7)
        factor = np.linalg.qr(scaled_basis(cfg.kind, 32, cfg.grid), mode="r")
        assert factor.shape == (9, 9)
        stream = np.random.Generator(np.random.Philox(key=cfg.seed * 2**64))
        normals = stream.standard_normal((50, 9))
        expected = np.vstack([normals[i:i + 7] @ factor for i in range(0, 50, 7)])
        assert np.array_equal(sample_paths(cfg).values, expected)

    @pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("j_max, points", [(2000, 11), (64, 101), (1, 9)])
    def test_qr_factor_has_the_law_of_the_basis(self, kind, j_max, points):
        basis = scaled_basis(kind, j_max, np.linspace(0.0, 1.0, points))
        factor = np.linalg.qr(basis, mode="r")
        assert factor.shape == (min(j_max, points), points)
        assert np.abs(factor.T @ factor - basis.T @ basis).max() <= 1e-14

    def test_paths_are_prefix_stable_in_path_count(self):
        # one stream drawn in path order: growing the ensemble must not change earlier paths
        small = sample_paths(config(n_paths=100))
        large = sample_paths(config(n_paths=300))
        assert np.array_equal(small.values, large.values[:100])

    def test_zero_mean_columns(self):
        cfg = config(kind=KernelKind.DEMEANED, truncation=128, n_paths=20000)
        ensemble = sample_paths(cfg)
        mean = ensemble.values.mean(axis=0)
        stderr = ensemble.values.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        assert (np.abs(mean) <= 4.0 * stderr).all()

    def test_demeaned_path_integrals_center_on_zero(self):
        cfg = config(
            kind=KernelKind.DEMEANED, truncation=256, n_paths=20000,
            grid=np.linspace(0.0, 1.0, 51),
        )
        ensemble = sample_paths(cfg)
        integrals = np.trapezoid(ensemble.values, cfg.grid, axis=1)
        stderr = integrals.std(ddof=1) / np.sqrt(cfg.n_paths)
        assert abs(integrals.mean()) <= 4.0 * stderr

    def test_detrended_projections_center_on_zero(self):
        # detrending removes both the constant and the linear direction
        cfg = config(
            kind=KernelKind.DETRENDED, truncation=256, n_paths=20000,
            grid=np.linspace(0.0, 1.0, 51),
        )
        ensemble = sample_paths(cfg)
        for weight in (np.ones_like(cfg.grid), cfg.grid):
            moments = np.trapezoid(ensemble.values * weight, cfg.grid, axis=1)
            stderr = moments.std(ddof=1) / np.sqrt(cfg.n_paths)
            assert abs(moments.mean()) <= 4.0 * stderr

    def test_full_scale_variance_matches_mercer_target(self):
        # single-point grid at t=1: the truncated variance target is the
        # Mercer partial sum, about 0.99990 at this truncation
        cfg = config(truncation=2000, n_paths=100_000, grid=np.array([1.0]), seed=7)
        ensemble = sample_paths(cfg)
        squares = ensemble.values[:, 0] ** 2
        target = math.fsum(mercer_terms(KernelKind.WIENER, 1.0, 2000))
        assert target == pytest.approx(0.99990, abs=5e-5)
        stderr = squares.std(ddof=1) / np.sqrt(cfg.n_paths)
        assert abs(squares.mean() - target) <= 4.0 * stderr


class TestEmpiricalCovariance:
    def test_matches_truncated_target_at_scale(self):
        cfg = config(truncation=500, n_paths=20000, grid=np.array([0.5, 1.0]), seed=3)
        ensemble = sample_paths(cfg)
        report = covariance_test(ensemble, pair_count=50, z_threshold=4.0)
        at_one = (report.s == 1.0) & (report.t == 1.0)
        assert at_one.any()
        assert report.truncated_target[at_one] == pytest.approx(
            math.fsum(mercer_terms(KernelKind.WIENER, 1.0, 500)), rel=1e-15
        )
        assert (np.abs(report.z_score[at_one]) <= 4.0).all()
        assert (report.stderr[at_one] > 0.0).all()

    def test_degenerate_column_raises(self):
        cfg = config(grid=np.array([0.0, 0.5]))
        ensemble = sample_paths(cfg)
        with pytest.raises(ValueError):
            empirical_covariance(ensemble, 0, 1)

    def test_index_bounds(self):
        ensemble = sample_paths(config())
        with pytest.raises(ValueError):
            empirical_covariance(ensemble, 0, 99)

    def test_target_kind_override(self):
        cfg = config(truncation=64, n_paths=256, grid=np.array([0.5, 1.0]))
        ensemble = sample_paths(cfg)
        report = covariance_test(as_bridge(ensemble), pair_count=50, z_threshold=4.0)
        at_one = (report.s == 1.0) & (report.t == 1.0)
        assert at_one.any()
        assert report.truncated_target[at_one] == pytest.approx(
            truncated_covariance(KernelKind.BRIDGE, 1.0, 1.0, 64), rel=1e-15
        )


class TestCovarianceTest:
    def test_passes_on_matching_kernel(self):
        cfg = config(kind=KernelKind.DEMEANED, truncation=200, n_paths=20000,
                     grid=np.linspace(0.0, 1.0, 11), seed=9)
        report = covariance_test(sample_paths(cfg), pair_count=50, z_threshold=4.0)
        assert report.passed and not report.skipped
        assert report.exceedances <= report.allowed_exceedances
        assert len(report.z_score) == 50

    def test_negative_control_fails(self):
        cfg = config(truncation=200, n_paths=20000, grid=np.linspace(0.0, 1.0, 11), seed=9)
        report = covariance_test(as_bridge(sample_paths(cfg)), pair_count=50, z_threshold=4.0)
        assert not report.passed
        assert report.exceedances > report.allowed_exceedances

    def test_one_normal_short_per_path_fails(self, monkeypatch):
        # A sampler through R[1:] misses the law's first direction; at C8's config the
        # covariance test must catch it.  Dropping R[-1] would be no control: it moves
        # only the variance at t = 1, which few of the 50 random pairs touch.
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr(a, mode=mode)[1:])
        cfg = config(truncation=2000, n_paths=10**5, grid=np.linspace(0.0, 1.0, 11), seed=7)
        report = covariance_test(sample_paths(cfg), pair_count=50, z_threshold=4.0)
        assert report.exceedances > report.allowed_exceedances
        assert not report.passed

    def test_degenerate_columns_excluded_from_sampling(self):
        # Wiener at t=0 is degenerate; the test must still run on the rest
        cfg = config(truncation=64, n_paths=2000, grid=np.linspace(0.0, 1.0, 5), seed=1)
        report = covariance_test(sample_paths(cfg), pair_count=20, z_threshold=4.0)
        assert not report.skipped
        assert (report.s > 0.0).all() and (report.t > 0.0).all()

    def test_constant_nonzero_column_excluded_from_sampling(self):
        # A column of 0.1 in every row has no spread, though its float std is
        # about 1e-17; it must be left out, not drawn into a zero-stderr pair.
        cfg = config(truncation=64, n_paths=2000, grid=np.linspace(0.0, 1.0, 5), seed=1)
        values = sample_paths(cfg).values.copy()
        values[:, 2] = 0.1
        assert values[:, 2].std() > 0.0
        report = covariance_test(PathEnsemble(config=cfg, values=values), pair_count=20,
                                 z_threshold=4.0)
        assert not report.skipped and report.passed
        assert all(0.5 not in (s, t) and s > 0.0 and t > 0.0
                   for s, t in zip(report.s, report.t))

    def test_all_degenerate_grid_skips(self):
        cfg = config(kind=KernelKind.BRIDGE, grid=np.array([0.0, 1.0]))
        report = covariance_test(sample_paths(cfg), pair_count=10, z_threshold=4.0)
        assert report.skipped and report.passed
        assert report.z_score.size == 0

    def test_tiny_ensemble_runs_low_power(self):
        cfg = config(n_paths=2, grid=np.array([0.5, 1.0]), truncation=8)
        report = covariance_test(sample_paths(cfg), pair_count=5, z_threshold=4.0)
        assert report.passed

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            covariance_test(sample_paths(config()), pair_count=0, z_threshold=4.0)
        with pytest.raises(ValueError):
            covariance_test(sample_paths(config()), pair_count=5, z_threshold=0.0)
        # An infinite threshold can never be exceeded, so the test could never fail.
        with pytest.raises(ValueError, match="finite"):
            covariance_test(sample_paths(config()), pair_count=5, z_threshold=math.inf)

    def test_pair_count_cap(self):
        simulate._require_test_settings(simulate._MAX_PAIRS, 4.0)
        with pytest.raises(ValueError, match=str(simulate._MAX_PAIRS + 1)):
            covariance_test(sample_paths(config()), pair_count=simulate._MAX_PAIRS + 1,
                            z_threshold=4.0)

    def test_columns_are_the_per_pair_moments_and_targets(self):
        cfg = config(truncation=64, n_paths=500, grid=np.linspace(0.0, 1.0, 5), seed=4)
        ensemble = sample_paths(cfg)
        report = covariance_test(ensemble, pair_count=20, z_threshold=4.0)
        pairs = zip(np.searchsorted(cfg.grid, report.s).tolist(),
                    np.searchsorted(cfg.grid, report.t).tolist())
        empirical, stderr, target = np.array(
            [(*empirical_covariance(ensemble, s, t),
              truncated_covariance(cfg.kind, cfg.grid[s], cfg.grid[t], cfg.truncation))
             for s, t in pairs]).T
        assert report.empirical.tobytes() == empirical.tobytes()
        assert report.stderr.tobytes() == stderr.tobytes()
        assert report.truncated_target.tobytes() == target.tobytes()
        assert report.z_score.tobytes() == ((empirical - target) / stderr).tobytes()

    def test_one_target_per_distinct_pair(self, monkeypatch):
        calls = []
        for name in ("empirical_covariance", "truncated_covariance"):
            helper = getattr(simulate, name)
            monkeypatch.setattr(simulate, name, lambda *args, name=name, helper=helper:
                                calls.append(name) or helper(*args))
        # Wiener at t = 0 is constant, so 2 usable columns give 3 unordered pairs.
        report = covariance_test(sample_paths(config(grid=np.linspace(0.0, 1.0, 3))),
                                 pair_count=50, z_threshold=4.0)
        assert report.z_score.size == 50
        assert 1 <= calls.count("empirical_covariance") <= 3
        assert calls.count("truncated_covariance") == 1

    def test_one_eigenfunction_evaluation_per_test(self, monkeypatch):
        ensemble = sample_paths(config(truncation=200, n_paths=500,
                                       grid=np.linspace(0.0, 1.0, 11), seed=8))
        calls = []
        matrix = mercer.eigenfunction_matrix
        monkeypatch.setattr(mercer, "eigenfunction_matrix",
                            lambda *args: calls.append(np.size(args[2])) or matrix(*args))
        report = covariance_test(ensemble, pair_count=50, z_threshold=4.0)
        assert report.z_score.size == 50
        # One call over the distinct columns the drawn pairs touch.
        assert calls == [np.unique(np.concatenate([report.s, report.t])).size]

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_helpers_give_both_orders_the_same_bits(self, kind):
        # covariance_test computes each unordered pair once, so (s, t) and (t, s)
        # must agree byte for byte, not merely to rounding.
        for truncation in (1, 7, 1000):
            for s, t in ((0.1, 0.9), (0.25, 0.5), (0.3337, 0.6663), (0.0, 1.0)):
                forward = truncated_covariance(kind, s, t, truncation)
                assert forward.hex() == truncated_covariance(kind, t, s, truncation).hex()
        ensemble = sample_paths(config(kind=kind, truncation=1000, n_paths=300,
                                       grid=np.linspace(0.0, 1.0, 7), seed=5))
        usable = np.flatnonzero(np.ptp(ensemble.values, axis=0) > 0.0).tolist()
        assert len(usable) >= 5
        for s in usable:
            for t in usable:
                forward = np.array(empirical_covariance(ensemble, s, t))
                assert forward.tobytes() == np.array(empirical_covariance(ensemble, t, s)).tobytes()

    def test_rows_of_one_unordered_pair_are_byte_equal(self):
        cfg = config(truncation=64, n_paths=500, grid=np.linspace(0.0, 1.0, 4), seed=6)
        report = covariance_test(sample_paths(cfg), pair_count=200, z_threshold=4.0)
        columns = (report.empirical, report.truncated_target, report.stderr, report.z_score)
        rows: dict[tuple[float, float], set[bytes]] = {}
        for i, (s, t) in enumerate(zip(report.s.tolist(), report.t.tolist())):
            row = b"".join(column[i].tobytes() for column in columns)
            rows.setdefault((min(s, t), max(s, t)), set()).add(row)
        assert all(len(distinct) == 1 for distinct in rows.values())
        drawn = set(zip(report.s.tolist(), report.t.tolist()))
        assert any(s != t and (t, s) in drawn for s, t in drawn)

    def test_deterministic_pair_sampling(self):
        cfg = config(truncation=32, n_paths=500, seed=12)
        a = covariance_test(sample_paths(cfg), pair_count=10, z_threshold=4.0)
        b = covariance_test(sample_paths(cfg), pair_count=10, z_threshold=4.0)
        assert list(zip(a.s, a.t)) == list(zip(b.s, b.t))


class TestSerialization:
    def test_klx1_round_trip(self, tmp_path):
        ensemble = sample_paths(config(n_paths=17, grid=np.linspace(0.0, 1.0, 5)))
        path = tmp_path / "paths.klx"
        write_ensemble_klx1(ensemble, str(path))
        raw = path.read_bytes()
        assert raw[:4] == b"KLX1"
        recovered = read_klx1(str(path))
        assert np.array_equal(recovered, ensemble.values)

    def test_klx1_writer_makes_no_copy_of_the_ensemble(self, tmp_path):
        values = np.random.default_rng(8).standard_normal((2**10, 2**10))
        path = tmp_path / "paths.klx"
        tracemalloc.start()
        try:
            write_ensemble_klx1(ensemble_of(values), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.nbytes == 2**23 and peak < 2**20
        header = KLX1_MAGIC + struct.pack("<QQ", 2**10, 2**10)
        assert path.read_bytes() == header + values.tobytes()

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            (b"NOPE" + b"\x00" * 16, "bad magic"),
            (b"KLX1" + b"\x00" * 7, "truncated KLX1 header"),
            (b"KLX1" + struct.pack("<QQ", 2, 3) + np.zeros(5, dtype="<f8").tobytes(),
             "payload size"),
            (b"KLX1" + struct.pack("<QQ", 1, 1) + b"\x00" * 9, "payload size"),
        ],
        ids=["bad-magic", "short-header", "short-payload", "ragged-payload"],
    )
    def test_klx1_rejects_bad_magic(self, tmp_path, raw, message):
        path = tmp_path / "junk.klx"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=message):
            read_klx1(str(path))

    @pytest.mark.parametrize("existing", [None, b"old contents"], ids=["absent", "existing"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, existing):
        path = tmp_path / "paths.bin"
        if existing is not None:
            path.write_bytes(existing)

        with pytest.raises(RuntimeError), _atomic_file(str(path)) as handle:
            handle.write(b"partial")
            handle.flush()
            raise RuntimeError("disk on fire")
        assert os.listdir(tmp_path) == ([] if existing is None else ["paths.bin"])
        if existing is not None:
            assert path.read_bytes() == existing

    def test_failed_csv_export_keeps_existing_file(self, tmp_path, monkeypatch):
        ensemble = sample_paths(config(n_paths=3, grid=np.linspace(0.0, 1.0, 4)))
        blocks = simulate._csv_blocks

        def failing_blocks(values):
            yield next(blocks(values))
            raise RuntimeError("row formatting failed")

        monkeypatch.setattr(simulate, "_csv_blocks", failing_blocks)
        path = tmp_path / "paths.csv"
        path.write_text("previous export\n")
        with pytest.raises(RuntimeError):
            write_ensemble_csv(ensemble, str(path))
        assert os.listdir(tmp_path) == ["paths.csv"]
        assert path.read_text() == "previous export\n"

    def test_write_replaces_existing_file(self, tmp_path):
        ensemble = sample_paths(config(n_paths=5, grid=np.linspace(0.0, 1.0, 3)))
        path = tmp_path / "paths.klx"
        path.write_bytes(b"stale")
        write_ensemble_klx1(ensemble, str(path))
        assert os.listdir(tmp_path) == ["paths.klx"]
        assert np.array_equal(read_klx1(str(path)), ensemble.values)

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 4)
        values = np.array([[-0.0, 5e-324, 1e-300, 1e300],
                           [0.1, -2.2250738585072014e-308, 1.0 / 3.0, -1e300]])
        path = tmp_path / "paths.csv"
        write_ensemble_csv(PathEnsemble(config=config(n_paths=2, grid=grid), values=values),
                           str(path))
        expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                           for row in [grid, *values])
        assert path.read_bytes() == expected.encode()
        assert "-0," in expected and "4.9406564584124654e-324" in expected

    def test_csv_header_is_grid(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 4)
        ensemble = sample_paths(config(n_paths=3, grid=grid))
        path = tmp_path / "paths.csv"
        write_ensemble_csv(ensemble, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        header = [float(x) for x in lines[0].split(",")]
        assert header == list(grid)
        first_row = [float(x) for x in lines[1].split(",")]
        assert first_row == pytest.approx(list(ensemble.values[0]), abs=0.0)


def per_value_csv(grid, values):
    """Test-only reference: the CSV text of an ensemble, one format() per value."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in [grid, *values]).encode()


#: Exports 200 x 4 paths to argv[1], sleeping 0.05 s before each of its 200
#: one-row blocks, so it takes 10 s.
SLOW_EXPORT = """
import sys, time
import numpy as np
from klx import KernelKind, simulate

blocks = simulate._csv_blocks

def slow_blocks(values):
    for row in values:
        time.sleep(0.05)
        yield from blocks(row[None, :])

simulate._csv_blocks = slow_blocks
config = simulate.SimulationConfig(kind=KernelKind.BRIDGE, truncation=8, n_paths=200,
                                   grid=np.linspace(0.0, 1.0, 4))
simulate.write_ensemble_csv(simulate.sample_paths(config), sys.argv[1])
"""


class TestCsvExport:
    """The CSV export, written block by block into one temp file: the bytes are
    the per-value reference, and a failed or interrupted export leaves no
    partial file."""

    SPECIAL = np.array([[-0.0, 5e-324, 1e300, -1e300]])

    @pytest.mark.parametrize("n_paths", [2, 7, 600], ids=["M-2", "M-7", "M-600"])
    def test_bytes_match_per_value_format(self, tmp_path, n_paths):
        grid = np.linspace(0.0, 1.0, 4)
        ensemble = sample_paths(config(n_paths=n_paths, grid=grid))
        path = tmp_path / "paths.csv"
        write_ensemble_csv(ensemble, str(path))
        assert path.read_bytes() == per_value_csv(grid, ensemble.values)
        assert os.listdir(tmp_path) == ["paths.csv"]

    def test_special_values_in_the_last_rows(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 4)
        values = np.vstack([np.full((5, 4), 0.1), self.SPECIAL, -self.SPECIAL])
        ensemble = PathEnsemble(config=config(n_paths=7, grid=grid), values=values)
        path = tmp_path / "paths.csv"
        write_ensemble_csv(ensemble, str(path))
        expected = per_value_csv(grid, values)
        assert path.read_bytes() == expected
        assert b"-0,4.9406564584124654e-324,1.0000000000000001e+300,-1.0000000000000001e+300\n" in expected

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["header", "first-block", "third-block"])
    def test_failed_block_keeps_existing_file(self, tmp_path, monkeypatch, failing):
        # 300 x 101 values: the header's block, then a full block and a ragged one.
        ensemble = sample_paths(config(n_paths=300, grid=np.linspace(0.0, 1.0, 101)))
        blocks = simulate._csv_blocks
        written = []

        def failing_blocks(values):
            for chunk in blocks(values):
                if len(written) == failing:
                    raise RuntimeError(f"formatting block {failing} failed")
                written.append(len(chunk))
                yield chunk

        monkeypatch.setattr(simulate, "_csv_blocks", failing_blocks)
        path = tmp_path / "paths.csv"
        path.write_bytes(b"previous export\n")
        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            write_ensemble_csv(ensemble, str(path))
        assert len(written) == failing
        assert path.read_bytes() == b"previous export\n"
        assert os.listdir(tmp_path) == ["paths.csv"]

    def test_interrupted_export_leaves_nothing(self, tmp_path, monkeypatch):
        ensemble = sample_paths(config(n_paths=300, grid=np.linspace(0.0, 1.0, 101)))
        blocks = simulate._csv_blocks

        def interrupted_blocks(values):
            chunks = blocks(values)
            yield next(chunks)
            if values.shape[0] > 1:
                raise KeyboardInterrupt
            yield from chunks

        monkeypatch.setattr(simulate, "_csv_blocks", interrupted_blocks)
        path = tmp_path / "paths.csv"
        with pytest.raises(KeyboardInterrupt):
            write_ensemble_csv(ensemble, str(path))
        assert os.listdir(tmp_path) == []

    def test_killed_export_leaves_only_its_temp_file(self, tmp_path):
        path = tmp_path / "paths.csv"
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        driver = subprocess.Popen([sys.executable, "-c", SLOW_EXPORT, str(path)], env=env)
        try:
            deadline = time.monotonic() + 30
            while not any(name.endswith(".tmp") for name in os.listdir(tmp_path)):
                assert driver.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            driver.kill()
            driver.wait()
        assert driver.returncode == -signal.SIGKILL
        [left] = os.listdir(tmp_path)
        assert re.fullmatch(r"paths\.csv\.[0-9a-f]{12}\.tmp", left)


class TestCsvBlocks:
    """Block edges of the CSV writer: the bytes are the per-value reference."""

    @pytest.mark.parametrize("shape", [(3, 1), (reports._BLOCK_VALUES + 1, 1),
                                       (1, 2 * reports._BLOCK_VALUES + 5),
                                       (reports._BLOCK_VALUES // 7 + 3, 7)],
                             ids=["G-1", "G-1-past-a-block", "one-row", "ragged-last-block"])
    def test_block_edges(self, tmp_path, shape):
        size = shape[0] * shape[1]
        values = np.random.default_rng(size).standard_normal(size)
        # Values that take the per-value fallback, on both sides of each block edge.
        for edge in range(0, size + 1, reports._BLOCK_VALUES):
            values[max(edge - 1, 0)] = 1e-7
            values[min(edge, size - 1)] = -3e9
        values = values.reshape(shape)
        grid = np.linspace(0.0, 1.0, shape[1]) if shape[1] > 1 else np.array([0.5])
        ensemble = PathEnsemble(config=config(n_paths=max(shape[0], 2), grid=grid), values=values)
        path = tmp_path / "paths.csv"
        write_ensemble_csv(ensemble, str(path))
        assert path.read_bytes() == per_value_csv(grid, values)


class TestKlx1Properties:
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_keeps_every_bit(self, n_paths, n_grid, data):
        bits = data.draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                                  min_size=n_paths * n_grid, max_size=n_paths * n_grid))
        values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n_paths, n_grid)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "paths.klx")
            write_ensemble_klx1(ensemble_of(values), path)
            recovered = read_klx1(path)
        assert recovered.shape == (n_paths, n_grid)
        assert np.array_equal(recovered.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("n_paths", [0, 3])
    def test_zero_columns_read_back(self, tmp_path, n_paths):
        # No ensemble has zero columns, but a file written elsewhere may.
        path = tmp_path / "paths.klx"
        path.write_bytes(KLX1_MAGIC + struct.pack("<QQ", n_paths, 0))
        assert read_klx1(str(path)).shape == (n_paths, 0)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 2)])
    def test_every_proper_prefix_is_refused(self, tmp_path, shape):
        values = np.arange(shape[0] * shape[1], dtype=float).reshape(shape) - 1.5
        path = tmp_path / "paths.klx"
        write_ensemble_klx1(ensemble_of(values), str(path))
        raw = path.read_bytes()
        assert len(raw) == 20 + 8 * values.size
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(ValueError):
                read_klx1(str(path))


    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**64 - 1), st.binary(max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_corrupted_dimensions_and_trailing_bytes_are_refused(self, n_paths, n_grid,
                                                                  claimed_paths, claimed_grid,
                                                                  trailing):
        # Any header over a valid payload, plus any trailing bytes: the reader
        # returns exactly what the header claims, or raises ValueError.
        payload = np.arange(n_paths * n_grid, dtype="<f8").tobytes()
        raw = KLX1_MAGIC + struct.pack("<QQ", claimed_paths, claimed_grid) + payload + trailing
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "paths.klx")
            with open(path, "wb") as handle:
                handle.write(raw)
            try:
                recovered = read_klx1(path)
            except ValueError:
                return
        assert recovered.shape == (claimed_paths, claimed_grid)
        assert recovered.tobytes() == payload + trailing

    @pytest.mark.parametrize("dims", [
        (2**64 - 1, 2**64 - 1), (2**32, 2**32), (2**61, 1), (1, 2**61), (2**20, 2**20),
        (0, 2**64 - 1), (2**64 - 1, 0), (0, 2**63 - 1), (2**60, 0),
    ])
    @pytest.mark.parametrize("payload", [b"", b"\x00" * 8, b"\x00" * 24],
                             ids=["empty", "one-value", "three-values"])
    def test_huge_dimensions_are_refused_without_allocating(self, tmp_path, dims, payload):
        path = tmp_path / "huge.klx"
        path.write_bytes(KLX1_MAGIC + struct.pack("<QQ", *dims) + payload)
        assert_refused_in_under_a_mib(path)

    @pytest.mark.parametrize("dims", [(2**30, 2**10), (2**31, 2**31)],
                             ids=["8-TiB", "past-numpy-size"])
    def test_huge_dimensions_on_a_pipe_are_refused(self, dims):
        # A pipe has no size to compare with the header, so numpy's refusal of
        # the shape or the memory becomes the KLX1 error.  tracemalloc counts
        # a refused numpy allocation at its requested size, so no peak is read.
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as handle:
            handle.write(KLX1_MAGIC + struct.pack("<QQ", *dims) + b"\x00" * 8)
        try:
            with pytest.raises(ValueError, match="KLX1 dimensions .* too large for an array"):
                read_klx1(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_huge_payload_is_refused_without_reading_it(self, tmp_path):
        # A 1 x 1 header over a sparse 256 MiB payload: the file size alone refuses it.
        path = tmp_path / "huge-payload.klx"
        with open(path, "wb") as handle:
            handle.write(KLX1_MAGIC + struct.pack("<QQ", 1, 1))
            handle.truncate(20 + 2**28)
        assert_refused_in_under_a_mib(path)


def assert_refused_in_under_a_mib(path):
    """read_klx1 raises a KLX1 ValueError with a tracemalloc peak under 1 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="KLX1"):
            read_klx1(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestNonRegularTarget:
    """An existing target that is not a regular file, or an empty path, is
    refused, never replaced."""

    @pytest.mark.parametrize("write", [write_ensemble_csv, write_ensemble_klx1],
                             ids=["csv", "klx1"])
    def test_writers_refuse_a_fifo(self, tmp_path, write):
        target = tmp_path / "fifo"
        os.mkfifo(target)
        ensemble = sample_paths(config(n_paths=300, grid=np.linspace(0.0, 1.0, 4)))
        with pytest.raises(OSError, match="not a regular file"):
            write(ensemble, str(target))
        assert stat.S_ISFIFO(os.stat(target).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    @pytest.mark.parametrize("write", [write_ensemble_csv, write_ensemble_klx1],
                             ids=["csv", "klx1"])
    def test_writers_refuse_an_empty_path(self, tmp_path, monkeypatch, write):
        ensemble = sample_paths(config(n_paths=300, grid=np.linspace(0.0, 1.0, 4)))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError, match="names no file"):
            write(ensemble, "")
        assert os.listdir(tmp_path) == []

    def test_atomic_write_refuses_before_its_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "fifo.bin"
        os.mkfifo(target)

        def refuse(*args, **kwargs):
            raise AssertionError("temp file opened for a non-regular target")

        monkeypatch.setattr("builtins.open", refuse)
        with pytest.raises(OSError, match="not a regular file"):
            with _atomic_file(str(target)) as handle:
                handle.write(b"data")
        assert stat.S_ISFIFO(os.stat(target).st_mode)
