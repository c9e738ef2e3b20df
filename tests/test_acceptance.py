"""Acceptance gate: every shipped criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criteria with runtime budgets measure wall-clock time in-process.
"""

import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest

import klx.eigen
from klx import (
    ZETA2,
    KernelKind,
    basel_estimate,
    bessel_roots,
    compare_eigenpairs,
    covariance_test,
    eigenfunction_matrix,
    estermann_residual,
    mercer_partial,
    sample_paths,
    triangular_closed_form,
    triangular_partial_table,
    zeta2_tail_bounds,
    zeta_partial,
    zeta_partial_table,
)
from klx.cli import main
from klx.quadrature import gauss_legendre_01

ALL_KINDS = list(KernelKind)


def report(criterion: str, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {label}", flush=True)
    assert ok, f"{criterion} failed: {label}"


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1e-300))


def test_c01_basel_reproduction():
    klx.eigen._roots_cache = np.empty(0)  # cold root cache for an honest timing
    start = time.perf_counter()
    estimates = {p: basel_estimate(p, 10**5) for p in (1, 2, 3)}
    elapsed = time.perf_counter() - start
    ok = all(abs(est - ZETA2) <= 1e-4 for est in estimates.values()) and elapsed < 1.0
    report(
        "C1",
        f"three routes at J=1e5 within 1e-4 of pi^2/6 in {elapsed:.3f}s "
        f"(errors {[f'{abs(e - ZETA2):.1e}' for e in estimates.values()]})",
        ok,
    )


def test_c02_route2_matches_zeta_partial():
    worst = max(
        ulps_apart(basel_estimate(2, j), zeta_partial(2.0, j).value)
        for j in (1, 10, 10**3, 10**5)
    )
    report("C2", f"route-2 estimate equals zeta partial sums (worst {worst:.1f} ulps <= 4)",
           worst <= 4.0)


def test_c03_mercer_endpoint_values():
    err_demeaned = abs(mercer_partial(KernelKind.DEMEANED, 1.0, 10**4) - 1.0 / 3.0)
    err_detrended = abs(mercer_partial(KernelKind.DETRENDED, 0.5, 10**4) - 1.0 / 12.0)
    ok = err_demeaned <= 1e-4 and err_detrended <= 1e-4
    report("C3", f"Mercer endpoints: |.-1/3|={err_demeaned:.2e}, |.-1/12|={err_detrended:.2e}",
           ok)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_c04_oracle_equivalence(kind):
    start = time.perf_counter()
    errors = {}
    for n_nodes in (500, 1000, 2000):
        comparison = compare_eigenpairs(kind, 5, n_nodes)
        errors[n_nodes] = [row.rel_error for row in comparison.rows]
    elapsed = time.perf_counter() - start
    matched = all(err <= 1e-3 for err in errors[1000])
    refined = all(
        errors[500][i] >= errors[1000][i] >= errors[2000][i] for i in range(5)
    )
    ok = matched and refined and elapsed < 60.0
    report(
        "C4",
        f"{kind.value}: first 5 eigenvalues within 1e-3 at 1000 nodes, errors "
        f"non-increasing over 500/1000/2000, {elapsed:.1f}s < 60s",
        ok,
    )


def test_c05_bessel_roots():
    residual_ok = True
    bracket_ok = True
    for n in range(1, 21):
        z = bessel_roots(n)[n - 1]
        residual_ok &= abs(math.sin(z) - z * math.cos(z)) <= 1e-10
        bracket_ok &= n * math.pi < z < (n + 1) * math.pi
    # independent oracle: bisection on tan z = z over (pi, 3*pi/2)
    lo, hi = math.pi + 1e-12, 1.5 * math.pi - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.tan(mid) - mid < 0.0:
            lo = mid
        else:
            hi = mid
    oracle_ok = abs(bessel_roots(1)[0] - 0.5 * (lo + hi)) <= 1e-10
    report(
        "C5",
        "roots 1..20: residual <= 1e-10, bracket (n pi, (n+1) pi), "
        "z_1 matches tan z = z bisection to 1e-10",
        residual_ok and bracket_ok and oracle_ok,
    )


def test_c06_normalization_identity():
    nodes, weights = gauss_legendre_01(256)
    worst = 0.0
    for j in range(2, 21, 2):
        f = eigenfunction_matrix(KernelKind.DETRENDED, j, nodes)[j - 1]
        worst = max(worst, abs(float(np.dot(weights, f * f)) - 1.0))
    report("C6", f"even detrended eigenfunctions unit-normalized (worst dev {worst:.1e})",
           worst <= 1e-10)


def test_c07_orthonormality():
    nodes, weights = gauss_legendre_01(256)
    worst = 0.0
    for kind in ALL_KINDS:
        f = eigenfunction_matrix(kind, 10, nodes)
        gram_matrix = (f * weights) @ f.T
        worst = max(worst, float(np.max(np.abs(gram_matrix - np.eye(10)))))
    report("C7", f"first-10 eigenfunction Gram = identity (worst entry dev {worst:.1e})",
           worst <= 1e-8)


def test_c08_monte_carlo_covariance():
    config = klx.SimulationConfig(
        kind=KernelKind.WIENER,
        truncation=2000,
        n_paths=10**5,
        grid=np.linspace(0.0, 1.0, 11),
        seed=7,
    )
    start = time.perf_counter()
    ensemble = sample_paths(config)
    positive = covariance_test(ensemble, pair_count=50, z_threshold=4.0)
    # The same paths tested against the bridge covariance must fail.
    mismatched = klx.PathEnsemble(config=dataclasses.replace(config, kind=KernelKind.BRIDGE),
                                  values=ensemble.values)
    negative = covariance_test(mismatched, pair_count=50, z_threshold=4.0)
    elapsed = time.perf_counter() - start
    ok = positive.passed and not negative.passed and elapsed < 120.0
    report(
        "C8",
        f"fixed-seed covariance test passes ({positive.exceedances} exceedances), "
        f"negative control fails ({negative.exceedances}), {elapsed:.1f}s < 120s",
        ok,
    )


def test_c09_classical_series():
    table = triangular_partial_table(list(range(1, 10**4 + 1)))
    worst_ulps = max(
        ulps_apart(entry.value, triangular_closed_form(entry.n_terms)) for entry in table
    )
    bracket_ok = True
    zeta_table = zeta_partial_table(2.0, [1, 10, 10**3, 10**6])
    for entry in zeta_table:
        lower, upper = zeta2_tail_bounds(entry.n_terms)
        bracket_ok &= lower < ZETA2 - entry.value < upper
    estermann_ok = all(
        abs(estermann_residual(n).residual) <= 2.0 / n for n in (10, 10**2, 10**3)
    )
    ok = worst_ulps <= 8.0 and bracket_ok and estermann_ok
    report(
        "C9",
        f"triangular closed form within 8 ulps over 1..1e4 (worst {worst_ulps:.1f}), "
        "zeta tail bracket at 1/10/1e3/1e6, |estermann| <= 2/N",
        ok,
    )


def test_c10_simulate_determinism(tmp_path):
    out_a = tmp_path / "run_a.klx"
    out_b = tmp_path / "run_b.klx"
    args = ["simulate", "--kind", "wiener", "--J", "200", "--M", "2000",
            "--grid-points", "11", "--seed", "7", "--pairs", "20"]
    with contextlib.redirect_stdout(io.StringIO()):
        code_a = main(args + ["--out", str(out_a)])
        code_b = main(args + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    report("C10", "identical simulate flags produce byte-identical output files",
           code_a == 0 and code_b == 0 and identical)
