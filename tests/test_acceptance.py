"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts.  The expensive shared inputs (sieves, zero sets, the pooled
correlation experiment) come from session fixtures in conftest.
"""

import csv
import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from zetapair.cli import main as cli_main
from zetapair.identities import identity_suite
from zetapair.inversion import windowed_inversion
from zetapair.paircorr import gue_r2, theory_curve
from zetapair.singular import (
    alpha_empirical,
    alpha_product,
    alpha_ramanujan,
    smoothed_average,
)
from zetapair.zeros import compute_zeros, load_zeros, smooth_count


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_twin_prime_constant():
    t0 = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["constants", "--prime-cutoff", "10000000"])
    elapsed = time.time() - t0
    row = next(csv.DictReader(io.StringIO(buf.getvalue())))
    value = float(row["value"])
    ok = code == 0 and f"{value:.7f}" == "0.6601618" and elapsed < 30.0
    verdict(1, ok, f"C2(1e7) = {value:.9f} in {elapsed:.1f}s")
    assert ok


def test_criterion_2_singular_series_triple_agreement(tables_big, c2_ref):
    t0 = time.time()
    worst_even = worst_odd = 0.0
    for h in range(1, 201):
        series = alpha_ramanujan(h, tables_big, 1_000_000).value
        if h % 2 == 0:
            ref = alpha_product(h, tables_big, c2_ref).value
            worst_even = max(worst_even, abs(series - ref))
        else:
            worst_odd = max(worst_odd, abs(series))
    worst_emp = 0.0
    for h in (2, 4, 6, 10, 12, 30):
        emp = alpha_empirical(h, tables_big, 10_000_000).value
        ref = alpha_product(h, tables_big, c2_ref).value
        worst_emp = max(worst_emp, abs(emp / ref - 1.0))
    elapsed = time.time() - t0
    ok = (
        worst_even <= 1e-4 and worst_odd <= 1e-3 and worst_emp <= 0.05
        and elapsed < 120.0
    )
    verdict(
        2,
        ok,
        f"series even {worst_even:.2e}, odd {worst_odd:.2e}, "
        f"empirical rel {worst_emp:.3f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_3_averaged_singular_series(tables_big, c2_ref):
    s4 = smoothed_average(10_000, tables_big, c2_ref)
    s3 = smoothed_average(1_000, tables_big, c2_ref)
    ok = s4.deviation <= 1e-3 and s4.deviation < s3.deviation
    verdict(3, ok, f"dev(1e4) = {s4.deviation:.2e} < dev(1e3) = {s3.deviation:.2e}")
    assert ok


def test_criterion_4_zero_enumeration(zero_fixture_path):
    t0 = time.time()
    zl = compute_zeros(10.0, 1000.0)
    elapsed = time.time() - t0
    expected = smooth_count(1000.0) - smooth_count(10.0)
    count_ok = abs(len(zl) - expected) <= 1.0
    table = load_zeros(zero_fixture_path)
    first_ok = abs(zl.ordinates[0] - 14.134725) <= 1e-6
    overlap = np.max(np.abs(zl.ordinates[: len(table)] - table.ordinates))
    ok = count_ok and first_ok and overlap <= 1e-6 and elapsed < 60.0
    verdict(
        4,
        ok,
        f"{len(zl)} zeros vs {expected:.2f}, first {zl.ordinates[0]:.9f}, "
        f"overlap {overlap:.1e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_pair_correlation_vs_gue(pooled_experiment):
    exp = pooled_experiment
    rep = exp["report"]
    first_bin = float(rep.estimate.values[rep.scored][0])
    ok = exp["n_zeros"] >= 10_000 and rep.ms_gue <= 4.0 * rep.noise_floor and first_bin < 0.2
    verdict(
        5,
        ok,
        f"{exp['n_zeros']} zeros, ms/floor = {rep.ms_gue / rep.noise_floor:.2f}, "
        f"bin(0.1,0.15] = {first_bin:.3f}",
    )
    assert ok


def test_criterion_6_finite_height_improvement(pooled_experiment):
    rep = pooled_experiment["report"]
    ok = rep.ms_residual <= rep.ms_gue
    verdict(6, ok, f"finite-height ms {rep.ms_residual:.2e} <= GUE ms {rep.ms_gue:.2e}")
    assert ok


def test_criterion_7_limit_recovery(zeta_cfg, tables_1m):
    eps = np.arange(0.2, 3.0001, 0.05)
    curve = theory_curve(1e10, eps, zeta_cfg, tables_1m, 100_000, 20)
    dev = float(np.max(np.abs(curve.total - gue_r2(eps))))
    ok = dev <= 2e-2
    verdict(7, ok, f"max |unfolded total - GUE| = {dev:.4f} at E = 1e10")
    assert ok


def test_criterion_8_identity_suite(tables_1m, c2_ref):
    t0 = time.time()
    res = {r.identity_name: r.max_residual
           for r in identity_suite(tables_1m, c2_ref, 1_000_000, seed=0)}
    elapsed = time.time() - t0
    checks = {
        "triangle": res["triangle_relation"] < 1e-14,
        "ft": res["ft_one_over_xsq"] < 1e-6,
        "avg_quad": res["averaged_alpha"] < 1e-6,
        "avg_asym": res["averaged_alpha_asymptote"] <= 2.0 / (math.pi * 1e6),
        "local_factor": res["local_factor_chain"] < 1e-11,
        "mobius": res["mobius_indicator"] == 0.0,
        "closure_even": res["ramanujan_closure_even"] <= 1e-6,
        "closure_odd": res["ramanujan_closure_odd"] == 0.0,
        "runtime": elapsed < 60.0,
    }
    ok = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    verdict(8, ok, f"{elapsed:.0f}s" + (f", failing: {failing}" if failing else ""))
    assert ok


def test_criterion_9_inversion_contrast(tables_1m):
    # documented window: E in (1000, 1100), pole excision 25, derived tapers
    t0 = time.time()
    est = {
        h: windowed_inversion(h, (1000.0, 1100.0), eps_cutoff=25.0,
                              tables=tables_1m)
        for h in (2, 3, 6)
    }
    elapsed = time.time() - t0
    ratio = est[2].estimate / est[6].estimate
    ok = (
        all(r.ok for r in est.values())
        and abs(est[3].estimate) < abs(est[2].estimate)
        and abs(ratio - 0.5) <= 0.125
    )
    verdict(
        9,
        ok,
        f"|est(3)| = {abs(est[3].estimate):.4f} < est(2) = {est[2].estimate:.4f}, "
        f"est(2)/est(6) = {ratio:.3f}, {elapsed:.0f}s",
    )
    assert ok
