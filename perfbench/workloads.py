"""The four benchmark workloads: seeded inputs, one job, and its correctness gate.

Each workload is a ``Workload`` of three functions:

* ``inputs(seed)`` draws the job's inputs from the seed.  Other seeds move
  the inputs without changing the amount of work.
* ``job(inp)`` is one full computation.  It builds its own sieve tables and
  zero lists, as every CLI invocation does, and returns plain values.
* ``check(inp, out)`` compares those values with an independent reference and
  returns the failed conditions (empty when the job is correct).

``output_metrics`` reads the traced run's accuracy values and output sizes
from a job's result.

Jobs take a few seconds each, so that one 20-second run holds several of them
and its median resists the host's run-to-run noise.  ``prime-side``,
``spectral-pooled`` and ``inversion`` therefore run the acceptance criteria at
reduced sizes (fewer shifts, a shorter height range, a narrower window); the
tolerances stay those of the criteria.  ``cli-readme`` runs the README
invocations unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from zetapair import cli, identities, inversion, paircorr, sieve, singular, zeros
from zetapair.special import ZetaEvaluator, mean_density

ROOT = Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * math.pi
# the documented time budgets are left out: these are the acceptance thresholds
C2_DIGITS = "0.6601618"
FIRST_ZERO = 14.134725


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    job: Callable[[dict], dict]
    check: Callable[[dict, dict], list]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 20190318])


def _max_or_zero(values) -> float:
    return max(values, default=0.0)


# -- prime-side: criteria 1, 2, 3 and 8 ---------------------------------------

def prime_inputs(seed: int) -> dict:
    if seed == 0:
        series_shifts = list(range(1, 31))
        shifts = [2, 4, 6, 10, 12, 30]
    else:
        rng = _rng(seed)
        series_shifts = sorted(int(h) for h in rng.choice(np.arange(1, 201), 30, replace=False))
        shifts = sorted(int(h) for h in rng.choice(np.arange(2, 201, 2), 6, replace=False))
    return {
        "sieve_limit": 10_000_256,
        "c2_cutoff": 10_000_000,
        "series_shifts": series_shifts,
        "series_cutoff": 1_000_000,
        "empirical_shifts": shifts,
        "empirical_n": 10_000_000,
        "identity_sieve": 1_000_016,
        "closure_h_max": 100,
        "identity_seed": int(seed),
    }


def prime_job(inp: dict) -> dict:
    big = sieve.build_sieve(inp["sieve_limit"])
    c2 = singular.twin_prime_constant(inp["c2_cutoff"], big)
    hs = inp["series_shifts"]
    series = {h: singular.alpha_ramanujan(h, big, inp["series_cutoff"]).value for h in hs}
    product = {h: singular.alpha_product(h, big, c2).value for h in hs if h % 2 == 0}
    empirical = {
        h: (singular.alpha_empirical(h, big, inp["empirical_n"]).value,
            singular.alpha_product(h, big, c2).value)
        for h in inp["empirical_shifts"]
    }
    s3 = singular.smoothed_average(1_000, big, c2)
    s4 = singular.smoothed_average(10_000, big, c2)

    tables_1m = sieve.build_sieve(inp["identity_sieve"])
    rng = np.random.default_rng(inp["identity_seed"])
    xs = rng.uniform(-3.0, 3.0, 1000)
    xs = xs[(np.abs(xs) > 1e-9) & (np.abs(np.abs(xs) - 1.0) > 1e-9)]
    rec100 = identities.averaged_alpha_recovery(100.0)
    rec1e3 = identities.averaged_alpha_recovery(1000.0)
    closure = {
        h: identities.ramanujan_closure_check(h, tables_1m, 1_000_000, c2).max_residual
        for h in range(1, inp["closure_h_max"] + 1)
    }
    return {
        "c2": c2.value,
        "series": series,
        "product": product,
        "empirical": empirical,
        "dev_1e3": s3.deviation,
        "dev_1e4": s4.deviation,
        "triangle": identities.triangle_relation_check(xs).max_residual,
        "ft": identities.ft_one_over_xsq_check([0.0, 0.5, -0.7, 1.8, 2.0]).max_residual,
        "avg_quad": abs(rec100.integral_value - rec100.si_form),
        "avg_asym": abs(rec1e3.si_form - rec1e3.asymptote),
        "local_factor": identities.local_factor_chain_sample(
            tables_1m, 1000, seed=inp["identity_seed"]).max_residual,
        "mobius": identities.mobius_indicator_check(500, 500, tables_1m).max_residual,
        "closure_even": _max_or_zero(v for h, v in closure.items() if h % 2 == 0),
        "closure_odd": _max_or_zero(v for h, v in closure.items() if h % 2),
    }


def prime_series_err(out: dict) -> float:
    """Largest |series - product| over the even shifts."""
    return _max_or_zero(abs(out["series"][h] - p) for h, p in out["product"].items())


def prime_check(inp: dict, out: dict) -> list:
    worst_odd = _max_or_zero(abs(v) for h, v in out["series"].items() if h % 2)
    worst_emp = _max_or_zero(abs(e / p - 1.0) for e, p in out["empirical"].values())
    conditions = {
        "C2 rounds to 0.6601618": f"{out['c2']:.7f}" == C2_DIGITS,
        "even h: |series - product| <= 1e-4": prime_series_err(out) <= 1e-4,
        "odd h: |series| <= 1e-3": worst_odd <= 1e-3,
        "empirical relative error <= 0.05": worst_emp <= 0.05,
        "smoothed deviation at 1e4 <= 1e-3": out["dev_1e4"] <= 1e-3,
        "smoothed deviation shrinks from 1e3 to 1e4": out["dev_1e4"] < out["dev_1e3"],
        "identity triangle": out["triangle"] < 1e-14,
        "identity ft": out["ft"] < 1e-6,
        "identity averaged quadrature": out["avg_quad"] < 1e-6,
        "identity averaged asymptote": out["avg_asym"] <= 2.0 / (math.pi * 1e6),
        "identity local factor": out["local_factor"] < 1e-11,
        "identity mobius": out["mobius"] == 0.0,
        "identity closure even": out["closure_even"] <= 1e-6,
        "identity closure odd": out["closure_odd"] == 0.0,
    }
    return [name for name, ok in conditions.items() if not ok]


# -- spectral-pooled: criteria 5, 6 and 7 --------------------------------------

def spectral_inputs(seed: int) -> dict:
    # one window of 200 mean spacings at the bottom of the range
    window = 200.0 * TWO_PI / math.log(3000.0 / TWO_PI)
    lo = 3000.0 if seed == 0 else round(3000.0 + _rng(seed).uniform(0.0, window), 3)
    return {
        "lo": lo,
        "span": 3600.0,  # 18 windows, about 3600 zeros (the criterion pools 1e4)
        "min_pooled": 3_500,
        "sieve_limit": 1_000_016,
        "p_cut": 20_000,
        "k_cut": 14,
        "limit_p_cut": 100_000,
        "limit_k_cut": 20,
    }


def spectral_job(inp: dict) -> dict:
    lo, hi = inp["lo"], inp["lo"] + inp["span"]
    zl = zeros.compute_zeros(lo - 10.0, hi + 10.0)
    flagged = zeros.counting_check(zl).flagged
    tables = sieve.build_sieve(inp["sieve_limit"])
    cfg = ZetaEvaluator()

    # the pooled experiment of tests/conftest.py, which has no home in the
    # package yet (ROADMAP item 4)
    windows = []
    e = lo
    while True:
        w = 200.0 / mean_density(e)
        if e + w > hi:
            break
        windows.append((e + w / 2.0, w))
        e += w
    ests, curves = [], []
    for center, w in windows:
        est = paircorr.empirical_r2(zl, center, w, 0.05, 3.0)
        ests.append(est)
        curves.append(paircorr.theory_on_bins(center, est.bin_edges, cfg, tables,
                                              inp["p_cut"], inp["k_cut"]))
    pooled = paircorr.aggregate(ests)
    weights = np.array([est.norms for est in ests])
    theory_binned = np.array([paircorr.bin_average(c, pooled.bin_edges) for c in curves])
    theory = (theory_binned * weights).sum(axis=0) / weights.sum(axis=0)
    gue = paircorr.bin_average(paircorr.gue_on_bins(pooled.bin_edges), pooled.bin_edges)
    ords = zl.ordinates
    n_pooled = sum(int(np.sum((ords >= c - w / 2) & (ords <= c + w / 2))) for c, w in windows)

    sl = slice(2, None)  # eps in (0.1, 3]
    eps = np.arange(0.2, 3.0001, 0.05)
    limit = paircorr.theory_curve(1e10, eps, cfg, tables, inp["limit_p_cut"], inp["limit_k_cut"])
    return {
        "ordinates": ords,
        "flagged": bool(flagged),
        "n_pooled": n_pooled,
        "floor": float(np.mean(gue[sl] / pooled.norms[sl])),
        "ms_gue": float(np.mean((pooled.values[sl] - gue[sl]) ** 2)),
        "ms_finite": float(np.mean((pooled.values[sl] - theory[sl]) ** 2)),
        "first_bin": float(pooled.values[2]),
        "limit_dev": float(np.max(np.abs(limit.total - paircorr.gue_r2(eps)))),
    }


def zeros_alternate(ordinates: np.ndarray) -> bool:
    """Z(t) changes sign between the midpoints of consecutive listed zeros.

    A missing (or spurious) simple zero leaves two neighbouring midpoints
    with the same sign, which the smooth-count test (|discrepancy| <= 2)
    cannot see.
    """
    ords = np.asarray(ordinates)
    mids = 0.5 * (ords[1:] + ords[:-1])
    signs = np.signbit(zeros.zfunc(mids))
    return bool(np.all(signs[1:] != signs[:-1]))


def spectral_check(inp: dict, out: dict) -> list:
    conditions = {
        "counting_check does not flag the zero list": not out["flagged"],
        "Z alternates in sign between listed zeros": zeros_alternate(out["ordinates"]),
        f"at least {inp['min_pooled']} zeros pooled": out["n_pooled"] >= inp["min_pooled"],
        "ms_gue <= 4 x noise floor": out["ms_gue"] <= 4.0 * out["floor"],
        "first bin (0.1, 0.15] below 0.2": out["first_bin"] < 0.2,
        "ms_finite <= ms_gue": out["ms_finite"] <= out["ms_gue"],
        "max |unfolded total - GUE| <= 2e-2 at E = 1e10": out["limit_dev"] <= 2e-2,
    }
    return [name for name, ok in conditions.items() if not ok]


# -- inversion: criterion 9 ------------------------------------------------------

def inversion_inputs(seed: int) -> dict:
    e_lo = 1000.0 if seed == 0 else round(1000.0 + _rng(seed).uniform(0.0, 100.0), 3)
    # criterion 9 runs h = 2, 3, 6 on a width of 100.  h = 1 keeps the odd/even
    # contrast and h = 4 the h-ratio check (alpha(2)/alpha(4) = 1) at a fifth
    # of the cost: eps = h E, and the zeta truncation grows with eps.
    return {
        "e_lo": e_lo,
        "width": 60.0,
        "hs": (1, 2, 4),
        "eps_cutoff": 25.0,
        "p_cut": 4000,
        "sieve_limit": 1_000_016,
    }


def inversion_job(inp: dict) -> dict:
    tables = sieve.build_sieve(inp["sieve_limit"])
    window = (inp["e_lo"], inp["e_lo"] + inp["width"])
    results = {
        h: inversion.windowed_inversion(h, window, eps_cutoff=inp["eps_cutoff"],
                                        tables=tables, p_cut=inp["p_cut"])
        for h in inp["hs"]
    }
    return {
        "estimate": {h: r.estimate for h, r in results.items()},
        "ok": {h: r.ok for h, r in results.items()},
        "quad_error_est": {h: r.diagnostics.get("quad_error_est", math.nan)
                           for h, r in results.items()},
    }


def inversion_ratio(out: dict) -> float:
    est = out["estimate"]
    return est[2] / est[4]


def inversion_check(inp: dict, out: dict) -> list:
    est = out["estimate"]
    conditions = {
        "every result is ok": all(out["ok"].values()),
        "|est(1)| < |est(2)|": abs(est[1]) < abs(est[2]),
        # criterion 9's |est(2)/est(6) - 0.5| <= 0.125, as a share of the target
        "|est(2)/est(4) - 1| <= 0.25": abs(inversion_ratio(out) - 1.0) <= 0.25,
    }
    return [name for name, ok in conditions.items() if not ok]


# -- cli-readme: the README invocations ----------------------------------------

REFERENCE_ZEROS = ROOT / "tests" / "data" / "zeros_first_100.txt"


def cli_inputs(seed: int) -> dict:
    center = 600.0 if seed == 0 else round(600.0 - _rng(seed).uniform(0.0, 150.0), 3)
    s = ["--seed", str(int(seed))]
    commands = [
        s + ["constants", "--prime-cutoff", "10000000"],
        s + ["alpha", "--method", "product", "--h", "2,6,30"],
        s + ["alpha", "--method", "series", "--h", "2", "--prime-cutoff", "100000"],
        s + ["avg-alpha", "--h", "10000"],
        s + ["zeros", "compute", "--t-min", "10", "--t-max", "1000", "--out", "zeros.txt"],
        s + ["zeros", "check", "--path", "zeros.txt"],
        s + ["r2", "gue", "--grid", "0:3:0.05"],
        s + ["r2", "theory", "--grid", "0.2:3:0.05", "--height", "1e6"],
        s + ["r2", "compare", "--zeros", "zeros.txt", "--center",
             f"{center:g}", "--width", "700"],
        s + ["identities", "--suite", "all"],
    ]
    return {"commands": commands, "t_max": 1000.0}


def cli_job(inp: dict) -> dict:
    """Run each command through ``cli.main`` in a fresh directory, capturing output."""
    scratch = ROOT / "perfbench" / "out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    codes, stdout = [], []
    here = os.getcwd()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        os.chdir(tmp)
        try:
            for argv in inp["commands"]:
                buf, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    codes.append(cli.main(list(argv)))
                stdout.append(buf.getvalue())
            table = Path("zeros.txt").read_text() if Path("zeros.txt").is_file() else ""
        finally:
            os.chdir(here)
    return {
        "codes": codes,
        "stdout": stdout,
        "sha256": [hashlib.sha256(s.encode()).hexdigest() for s in stdout],
        "stdout_bytes": sum(len(s.encode()) for s in stdout),
        "zero_table": table,
    }


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _command_output(inp: dict, out: dict, *words: str) -> str:
    for argv, text in zip(inp["commands"], out["stdout"]):
        if all(w in argv for w in words):
            return text
    raise KeyError(words)


def cli_series_err(inp: dict, out: dict) -> float:
    row = _rows(_command_output(inp, out, "alpha", "series"))[0]
    return abs(float(row["value"]) - float(row["reference_product"]))


def cli_ms_finite(inp: dict, out: dict) -> float:
    rows = _rows(_command_output(inp, out, "compare"))
    return float(np.mean([float(r["residual"]) ** 2 for r in rows]))


def cli_check(inp: dict, out: dict) -> list:
    if any(code != 0 for code in out["codes"]):
        return [f"exit codes {out['codes']} are not all 0"]
    ords = np.array([float(x) for x in out["zero_table"].splitlines()
                     if x.strip() and not x.startswith("#")])
    reference = np.array([float(x) for x in REFERENCE_ZEROS.read_text().splitlines()
                          if x.strip() and not x.startswith("#")])
    n_ref = min(len(reference), len(ords))
    expected = zeros.smooth_count(inp["t_max"]) - zeros.smooth_count(10.0)
    c2 = float(_rows(_command_output(inp, out, "constants"))[0]["value"])
    conditions = {
        "C2 rounds to 0.6601618": f"{c2:.7f}" == C2_DIGITS,
        "zero count within 1 of the smooth count": abs(len(ords) - expected) <= 1.0,
        "first zero within 1e-6 of 14.134725": len(ords) > 0 and abs(ords[0] - FIRST_ZERO) <= 1e-6,
        "first zeros match the reference table to 1e-6":
            n_ref > 0 and float(np.max(np.abs(ords[:n_ref] - reference[:n_ref]))) <= 1e-6,
        "every identity row passes": all(
            r["passed"].lower() == "true" for r in _rows(_command_output(inp, out, "identities"))),
    }
    return [name for name, ok in conditions.items() if not ok]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prime-side", prime_inputs, prime_job, prime_check),
        Workload("spectral-pooled", spectral_inputs, spectral_job, spectral_check),
        Workload("inversion", inversion_inputs, inversion_job, inversion_check),
        Workload("cli-readme", cli_inputs, cli_job, cli_check),
    )
}


def output_metrics(name: str, inp: dict, out: dict | None) -> dict:
    """Per-layer values read from a job's result; 0 where the workload has none.

    The accuracy values repeat exactly from run to run, so a change that moves
    floats shows by how much.
    """
    values = {
        "singular.series_err_max": 0.0,
        "paircorr.ms_finite": 0.0,
        "inversion.quad_error_est_max": 0.0,
        "inversion.ratio_2_4": 0.0,
        "cli.stdout_bytes": 0,
    }
    if out is None:
        return values
    if name == "prime-side":
        values["singular.series_err_max"] = prime_series_err(out)
    elif name == "spectral-pooled":
        values["paircorr.ms_finite"] = out["ms_finite"]
    elif name == "inversion":
        values["inversion.quad_error_est_max"] = max(out["quad_error_est"].values())
        values["inversion.ratio_2_4"] = inversion_ratio(out)
    elif name == "cli-readme":
        values["singular.series_err_max"] = cli_series_err(inp, out)
        values["paircorr.ms_finite"] = cli_ms_finite(inp, out)
        values["cli.stdout_bytes"] = out["stdout_bytes"]
    return values
