"""Command-line surface: machine-readable CSV/JSON over every module.

One binary with subcommands; identical invocations with identical config
and seed produce byte-identical output.  Diagnostics go to stderr, data
to stdout.  Exit codes: 0 success, 1 domain/verification error, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import identities as idmod
from . import paircorr, singular, zeros
from .config import RunConfig, apply_env, load_config_file
from .inversion import windowed_inversion
from .sieve import build_sieve
from .special import ZetaEvaluator, mean_density

__all__ = ["main", "run"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_value(value):
    # RFC 8259 has no NaN or infinity: a non-finite float is written as null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def emit(fields: list[str], rows: list[dict], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        payload = {"rows": [{k: _json_value(row[k]) for k in fields} for row in rows]}
        json.dump(payload, out, indent=1, default=_fmt, allow_nan=False)
        out.write("\n")
    else:
        out.write(",".join(fields) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[k]) for k in fields) + "\n")


def _parse_int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError("--h needs at least one shift")
    return values


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        a = b = step = math.nan
    if not (all(math.isfinite(v) for v in (a, b, step)) and step > 0 and b >= a
            and math.isfinite((b - a) / step)):
        raise ValueError(f"expected --grid START:STOP:STEP, got {text!r}")
    n = int(round((b - a) / step))
    return np.linspace(a, b, n + 1)


def _parse_range(text: str, form: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"expected {form}, got {text!r}")
    return lo, hi


def _sieve_for(cfg: RunConfig, needed: int):
    limit = cfg.sieve_limit if cfg.sieve_limit > 0 else max(needed, 1000)
    if limit < needed:
        raise ValueError(
            f"configured sieve_limit {limit} is below the required {needed}"
        )
    return build_sieve(limit)


def _load_zero_list(args, cfg: RunConfig) -> zeros.ZeroList:
    if getattr(args, "zeros", None):
        return zeros.load_zeros(args.zeros)
    if getattr(args, "compute", None):
        t_min, t_max = _parse_range(args.compute, "--compute TMIN:TMAX")
        if cfg.cache_dir:
            # repr round-trips, so distinct ranges never share a file
            cache = Path(cfg.cache_dir) / f"zeros-{t_min!r}-{t_max!r}.txt"
            if cache.is_file():
                # the table ends at its outermost zeros, not at the range
                return replace(zeros.load_zeros(cache), range=(t_min, t_max))
            zl = zeros.compute_zeros(t_min, t_max)
            zeros.save_zeros(zl, cache)
            return zl
        return zeros.compute_zeros(t_min, t_max)
    raise ValueError("provide --zeros PATH or --compute TMIN:TMAX")


# -- subcommand bodies -------------------------------------------------------

def _cmd_constants(args, cfg: RunConfig) -> int:
    p = args.prime_cutoff
    tables = _sieve_for(cfg, p + 1)
    c2 = singular.twin_prime_constant(p, tables)
    emit(
        ["prime_cutoff", "value", "tail_log_bound"],
        [{"prime_cutoff": c2.prime_cutoff, "value": c2.value,
          "tail_log_bound": c2.tail_log_bound}],
        cfg.output_format,
    )
    return 0


def _cmd_alpha(args, cfg: RunConfig) -> int:
    hs = _parse_int_list(args.h)
    max_h = max(abs(h) for h in hs)
    # every method also reports the product form, which needs C2 at the cutoff
    needed = max(max_h, args.prime_cutoff)
    if args.method == "series":
        needed = max(needed, cfg.series_cutoff)
    elif args.method == "empirical":
        needed = max(needed, args.sample_length + max_h)
    tables = _sieve_for(cfg, needed + 1)
    c2 = singular.twin_prime_constant(args.prime_cutoff, tables)
    rows = []
    for h in hs:
        ref = singular.alpha_product(h, tables, c2)
        if args.method == "product":
            res = ref
        elif args.method == "series":
            res = singular.alpha_ramanujan(h, tables, cfg.series_cutoff)
        else:
            res = singular.alpha_empirical(h, tables, args.sample_length)
        rows.append({
            "h": h,
            "method": res.method,
            "value": res.value,
            "truncation": ";".join(f"{k}={_fmt(v)}" for k, v in res.truncation.items()),
            "reference_product": ref.value,
        })
    emit(["h", "method", "value", "truncation", "reference_product"], rows,
         cfg.output_format)
    return 0


def _cmd_avg_alpha(args, cfg: RunConfig) -> int:
    tables = _sieve_for(cfg, max(args.h, args.prime_cutoff) + 1)
    c2 = singular.twin_prime_constant(args.prime_cutoff, tables)
    s = singular.smoothed_average(args.h, tables, c2)
    emit(
        ["h", "average", "asymptote", "abs_deviation"],
        [{"h": s.h, "average": s.average, "asymptote": s.asymptote,
          "abs_deviation": s.deviation}],
        cfg.output_format,
    )
    return 0


def _cmd_zeros(args, cfg: RunConfig) -> int:
    if args.action == "compute":
        zl = zeros.compute_zeros(args.t_min, args.t_max)
        if args.out:
            zeros.save_zeros(zl, args.out)
        rep = zeros.counting_check(zl)
        if args.out:
            emit(
                ["count", "t_min", "t_max", "expected", "discrepancy", "path"],
                [{"count": len(zl), "t_min": zl.range[0], "t_max": zl.range[1],
                  "expected": rep.expected, "discrepancy": rep.discrepancy,
                  "path": str(args.out)}],
                cfg.output_format,
            )
        else:
            emit(
                ["index", "ordinate"],
                [{"index": i + 1, "ordinate": float(v)}
                 for i, v in enumerate(zl.ordinates)],
                cfg.output_format,
            )
        return 0
    zl = zeros.load_zeros(args.path)
    rep = zeros.counting_check(zl)
    if args.action == "ingest":
        emit(
            ["index", "ordinate"],
            [{"index": i + 1, "ordinate": float(v)}
             for i, v in enumerate(zl.ordinates)],
            cfg.output_format,
        )
        return 0
    # check
    emit(
        ["count", "t_min", "t_max", "expected", "discrepancy", "flagged",
         "claimed_complete"],
        [{"count": rep.actual, "t_min": zl.range[0], "t_max": zl.range[1],
          "expected": rep.expected, "discrepancy": rep.discrepancy,
          "flagged": rep.flagged, "claimed_complete": zl.claimed_complete}],
        cfg.output_format,
    )
    return 1 if rep.flagged else 0


def _cmd_r2(args, cfg: RunConfig) -> int:
    zcfg = ZetaEvaluator()
    if args.mode == "gue":
        grid = _parse_grid(args.grid)
        rows = [{"epsilon": float(e), "value": paircorr.gue_r2(float(e))}
                for e in grid]
        emit(["epsilon", "value"], rows, cfg.output_format)
        return 0

    if args.mode == "theory":
        grid = _parse_grid(args.grid)
        tables = _sieve_for(cfg, args.prime_cutoff + 1)
        curve = paircorr.theory_curve(
            args.height, grid, zcfg, tables, args.prime_cutoff,
            args.power_cutoff, unfolded=not args.absolute,
        )
        rows = [
            {"epsilon": float(e), "theory_total": float(t), "theory_diag": float(d),
             "theory_off": float(o), "constant": curve.constant_term}
            for e, t, d, o in zip(curve.epsilons, curve.total, curve.diag,
                                  curve.offdiag)
        ]
        emit(["epsilon", "theory_total", "theory_diag", "theory_off", "constant"],
             rows, cfg.output_format)
        return 0

    zl = _load_zero_list(args, cfg)
    width = args.width
    if width is None:
        width = cfg.window_width / mean_density(args.center)
    est = paircorr.empirical_r2(zl, args.center, width, cfg.bin_width, args.eps_max)
    if args.mode == "empirical":
        rows = [
            {"epsilon": float(c), "empirical": float(v), "pairs": int(n)}
            for c, v, n in zip(est.bin_centers, est.values, est.counts)
        ]
        emit(["epsilon", "empirical", "pairs"], rows, cfg.output_format)
        return 0

    # compare
    tables = _sieve_for(cfg, args.prime_cutoff + 1)
    curve = paircorr.theory_on_bins(
        args.center, est.bin_edges, zcfg, tables, args.prime_cutoff,
        args.power_cutoff,
    )
    rep = paircorr.compare([est], [curve])
    rows = [
        {"epsilon": float(c), "empirical": float(v), "theory_total": float(t),
         "theory_diag": float(d), "theory_off": float(o),
         "constant": curve.constant_term, "residual": float(r)}
        for c, v, t, d, o, r in zip(
            rep.estimate.bin_centers, rep.estimate.values, rep.theory, rep.diag,
            rep.offdiag, rep.residuals,
        )
    ]
    emit(
        ["epsilon", "empirical", "theory_total", "theory_diag", "theory_off",
         "constant", "residual"],
        rows, cfg.output_format,
    )
    print(f"ms_residual {rep.ms_residual:.17g}", file=sys.stderr)
    return 0


def _cmd_identities(args, cfg: RunConfig) -> int:
    wanted = idmod.SUITES if args.suite == "all" else (args.suite,)
    tables = _sieve_for(cfg, max(cfg.series_cutoff, 10_000) + 1)
    c2 = singular.twin_prime_constant(cfg.series_cutoff, tables)
    reports = idmod.identity_suite(tables, c2, cfg.series_cutoff, cfg.seed, wanted)
    emit(["identity_name", "samples", "max_residual", "tolerance", "passed"],
         [r.row() for r in reports], cfg.output_format)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAILED {r.identity_name}: max_residual {r.max_residual:.6g} "
              f"> tolerance {r.tolerance:.6g}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_invert(args, cfg: RunConfig) -> int:
    hs = _parse_int_list(args.h)
    e_lo, e_hi = _parse_range(args.window, "--window E_LO:E_HI")
    tables = _sieve_for(cfg, max(args.prime_cutoff, 10_000) + 1)
    rows = []
    any_failed = False
    for h in hs:
        res = windowed_inversion(
            h, (e_lo, e_hi), eps_cutoff=args.eps_cutoff, tables=tables,
            p_cut=args.prime_cutoff,
        )
        any_failed |= not res.ok
        rows.append({
            "h": h,
            "estimate": res.estimate,
            "ok": res.ok,
            "quad_error_est": res.diagnostics.get("quad_error_est", math.nan),
            "band_leakage": res.diagnostics.get("band_leakage", math.nan),
            "imag_fraction": res.diagnostics.get("imag_fraction", math.nan),
        })
        if not res.ok:
            print(f"h={h}: {res.diagnostics.get('error', 'failed')}",
                  file=sys.stderr)
    emit(["h", "estimate", "ok", "quad_error_est", "band_leakage",
          "imag_fraction"], rows, cfg.output_format)
    return 1 if any_failed else 0


# -- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetapair",
        description="Twin-prime singular series vs pair correlation of zeta "
                    "zeros: compute both sides and verify the bridge.",
    )
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--format", choices=("csv", "json"), help="output format")
    ap.add_argument("--cache-dir", help="zero-table cache directory (env ZPD_CACHE_DIR)")
    ap.add_argument("--seed", type=int, help="seed for sampled checks")
    ap.add_argument("--sieve-limit", type=int, help="fixed sieve size (0 = auto)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="twin prime constant")
    p.add_argument("--prime-cutoff", type=int, default=10_000_000)

    p = sub.add_parser("alpha", help="singular series alpha(h)")
    p.add_argument("--method", choices=("product", "series", "empirical"),
                   required=True)
    p.add_argument("--h", required=True, help="comma-separated shifts")
    p.add_argument("--prime-cutoff", type=int, default=1_000_000)
    p.add_argument("--sample-length", type=int, default=10_000_000,
                   help="N for the empirical average")

    p = sub.add_parser("avg-alpha", help="smoothed average of alpha")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--prime-cutoff", type=int, default=1_000_000)

    p = sub.add_parser("zeros", help="compute/ingest/check zero tables")
    zs = p.add_subparsers(dest="action", required=True)
    pc = zs.add_parser("compute")
    pc.add_argument("--t-min", type=float, required=True)
    pc.add_argument("--t-max", type=float, required=True)
    pc.add_argument("--out", help="write the table here (emits a summary row)")
    pi = zs.add_parser("ingest")
    pi.add_argument("--path", required=True)
    pk = zs.add_parser("check")
    pk.add_argument("--path", required=True)

    p = sub.add_parser("r2", help="pair correlation, empirical and theoretical")
    rs = p.add_subparsers(dest="mode", required=True)
    pg = rs.add_parser("gue")
    pg.add_argument("--grid", required=True, help="start:stop:step")
    pt = rs.add_parser("theory")
    pt.add_argument("--grid", required=True)
    pt.add_argument("--height", type=float, required=True)
    pt.add_argument("--prime-cutoff", type=int, default=100_000)
    pt.add_argument("--power-cutoff", type=int, default=20)
    pt.add_argument("--absolute", action="store_true",
                    help="absolute units instead of unfolded")
    for mode in ("empirical", "compare"):
        pe = rs.add_parser(mode)
        pe.add_argument("--zeros", help="zero table to ingest")
        pe.add_argument("--compute", help="TMIN:TMAX to compute zeros")
        pe.add_argument("--center", type=float, required=True)
        pe.add_argument("--width", type=float, default=None,
                        help="window width (default window_width spacings)")
        pe.add_argument("--eps-max", type=float, default=3.0)
        if mode == "compare":
            pe.add_argument("--prime-cutoff", type=int, default=100_000)
            pe.add_argument("--power-cutoff", type=int, default=20)

    p = sub.add_parser("identities", help="run the derivation-chain checks")
    p.add_argument("--suite", choices=("all",) + idmod.SUITES, default="all")

    p = sub.add_parser("invert", help="windowed inversion of the off-diagonal curve")
    p.add_argument("--h", required=True, help="comma-separated shifts")
    p.add_argument("--window", required=True, help="E_LO:E_HI")
    p.add_argument("--eps-cutoff", type=float, default=25.0)
    p.add_argument("--prime-cutoff", type=int, default=4000)
    return ap


_HANDLERS = {
    "constants": _cmd_constants,
    "alpha": _cmd_alpha,
    "avg-alpha": _cmd_avg_alpha,
    "zeros": _cmd_zeros,
    "r2": _cmd_r2,
    "identities": _cmd_identities,
    "invert": _cmd_invert,
}


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kwargs = {}
    if args.config:
        kwargs.update(load_config_file(args.config))
    cfg = apply_env(RunConfig(**kwargs))
    flags = {"output_format": args.format, "cache_dir": args.cache_dir or None,
             "seed": args.seed, "sieve_limit": args.sieve_limit}
    # replace runs RunConfig's checks again, on the values the flags set
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    return _HANDLERS[args.command](args, cfg)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
