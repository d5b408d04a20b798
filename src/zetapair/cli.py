"""Command-line surface: machine-readable CSV/JSON over every module.

One binary with subcommands; identical invocations with identical seed
produce byte-identical output.  Diagnostics go to stderr, data to stdout.
Exit codes: 0 success, 1 domain/verification error, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import identities as idmod
from . import inversion, paircorr, singular, zeros
from .sieve import build_sieve
from .special import ZetaEvaluator, mean_density

__all__ = ["main"]

#: N of the Ramanujan series in ``alpha --method series`` (criterion 2's)
SERIES_CUTOFF = 1_000_000
#: prime cutoff, C2 cutoff and sieve size of ``identities`` (criterion 8's)
IDENTITY_CUTOFF = 1_000_000
#: C2 cutoff of ``avg-alpha``, and of ``alpha`` without ``--prime-cutoff``
C2_CUTOFF = 1_000_000
#: histogram bin width of ``r2 empirical`` and ``r2 compare``, in mean spacings
BIN_WIDTH = 0.05
#: the largest sieve a command may ask for: 10x the README's ``constants``
#: (about 100 MB of bitmap and primes; an spf to the limit adds 400 MB)
MAX_SIEVE_LIMIT = 100_000_000


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


def _emit(fields: list[str], rows: list[tuple], fmt: str) -> None:
    """Write rows, each a tuple of values in the order of ``fields``."""
    if fmt == "json":
        payload = {"rows": [{k: _json_value(v) for k, v in zip(fields, row, strict=True)}
                            for row in rows]}
        # encoded whole before any write, so a value JSON refuses leaves stdout empty
        sys.stdout.write(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    else:
        sys.stdout.write(",".join(fields) + "\n")
        for row in rows:
            sys.stdout.write(",".join(map(_fmt, row)) + "\n")


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"expected --h H1,H2,..., got {text!r}")
    if not values:
        raise ValueError("--h needs at least one shift")
    return values


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        a = b = step = math.nan
    # the step must divide the span to 1e-9 relative, or the points would not be step apart
    if not (all(math.isfinite(v) for v in (a, b, step)) and step > 0 and b >= a
            and math.isfinite(n := (b - a) / step) and abs(n - round(n)) <= 1e-9 * n):
        raise ValueError(f"expected --grid START:STOP:STEP, got {text!r}")
    return np.linspace(a, b, round(n) + 1)


def _seed(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _parse_range(text: str, form: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"expected {form}, got {text!r}")
    return lo, hi


def _sieve(needed: int):
    # at least 1000, so a prime cutoff below 3 (`constants` or `alpha --prime-cutoff`)
    # reaches twin_prime_constant's check rather than build_sieve's
    limit = max(needed, 1000)
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"the sieve this asks for, up to {limit}, "
                         f"exceeds the bound of {MAX_SIEVE_LIMIT}")
    return build_sieve(limit)


def _load_zero_list(args) -> zeros.ZeroList:
    if getattr(args, "zeros", None):
        return zeros.load_zeros(args.zeros)
    if getattr(args, "compute", None):
        t_min, t_max = _parse_range(args.compute, "--compute TMIN:TMAX")
        return zeros.compute_zeros(t_min, t_max)
    raise ValueError("provide --zeros PATH or --compute TMIN:TMAX")


# -- subcommand bodies -------------------------------------------------------

def _cmd_constants(args) -> int:
    p = args.prime_cutoff
    tables = _sieve(p + 1)
    c2 = singular.twin_prime_constant(p, tables)
    _emit(["prime_cutoff", "value", "tail_log_bound"],
          [(c2.prime_cutoff, c2.value, c2.tail_log_bound)], args.format)
    return 0


def _cmd_alpha(args) -> int:
    hs = _parse_int_list(args.h)
    max_h = max(abs(h) for h in hs)
    # every method also reports the product form, which needs C2 at the cutoff
    needed = max(max_h, args.prime_cutoff)
    if args.method == "series":
        needed = max(needed, SERIES_CUTOFF)
    elif args.method == "empirical":
        needed = max(needed, args.sample_length + max_h)
    tables = _sieve(needed + 1)
    c2 = singular.twin_prime_constant(args.prime_cutoff, tables)
    rows = []
    for h in hs:
        ref = singular.alpha_product(h, tables, c2)
        if args.method == "product":
            res = ref
        elif args.method == "series":
            res = singular.alpha_ramanujan(h, tables, SERIES_CUTOFF)
        else:
            res = singular.alpha_empirical(h, tables, args.sample_length)
        truncation = ";".join(f"{k}={_fmt(v)}" for k, v in res.truncation.items())
        rows.append((h, res.method, res.value, truncation, ref.value))
    _emit(["h", "method", "value", "truncation", "reference_product"], rows,
          args.format)
    return 0


def _cmd_avg_alpha(args) -> int:
    tables = _sieve(max(args.h, C2_CUTOFF) + 1)
    c2 = singular.twin_prime_constant(C2_CUTOFF, tables)
    s = singular.smoothed_average(args.h, tables, c2)
    _emit(["h", "average", "asymptote", "abs_deviation"],
          [(s.h, s.average, s.asymptote, s.deviation)], args.format)
    return 0


def _cmd_zeros(args) -> int:
    if args.action == "compute":
        zl = zeros.compute_zeros(args.t_min, args.t_max)
    else:
        zl = zeros.load_zeros(args.path)
    if args.action == "ingest" or (args.action == "compute" and not args.out):
        _emit(["index", "ordinate"],
              [(i + 1, float(v)) for i, v in enumerate(zl.ordinates)], args.format)
        return 0
    rep = zeros.counting_check(zl)
    if args.action == "compute":
        zeros.save_zeros(zl, args.out)
        _emit(["count", "t_min", "t_max", "expected", "discrepancy", "path"],
              [(len(zl), *zl.range, rep.expected, rep.discrepancy, str(args.out))],
              args.format)
        return 0
    # check
    _emit(["count", "t_min", "t_max", "expected", "discrepancy", "flagged",
           "claimed_complete"],
          [(len(zl), *zl.range, rep.expected, rep.discrepancy, rep.flagged,
            zl.claimed_complete)],
          args.format)
    return 1 if rep.flagged else 0


def _cmd_r2(args) -> int:
    zcfg = ZetaEvaluator()
    if args.mode == "gue":
        grid = _parse_grid(args.grid)
        _emit(["epsilon", "value"],
              [(float(e), paircorr.gue_r2(float(e))) for e in grid], args.format)
        return 0

    if args.mode == "theory":
        grid = _parse_grid(args.grid)
        tables = _sieve(paircorr.DEFAULT_PRIME_CUTOFF + 1)
        curve = paircorr.theory_curve(
            args.height, grid, zcfg, tables, unfolded=not args.absolute
        )
        rows = [(float(e), float(t), float(d), float(o), curve.constant_term)
                for e, t, d, o in zip(curve.epsilons, curve.total, curve.diag,
                                      curve.offdiag)]
        _emit(["epsilon", "theory_total", "theory_diag", "theory_off", "constant"],
              rows, args.format)
        return 0

    zl = _load_zero_list(args)
    width = args.width
    if width is None:
        width = paircorr.WINDOW_SPACINGS / mean_density(args.center)
    est = paircorr.empirical_r2(zl, args.center, width, BIN_WIDTH, paircorr.SCORED_RANGE[1])
    if args.mode == "empirical":
        rows = [(float(c), float(v), int(n))
                for c, v, n in zip(est.bin_centers, est.values, est.counts)]
        _emit(["epsilon", "empirical", "pairs"], rows, args.format)
        return 0

    # compare
    tables = _sieve(paircorr.DEFAULT_PRIME_CUTOFF + 1)
    curve = paircorr.theory_on_bins(args.center, est.bin_edges, zcfg, tables)
    rep = paircorr.compare([est], [curve])
    rows = [
        (float(c), float(v), float(t), float(d), float(o), curve.constant_term, float(r))
        for c, v, t, d, o, r in zip(
            rep.estimate.bin_centers, rep.estimate.values, rep.theory, rep.diag,
            rep.offdiag, rep.residuals,
        )
    ]
    _emit(
        ["epsilon", "empirical", "theory_total", "theory_diag", "theory_off",
         "constant", "residual"],
        rows, args.format,
    )
    for name in ("ms_residual", "ms_gue", "noise_floor"):
        print(f"{name} {getattr(rep, name):.17g}", file=sys.stderr)
    return 0


def _cmd_identities(args) -> int:
    wanted = idmod.SUITES if args.suite == "all" else (args.suite,)
    tables = _sieve(IDENTITY_CUTOFF + 1)
    c2 = singular.twin_prime_constant(IDENTITY_CUTOFF, tables)
    reports = idmod.identity_suite(tables, c2, IDENTITY_CUTOFF, args.seed, wanted)
    _emit(["identity_name", "samples", "max_residual", "tolerance", "passed"],
          [(r.identity_name, r.samples, r.max_residual, r.tolerance, r.passed)
           for r in reports],
          args.format)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAILED {r.identity_name}: max_residual {r.max_residual:.6g} "
              f"> tolerance {r.tolerance:.6g}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_invert(args) -> int:
    hs = _parse_int_list(args.h)
    e_lo, e_hi = _parse_range(args.window, "--window E_LO:E_HI")
    tables = _sieve(inversion.DEFAULT_PRIME_CUTOFF + 1)
    rows = []
    any_failed = False
    for h in hs:
        res = inversion.windowed_inversion(h, (e_lo, e_hi), tables=tables)
        any_failed |= not res.ok
        diag = res.diagnostics
        rows.append((h, res.estimate, res.ok, diag["quad_error_est"],
                     diag["band_leakage"], diag["imag_fraction"]))
        if not res.ok:
            print(f"h={h}: quadrature estimate did not stabilize", file=sys.stderr)
    _emit(["h", "estimate", "ok", "quad_error_est", "band_leakage",
           "imag_fraction"], rows, args.format)
    return 1 if any_failed else 0


# -- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetapair",
        description="Twin-prime singular series vs pair correlation of zeta "
                    "zeros: compute both sides and verify the bridge.",
    )
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format")
    ap.add_argument("--seed", type=_seed, default=0, help="seed for sampled checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="twin prime constant")
    p.add_argument("--prime-cutoff", type=int, default=10_000_000)

    p = sub.add_parser("alpha", help="singular series alpha(h)")
    p.add_argument("--method", choices=("product", "series", "empirical"),
                   required=True)
    p.add_argument("--h", required=True, help="comma-separated shifts")
    p.add_argument("--prime-cutoff", type=int, default=C2_CUTOFF)
    p.add_argument("--sample-length", type=int, default=10_000_000,
                   help="N for the empirical average")

    p = sub.add_parser("avg-alpha", help="smoothed average of alpha")
    p.add_argument("--h", type=int, required=True)

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
    pt.add_argument("--absolute", action="store_true",
                    help="absolute units instead of unfolded")
    for mode in ("empirical", "compare"):
        pe = rs.add_parser(mode)
        pe.add_argument("--zeros", help="zero table to ingest")
        pe.add_argument("--compute", help="TMIN:TMAX to compute zeros")
        pe.add_argument("--center", type=float, required=True)
        pe.add_argument("--width", type=float, default=None,
                        help=f"window width (default {paircorr.WINDOW_SPACINGS:g} "
                             "mean spacings at --center)")

    p = sub.add_parser("identities", help="run the derivation-chain checks")
    p.add_argument("--suite", choices=("all",) + idmod.SUITES, default="all")

    p = sub.add_parser("invert", help="windowed inversion of the off-diagonal curve")
    p.add_argument("--h", required=True, help="comma-separated shifts")
    p.add_argument("--window", required=True, help="E_LO:E_HI")
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


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    # a MemoryError is a refused allocation, such as a --grid of 1e16 points
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
