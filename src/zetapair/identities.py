"""Stepwise checks of the derivation chain connecting the two sides.

Each check turns one algebraic or analytic step into a numerical
verdict: sample points, a max residual, a tolerance, and pass/fail.
The steps are

  * the triangle / sign-function linear relation,
  * the Fourier pair between sinc^2 and the triangle (and through it the
    transform of 1/x^2),
  * the smoothed-average recovery via the sine integral,
  * the per-prime local factor identities behind the Euler-product
    rewriting of the off-diagonal curve,
  * the Mobius gcd indicator,
  * the Ramanujan-sum product closing onto the singular series.

``identity_suite`` runs the whole chain, or the named parts of it, as one
list of reports; the CLI's ``identities`` command and the acceptance
suite both take their rows from it.

The conditionally convergent double sum over (n, l) that the chain
passes through is deliberately never summed directly; it diverges
termwise on the 1-line, and the per-prime identities are the exact
finite content of that manipulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import SieveTables
from .singular import TwinPrimeConstant, alpha_product
from .special import sgn, sine_integral, triangle, triangle_ft

__all__ = [
    "SUITES",
    "IdentityReport",
    "identity_suite",
    "triangle_relation_check",
    "ft_one_over_xsq_check",
    "AveragedAlphaRecovery",
    "averaged_alpha_recovery",
    "local_factor_chain_sample",
    "mobius_indicator_check",
    "ramanujan_closure_check",
]


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    samples: int
    max_residual: float
    tolerance: float

    def __post_init__(self):
        # numpy scalars would make ``passed`` a numpy bool
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def triangle_relation_check(x_samples) -> IdentityReport:
    """T(x) = (1-x)sgn(1-x)/2 + (1+x)sgn(1+x)/2 - x sgn(x), pointwise.

    Exact away from the sign-function steps; sample points should avoid
    {-1, 0, 1}.
    """
    xs = np.asarray(x_samples, dtype=np.float64)
    rhs = (
        0.5 * (1.0 - xs) * sgn(1.0 - xs)
        + 0.5 * (1.0 + xs) * sgn(1.0 + xs)
        - xs * sgn(xs)
    )
    res = np.abs(triangle(xs) - rhs)
    return IdentityReport("triangle_relation", len(xs), float(res.max()), 1e-14)


def _cos_tail_integral(b: float, k0: float) -> float:
    """integral of cos(b k)/k^2 over [k0, inf) (plain 1/k^2 when b = 0)."""
    if abs(b) < 1e-14:
        return 1.0 / k0
    from scipy.integrate import quad

    val, _ = quad(
        lambda k: 1.0 / (k * k), k0, np.inf, weight="cos", wvar=abs(b), limit=400
    )
    return val


def ft_one_over_xsq_check(x_samples) -> IdentityReport:
    """Quadrature of the sinc^2 inversion integral against its closed form.

    integral of sinc(k/2)^2 e^{ikx} dk is compared with
    pi(1-x)sgn(1-x) + pi(1+x)sgn(1+x) - 2 pi x sgn(x); beyond a short
    head the integrand is split into cos((1+-x)k)/k^2 and cos(xk)/k^2
    Fourier tails handled by oscillatory-weight quadrature.  (A hard
    k-cutoff cannot reach the tolerance: the non-oscillatory 2cos(kx)/k^2
    piece leaves a 4/k_max truncation deficit, 4e-4 even at k_max = 1e4.)
    The head integrates ``special.triangle_ft``, sinc(k/2)^2 itself.
    Equivalent, through the triangle relation, to
    F[1/x^2](k) = -pi k sgn(k).
    """
    from scipy.integrate import quad

    k0 = 2.0
    worst = 0.0
    xs = np.asarray(x_samples, dtype=np.float64)
    for x in xs:
        head, _ = quad(
            lambda k: triangle_ft(k) * math.cos(k * x),
            0.0,
            k0,
            limit=200,
        )
        tail = (
            2.0 * _cos_tail_integral(x, k0)
            - _cos_tail_integral(1.0 + x, k0)
            - _cos_tail_integral(1.0 - x, k0)
        )
        total = 2.0 * (head + tail)
        target = (
            math.pi * (1.0 - x) * sgn(1.0 - x)
            + math.pi * (1.0 + x) * sgn(1.0 + x)
            - 2.0 * math.pi * x * sgn(x)
        )
        worst = max(worst, abs(total - target))
    return IdentityReport("ft_one_over_xsq", len(xs), worst, 1e-6)


@dataclass(frozen=True)
class AveragedAlphaRecovery:
    h: float
    integral_value: float
    si_form: float
    asymptote: float


def averaged_alpha_recovery(h: float) -> AveragedAlphaRecovery:
    """The smoothed-average tail term three ways.

    (1/pi) integral_0^1 ln(E) cos(hE) dE by adaptive quadrature, its
    integration-by-parts form -Si(h)/(pi h), and the large-h asymptote
    -1/(2h).
    """
    h = float(h)
    if h < 1.0:
        raise ValueError("recovery check needs h >= 1")
    from scipy.integrate import quad

    split = min(1.0, 1.0 / h)
    i_head, _ = quad(lambda u: math.log(u) * math.cos(h * u), 0.0, split, limit=200)
    i_tail = 0.0
    if split < 1.0:
        i_tail, _ = quad(math.log, split, 1.0, weight="cos", wvar=h, limit=400)
    return AveragedAlphaRecovery(
        h,
        (i_head + i_tail) / math.pi,
        -sine_integral(h) / (math.pi * h),
        -1.0 / (2.0 * h),
    )


def _local_factor_residual(p: int, eps: float) -> float:
    """Exact per-prime identities of the Euler-product rewriting.

    (i)  1 - ((1-p^-ie)/(p-1))^2 = (1-p^-(1+ie)) (p^2-2p+p^(1-ie))/(p-1)^2
    (ii) (p^2-2p+p^(1-ie))/(p-1)^2 = 1 - 1/(p-1)^2 + p^(1-ie)/(p-1)^2
                                   = 1 + p^(1-ie)(1-p^-(1-ie))/(p-1)^2
    """
    a = np.exp(-1j * eps * math.log(p))  # p^(-i eps)
    pm1sq = (p - 1.0) ** 2
    lhs1 = 1.0 - ((1.0 - a) / (p - 1.0)) ** 2
    rhs1 = (1.0 - a / p) * (p * p - 2.0 * p + p * a) / pm1sq
    mid = (p * p - 2.0 * p + p * a) / pm1sq
    rhs2a = 1.0 - 1.0 / pm1sq + p * a / pm1sq
    rhs2b = 1.0 + (p * a) * (1.0 - 1.0 / (p * a)) / pm1sq
    return float(
        max(abs(lhs1 - rhs1), abs(mid - rhs2a), abs(mid - rhs2b))
    )


def local_factor_chain_sample(
    tables: SieveTables, n_samples: int = 1000, seed: int = 0
) -> IdentityReport:
    """Residuals over random (prime, eps) pairs; reproducible via seed.

    The primes are drawn from those up to 10^4, which must not pass the
    sieve limit, and eps uniformly from (-10, 10).
    """
    rng = np.random.default_rng(seed)
    ps = tables.primes_upto(10_000)
    worst = 0.0
    for _ in range(n_samples):
        p = int(ps[rng.integers(len(ps))])
        eps = float(rng.uniform(-10.0, 10.0))
        worst = max(worst, _local_factor_residual(p, eps))
    return IdentityReport("local_factor_chain", n_samples, worst, 1e-11)


def mobius_indicator_check(n_max: int, l_max: int, tables: SieveTables) -> IdentityReport:
    """sum_{d | gcd(l,n)} mu(d) = [gcd(l,n) = 1], exhaustively."""
    m = max(n_max, l_max)
    if m > tables.limit:
        raise ValueError("bounds exceed sieve limit")
    mu = tables.mobius_table(m).astype(np.int64)
    summatory = np.zeros(m + 1, dtype=np.int64)  # F[g] = sum_{d | g} mu(d)
    for d in range(1, m + 1):
        summatory[d::d] += mu[d]
    n = np.arange(1, n_max + 1)[:, None]
    l = np.arange(1, l_max + 1)[None, :]
    g = np.gcd(n, l)
    res = np.abs(summatory[g] - (g == 1))
    return IdentityReport("mobius_indicator", 1, float(res.max()), 0.0)


def ramanujan_closure_check(
    h: int, tables: SieveTables, p_cut: int, c2: TwinPrimeConstant
) -> IdentityReport:
    """prod_p (1 + c_p(h)/phi(p)^2) against the singular series.

    The product runs over every prime p <= p_cut: c_p(h) = -1 gives the
    factor 1 - 1/(p-1)^2, and c_p(h) = p - 1 gives 1 + 1/(p-1) where p
    divides h.  Divisibility is tested only for p <= |h|, since a larger
    prime cannot divide h.  p_cut past the sieve limit is an error, not a
    product over fewer primes.  The p = 2 factor is 1 + c_2(h), identically
    zero for odd h; for even h the truncated product must land on the
    product form of alpha(h).
    """
    h = int(h)
    if h == 0:
        raise ValueError("h = 0 is excluded")
    ps = tables.primes_upto(p_cut)
    factors = ps.astype(np.float64)
    factors -= 1.0
    factors *= factors
    np.divide(-1.0, factors, out=factors)
    factors += 1.0
    near = tables.primes_upto(min(abs(h), p_cut))
    divides = np.flatnonzero(abs(h) % near == 0)
    pm1 = near[divides] - 1.0
    factors[divides] = 1.0 + pm1 / pm1**2
    value = float(np.prod(factors))  # odd h: the p = 2 factor is exactly 0
    target = 0.0 if h % 2 else alpha_product(h, tables, c2).value
    return IdentityReport("ramanujan_closure", 1, abs(value - target), 1e-6)


#: the independently selectable parts of the chain, in report order
SUITES = ("triangle", "ft", "local-factor", "mobius", "ramanujan", "averaged")


def identity_suite(
    tables: SieveTables,
    c2: TwinPrimeConstant,
    p_cut: int,
    seed: int,
    suites=SUITES,
) -> list[IdentityReport]:
    """Reports for each named part of the chain, in the order given.

    The triangle points and the local-factor pairs are drawn from
    ``seed``; the Ramanujan closure runs h = 1..100 with primes up to
    ``p_cut`` against the product form built on ``c2``, as one row for
    even h and one for odd h (where the product is exactly zero).
    """
    reports = []
    for suite in suites:
        if suite == "triangle":
            xs = np.random.default_rng(seed).uniform(-3.0, 3.0, 1000)
            xs = xs[(np.abs(xs) > 1e-9) & (np.abs(np.abs(xs) - 1.0) > 1e-9)]
            reports.append(triangle_relation_check(xs))
        elif suite == "ft":
            reports.append(ft_one_over_xsq_check([0.0, 0.5, -0.7, 1.8, 2.0]))
        elif suite == "local-factor":
            reports.append(local_factor_chain_sample(tables, 1000, seed=seed))
        elif suite == "mobius":
            reports.append(mobius_indicator_check(500, 500, tables))
        elif suite == "ramanujan":
            for parity, first, tol in (("even", 2, 1e-6), ("odd", 1, 0.0)):
                hs = range(first, 101, 2)
                worst = max(
                    ramanujan_closure_check(h, tables, p_cut, c2).max_residual
                    for h in hs
                )
                reports.append(
                    IdentityReport(f"ramanujan_closure_{parity}", len(hs), worst, tol)
                )
        elif suite == "averaged":
            recs = [averaged_alpha_recovery(h) for h in (100.0, 1000.0)]
            reports.append(IdentityReport(
                "averaged_alpha", len(recs),
                max(abs(r.integral_value - r.si_form) for r in recs), 1e-6,
            ))
            far = recs[-1]
            reports.append(IdentityReport(
                "averaged_alpha_asymptote", 1,
                abs(far.si_form - far.asymptote), 2.0 / (math.pi * far.h**2),
            ))
        else:
            raise ValueError(f"unknown identity suite {suite!r}")
    return reports
