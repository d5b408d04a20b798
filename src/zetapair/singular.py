"""The prime-pair singular series alpha(h) in three independent forms.

alpha(h) is the density constant for weighted prime pairs at shift h:
2 C2 prod_{p | h, p > 2} (p-1)/(p-2) for even h and 0 for odd h, where C2
is the twin prime constant.  Besides that product form this module
evaluates the Ramanujan-sum series sum (mu(n)/phi(n))^2 c_n(h) and the
direct empirical average of von Mangoldt pair products, so the three can
be played against each other in tests.

h = 0 is rejected everywhere: the h = 0 pair sum measures sum Lambda^2,
which grows faster than the h != 0 normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sieve import SieveTables

__all__ = [
    "TwinPrimeConstant",
    "AlphaResult",
    "twin_prime_constant",
    "alpha_product",
    "alpha_ramanujan",
    "alpha_empirical",
    "smoothed_average",
    "SmoothedAverage",
]


@dataclass(frozen=True)
class TwinPrimeConstant:
    """prod_{2 < p <= P} (1 - (p-1)^-2) plus a bound on the missing tail."""

    value: float
    prime_cutoff: int
    tail_log_bound: float


@dataclass(frozen=True)
class AlphaResult:
    h: int
    value: float
    method: str  # product | ramanujan_series | empirical
    truncation: dict = field(default_factory=dict)


def twin_prime_constant(prime_cutoff: int, tables: SieveTables) -> TwinPrimeConstant:
    p_max = int(prime_cutoff)
    if p_max < 3:
        raise ValueError("prime cutoff must be >= 3")
    if p_max > tables.limit:
        raise ValueError("prime cutoff exceeds sieve limit")
    ps = tables.primes[1 : np.searchsorted(tables.primes, p_max, side="right")]
    log_c2 = float(np.sum(np.log1p(-1.0 / (ps.astype(np.float64) - 1.0) ** 2)))
    # |sum_{p > P} log(1 - (p-1)^-2)| <= ~ sum_{p > P} 1.1 p^-2 ~ 1.1/(P ln P);
    # doubled for slack in the prime-count approximation
    tail = 2.2 / (p_max * math.log(p_max))
    return TwinPrimeConstant(math.exp(log_c2), p_max, tail)


def _check_h(h: int, tables: SieveTables) -> int:
    h = int(h)
    if h == 0:
        raise ValueError("shift h = 0 is outside the singular series domain")
    if abs(h) > tables.limit:
        raise ValueError("|h| exceeds sieve limit")
    return h


def alpha_product(h: int, tables: SieveTables, c2: TwinPrimeConstant) -> AlphaResult:
    """Product form: 0 for odd h, else 2 C2 prod_{p | h, p > 2} (p-1)/(p-2)."""
    h = _check_h(h, tables)
    trunc = {"prime_cutoff": c2.prime_cutoff}
    if h % 2:
        return AlphaResult(h, 0.0, "product", trunc)
    value = 2.0 * c2.value
    for p, _ in tables.factorize(abs(h)):
        if p > 2:
            value *= (p - 1) / (p - 2)
    return AlphaResult(h, value, "product", trunc)


def _series_tail_constant(tables: SieveTables, g: np.ndarray) -> float:
    """An upper bound on sum_{n > n_max} mu(n)^2 / phi(n)^2.

    The full sum is prod_p (1 + (p-1)^-2); the bound is that product minus
    the partials.  g[n - 1] = mu(n) / phi(n)^2 for n = 1..n_max, so |g|
    sums the partials.  The sieve supplies the primes up to its limit L;
    for the rest, ln(1 + x) <= x and pi(x) < 1.25506 x / ln x (Rosser and
    Schoenfeld 1962) give by partial summation

        sum_{p > L} (p-1)^-2 <= (2.51012 / ln L) (1/(L-1) + 1/(2 (L-1)^2)).
    """
    total_log = tables.log_mu2_phi2_product()
    lim = float(tables.limit)
    total_log += 2.51012 / math.log(lim) * (1.0 / (lim - 1.0) + 0.5 / (lim - 1.0) ** 2)
    partial = float(np.sum(np.abs(g)))
    return max(math.exp(total_log) - partial, 0.0)


def alpha_ramanujan(h: int, tables: SieveTables, n_max: int) -> AlphaResult:
    """Series form: sum_{n <= n_max} (mu(n)/phi(n))^2 c_n(h).

    Evaluated as a divisor sum.  With c_n(h) = sum_{d | (n, h)} d mu(n/d)
    and g(n) = mu(n) / phi(n)^2, only squarefree n and hence squarefree d
    contribute, and mu(n/d) = mu(n) mu(d) turns the series into

        S(h) = sum_{d | rad(h)} d mu(d) sum_{k <= n_max, d | k} g(k),

    one strided sum of g per squarefree divisor d of h (empty for d > n_max).
    The tail bound phi(|h|) sum_{n > n_max} mu(n)^2 / phi(n)^2 holds since
    |c_n(h)| = phi(gcd(n, h)) <= phi(|h|) for squarefree n.
    """
    h = _check_h(h, tables)
    n_max = int(n_max)
    if not 1 <= n_max <= tables.limit:
        raise ValueError("series cutoff outside sieve range")
    g = tables.series_weight_table(n_max)[1:]
    # d mu(d) over the squarefree d | h: each prime p of h appends -p times the list
    signed = np.ones(1, dtype=np.int64)
    for p, _ in tables.factorize(abs(h)):
        signed = np.concatenate([signed, -p * signed])
    inner = np.array([g[d - 1 :: d].sum() for d in np.abs(signed)])
    value = float(signed @ inner)
    tail = tables.totient(abs(h)) * _series_tail_constant(tables, g)
    return AlphaResult(
        h, value, "ramanujan_series", {"series_cutoff": n_max, "tail_bound": tail}
    )


def alpha_empirical(h: int, tables: SieveTables, n: int) -> AlphaResult:
    """Empirical form: (1/N) sum_{m <= N} Lambda(m) Lambda(m + |h|)."""
    h = _check_h(h, tables)
    n = int(n)
    ah = abs(h)
    if n < 1 or n + ah > tables.limit:
        raise ValueError("sample window exceeds sieve limit")
    lam = tables.von_mangoldt_table(n + ah)
    value = float(np.dot(lam[1 : n + 1], lam[1 + ah : n + ah + 1])) / n
    return AlphaResult(h, value, "empirical", {"sample_length": n})


@dataclass(frozen=True)
class SmoothedAverage:
    h: int
    average: float
    asymptote: float

    @property
    def deviation(self) -> float:
        return abs(self.average - self.asymptote)


def smoothed_average(h: int, tables: SieveTables, c2: TwinPrimeConstant) -> SmoothedAverage:
    """(1/2h) sum_{0 < |H| <= h} alpha(H), with the 1 - ln(h)/(2h) asymptote.

    alpha(-H) = alpha(H) makes the two-sided sum twice the one-sided one;
    H = 0 is excluded (alpha is undefined there).  The summand is the
    product form, accumulated with a divisor sieve over odd primes.
    """
    h = int(h)
    if h < 2:
        raise ValueError("average needs h >= 2")
    if h > tables.limit:
        raise ValueError("h exceeds sieve limit")
    fac = np.ones(h + 1, dtype=np.float64)
    for p in tables.primes[1 : np.searchsorted(tables.primes, h, side="right")]:
        fac[p::p] *= (p - 1.0) / (p - 2.0)
    avg = 2.0 * c2.value * float(np.sum(fac[2 : h + 1 : 2])) / h
    return SmoothedAverage(h, avg, 1.0 - math.log(h) / (2.0 * h))
