"""The prime-pair singular series alpha(h) in three independent forms.

alpha(h) is the density constant for weighted prime pairs at shift h:
2 C2 prod_{p | h, p > 2} (p-1)/(p-2) for even h and 0 for odd h, where C2
is the twin prime constant.  Besides that product form this module
evaluates the Ramanujan-sum series sum (mu(n)/phi(n))^2 c_n(h) and the
direct empirical average of von Mangoldt pair products, so the three can
be played against each other in tests.  The empirical average sums over
the pairs of prime powers only, which it finds with the sieve's primality
bitmap; it forms no length-N von Mangoldt array and needs no factor table.

h = 0 is rejected everywhere: the h = 0 pair sum measures sum Lambda^2,
which grows faster than the h != 0 normalization.
"""

from __future__ import annotations

import math
import operator
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
    value: float
    method: str  # product | ramanujan_series | empirical
    truncation: dict = field(default_factory=dict)


def twin_prime_constant(prime_cutoff: int, tables: SieveTables) -> TwinPrimeConstant:
    p_max = int(prime_cutoff)
    if p_max < 3:
        raise ValueError("prime cutoff must be >= 3")
    # log1p(-1 / (p - 1)^2) in place: one float copy of the primes, 5 MB at 1e7
    x = tables.primes_upto(p_max)[1:].astype(np.float64)
    x -= 1.0
    x *= x
    np.divide(-1.0, x, out=x)
    log_c2 = float(np.sum(np.log1p(x, out=x)))
    # |sum_{p > P} log(1 - (p-1)^-2)| <= ~ sum_{p > P} 1.1 p^-2 ~ 1.1/(P ln P);
    # doubled for slack in the prime-count approximation
    tail = 2.2 / (p_max * math.log(p_max))
    return TwinPrimeConstant(math.exp(log_c2), p_max, tail)


def _check_h(h: int, tables: SieveTables) -> int:
    h = operator.index(h)
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
        return AlphaResult(0.0, "product", trunc)
    value = 2.0 * c2.value
    for p, _ in tables.factorize(abs(h)):
        if p > 2:
            value *= (p - 1) / (p - 2)
    return AlphaResult(value, "product", trunc)


def _series_tail_constant(tables: SieveTables, n_max: int) -> float:
    """An upper bound on sum_{n > n_max} mu(n)^2 / phi(n)^2.

    The full sum is prod_p (1 + (p-1)^-2); the bound is that product minus
    the partial sum up to n_max.  The product is taken over the primes up
    to L = max(n_max, 2); for the rest, ln(1 + x) <= x and
    pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld 1962) give by partial
    summation

        sum_{p > L} (p-1)^-2 <= (2.51012 / ln L) (1/(L-1) + 1/(2 (L-1)^2)),

    so the bound depends on n_max alone, not on the sieve's limit.  The
    tables hold it in ``memo`` slot "series_tail", keyed by n_max, so the
    shifts of one cutoff take the prime sum and the |g| sum once.
    """

    def build() -> float:
        lim = max(n_max, 2)
        ps = tables.primes_upto(lim).astype(np.float64)
        total_log = float(np.sum(np.log1p(1.0 / (ps - 1.0) ** 2)))
        total_log += 2.51012 / math.log(lim) * (1.0 / (lim - 1) + 0.5 / (lim - 1) ** 2)
        weight_sum = float(np.sum(np.abs(tables.series_weight_table(n_max)[1:])))
        return max(math.exp(total_log) - weight_sum, 0.0)

    return tables.memo("series_tail", n_max, build)


def alpha_ramanujan(h: int, tables: SieveTables, n_max: int) -> AlphaResult:
    """Series form: sum_{n <= n_max} (mu(n)/phi(n))^2 c_n(h).

    Evaluated as a divisor sum.  With c_n(h) = sum_{d | (n, h)} d mu(n/d)
    and g(n) = mu(n) / phi(n)^2, only squarefree n and hence squarefree d
    contribute, and mu(n/d) = mu(n) mu(d) turns the series into

        S(h) = sum_{d | rad(h)} d mu(d) sum_{k <= n_max, d | k} g(k),

    one strided sum G(d) of g per squarefree divisor d of h (empty for
    d > n_max).  The tables hold the G(d) taken so far in ``memo`` slot
    "series_divisor_sums", keyed by n_max, so the shifts of one cutoff sum
    each distinct d once (h = 1..30 need 89 sums of 19 distinct d); each h
    still reduces its own products, so a value does not depend on the shifts
    asked before it.  The tail bound phi(|h|) sum_{n > n_max} mu(n)^2 / phi(n)^2
    holds since |c_n(h)| = phi(gcd(n, h)) <= phi(|h|) for squarefree n.
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
    sums = tables.memo("series_divisor_sums", n_max, dict)  # d -> G(d)
    divisors = np.abs(signed).tolist()
    for d in divisors:
        if d not in sums:
            sums[d] = g[d - 1 :: d].sum()
    inner = np.array([sums[d] for d in divisors])
    # a numpy sum, not a BLAS dot, whose bits would follow the thread count
    value = float(np.sum(signed * inner))
    tail = tables.totient(abs(h)) * _series_tail_constant(tables, n_max)
    return AlphaResult(value, "ramanujan_series", {"series_cutoff": n_max, "tail_bound": tail})


def alpha_empirical(h: int, tables: SieveTables, n: int) -> AlphaResult:
    """Empirical form: (1/N) sum_{m <= N} Lambda(m) Lambda(m + |h|).

    A term is nonzero only where m and m + |h| are both prime powers, so the
    sum runs over those pairs and forms no length-N array.  The prime pairs
    come from one gather of the primality bitmap at p + |h| over the primes
    p <= N for which p + |h| is odd: the odd p for even |h|, and p = 2 for
    odd |h|.  The pairs with a higher power p^k, k >= 2, come from the short
    list of those powers up to N + |h| (555 of them up to 1e7 + 30): each
    q <= N with its partner q + |h|, and each q with its prime partner
    q - |h| in [1, N], so every pair is counted once.
    """
    h = _check_h(h, tables)
    n = operator.index(n)
    ah = abs(h)
    if n < 1:
        raise ValueError(f"sample length must be >= 1, got {n}")
    if n + ah > tables.limit:
        raise ValueError("sample window exceeds sieve limit")
    bitmap = tables.bitmap

    def is_prime(r: int) -> bool:
        return r == 2 or (r % 2 == 1 and bool(bitmap[r >> 1]))

    ps = tables.primes_upto(n)
    ps = ps[:1] if ah % 2 else ps[1:]
    at = ps + ah
    at >>= 1
    p_hit = ps[np.flatnonzero(bitmap[at])]
    # a numpy sum, not a BLAS dot, whose bits would follow the thread count
    value = float(np.sum(np.log(p_hit) * np.log(p_hit + ah)))
    top = n + ah
    powers = {}  # p^k -> ln p for k >= 2 and p^k <= n + |h|
    for p in tables.primes_upto(math.isqrt(top)).tolist():
        q, lp = p * p, math.log(p)
        while q <= top:
            powers[q] = lp
            q *= p
    for q, lp in powers.items():
        r = q + ah
        if q <= n:
            if r in powers:
                value += lp * powers[r]
            elif is_prime(r):
                value += lp * math.log(r)
        r = q - ah
        if r > 1 and is_prime(r):
            value += lp * math.log(r)
    return AlphaResult(value / n, "empirical", {"sample_length": n})


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
    h = operator.index(h)
    if h < 2:
        raise ValueError("average needs h >= 2")
    odd_primes = tables.primes_upto(h)[1:]
    fac = np.ones(h + 1, dtype=np.float64)
    for p in odd_primes:
        fac[p::p] *= (p - 1.0) / (p - 2.0)
    avg = 2.0 * c2.value * float(np.sum(fac[2 : h + 1 : 2])) / h
    return SmoothedAverage(h, avg, 1.0 - math.log(h) / (2.0 * h))
