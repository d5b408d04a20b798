"""Smallest-prime-factor sieve and the multiplicative functions built on it.

One table serves everything: factorization, the Mobius and totient
functions, von Mangoldt weights and Ramanujan sums are all O(log n)
lookups against the spf array.  The sieve is segmented (Bays and Hudson):
it finishes one cache-sized segment of the table before it starts the
next.  In each, it takes the odd primes p <= sqrt(L) in descending order
and writes p over their odd multiples from max(p^2, segment start) with
no mask, so the smallest odd factor writes last; then the even entries
get 2, and every odd entry left at 0 is a prime, collected in the same
pass into the ascending prime list.

The bulk Mobius and totient tables come from the spf recurrence
f(k) = step(f(k / p), p = spf[k]), vectorized in doubling blocks; the
series weights mu(k) / phi(k)^2 are divided out of those two once per
sieve.  A ``SieveTables`` instance is immutable after construction and
safe to share across threads.  The lazily built bulk arrays
(``mobius_table`` etc.) are plain caches of pure functions: one that a
call outgrows is rebuilt at the size asked.  Every other value derived
from the sieve lives in ``SieveTables.memo``, one (key, value) pair per
named slot, so no other module keeps per-sieve state of its own.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

__all__ = ["SieveTables", "build_sieve"]

_RECURRENCE_BLOCK = 1 << 16
_SEGMENT = 1 << 18


class SieveTables:
    """Factorization oracle for the integers in [2, limit].

    Attributes:
        limit: largest integer covered.
        spf: uint32 array, spf[n] = smallest prime factor of n (spf[p] = p).
        primes: ascending int64 array of the primes <= limit; the primes up
            to a cutoff are ``primes_upto(n)``.
    """

    def __init__(self, limit: int, spf: np.ndarray, primes: np.ndarray):
        self.limit = int(limit)
        spf = np.ascontiguousarray(spf, dtype=np.uint32)
        spf.setflags(write=False)
        self.spf = spf
        primes = np.ascontiguousarray(primes, dtype=np.int64)
        primes.setflags(write=False)
        self.primes = primes
        self._bulk: dict = {}
        self._memo: dict = {}
        self._memo_lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover
        return f"SieveTables(limit={self.limit}, primes={len(self.primes)})"

    # -- scalar operations -------------------------------------------------

    def _check(self, n: int) -> int:
        n = operator.index(n)
        if n < 1 or n > self.limit:
            raise ValueError(f"n={n} outside sieve range [1, {self.limit}]")
        return n

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as ascending (prime, exponent) pairs."""
        n = self._check(n)
        out = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def von_mangoldt(self, n: int) -> float:
        """ln p if n is a prime power p^k (k >= 1), else 0."""
        factors = self.factorize(n)
        return math.log(factors[0][0]) if len(factors) == 1 else 0.0

    def mobius(self, n: int) -> int:
        factors = self.factorize(n)
        return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)

    def totient(self, n: int) -> int:
        return math.prod(p ** (e - 1) * (p - 1) for p, e in self.factorize(n))

    def ramanujan_sum(self, n: int, h: int) -> int:
        """c_n(h) via the Hoelder closed form mu(n/g) phi(n) / phi(n/g).

        g = gcd(n, |h|); the value is an exact integer.  c_n(0) = phi(n)
        by the gcd(n, 0) = n convention.
        """
        n = self._check(n)
        g = math.gcd(n, abs(operator.index(h)))
        m = n // g
        mu = self.mobius(m)
        if mu == 0:
            return 0
        phi_n = self.totient(n)
        phi_m = self.totient(m)
        return mu * (phi_n // phi_m)

    def primes_upto(self, n: int) -> np.ndarray:
        """The primes p <= n, a read-only view of ``primes``.

        n past the limit is an error: the primes above it are not known.
        """
        n = int(n)
        if n > self.limit:
            raise ValueError(f"primes up to {n} exceed the sieve limit {self.limit}")
        return self.primes[: np.searchsorted(self.primes, n, side="right")]

    def memo(self, slot: str, key, build):
        """The value of ``build()`` held in ``slot`` at ``key``.

        A slot holds one (key, value) pair for the life of the tables.  If
        the held key equals ``key`` the held value is returned; otherwise
        ``build()`` runs and its value replaces the pair.  Calls hold a
        reentrant lock per tables, so threads sharing the tables build a
        key once, and a build may read another slot.  ``build`` must be a
        pure function of the tables and the key, so a held value equals a
        fresh one and no answer depends on what ran before.
        """
        with self._memo_lock:
            held = self._memo.get(slot)
            if held is None or held[0] != key:
                held = self._memo[slot] = (key, build())
            return held[1]

    # -- bulk arrays (lazy, cached) ----------------------------------------

    def _cached(self, kind: str, n: int, builder):
        n = self._check(n)
        have = self._bulk.get(kind)
        if have is None or len(have) < n + 1:
            # free the shorter table first, so the two never coexist
            del have
            self._bulk.pop(kind, None)
            arr = builder(n)
            arr.setflags(write=False)
            have = self._bulk[kind] = arr
        return have[: n + 1]

    def mobius_table(self, n: int) -> np.ndarray:
        """int8 array mu[0..n] (mu[0] = 0)."""
        return self._cached("mobius", n, self._build_mobius)

    def totient_table(self, n: int) -> np.ndarray:
        """int64 array phi[0..n] (phi[0] = 0)."""
        return self._cached("totient", n, self._build_totient)

    def von_mangoldt_table(self, n: int) -> np.ndarray:
        """float64 array Lambda[0..n]."""
        return self._cached("mangoldt", n, self._build_mangoldt)

    def series_weight_table(self, n: int) -> np.ndarray:
        """float64 array g[0..n], g[k] = mu(k) / phi(k)^2 (g[0] = 0)."""
        return self._cached("series_weight", n, self._build_series_weight)

    def _spf_recurrence(self, n: int, dtype, step) -> np.ndarray:
        """A multiplicative table out[0..n] built from its spf recurrence.

        out[0] = 0, out[1] = 1 and, for k >= 2, with p = spf[k] and
        m = k // p, out[k] = step(out[m], p, spf[m] == p).  m <= k / 2, so
        every block [lo, hi) with hi <= 2 lo reads only finished entries;
        spf[1] = 0 makes primes (m = 1) the "p does not divide m" case.
        Blocks double up to a fixed size, which bounds the temporaries.
        """
        out = np.zeros(n + 1, dtype=dtype)
        out[1] = 1
        lo = 2
        while lo <= n:
            hi = min(2 * lo, lo + _RECURRENCE_BLOCK, n + 1)
            p = self.spf[lo:hi]
            m = np.arange(lo, hi, dtype=np.uint32) // p
            out[lo:hi] = step(out[m], p, self.spf[m] == p)
            lo = hi
        return out

    def _build_mobius(self, n: int) -> np.ndarray:
        # mu(k) = 0 if p^2 | k, else -mu(k / p)
        return self._spf_recurrence(
            n, np.int8, lambda mu_m, p, repeated: np.where(repeated, 0, -mu_m)
        )

    def _build_totient(self, n: int) -> np.ndarray:
        # phi(k) = phi(k / p) * (p if p | k / p else p - 1)
        return self._spf_recurrence(
            n, np.int64, lambda phi_m, p, repeated: phi_m * np.where(repeated, p, p - 1)
        )

    def _build_series_weight(self, n: int) -> np.ndarray:
        g = np.zeros(n + 1, dtype=np.float64)
        phi = self.totient_table(n)[1:].astype(np.float64)
        g[1:] = self.mobius_table(n)[1:] / phi**2
        return g

    def _build_mangoldt(self, n: int) -> np.ndarray:
        lam = np.zeros(n + 1, dtype=np.float64)
        ps = self.primes_upto(n)
        lam[ps] = np.log(ps)
        for p in self.primes_upto(math.isqrt(n)):
            p = int(p)
            q = p * p
            lp = math.log(p)
            while q <= n:
                lam[q] = lp
                q *= p
        return lam


def _spf_array(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """spf[0..limit] with spf[0] = spf[1] = 0, and the primes <= limit (>= 2).

    The odd primes p <= isqrt(limit) come from a sieve of that root.  Each
    segment of ``_SEGMENT`` entries is finished before the next: in
    descending order, each p with p^2 in reach writes p over its odd
    multiples from max(p^2, lo) with no mask, so the smallest odd prime
    factor of an odd composite writes last.  The even entries get 2, and an
    odd entry still 0 is a prime; the segment's primes are kept as a chunk.
    """
    root = math.isqrt(limit)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    odd = np.zeros(0, dtype=np.int64)
    if root >= 3:
        odd = _spf_array(root)[1][1:]
    chunks = [np.array([2], dtype=np.uint32)]
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = spf[lo:hi]
        ps = odd[odd <= math.isqrt(hi - 1)]
        # the first odd multiple of p at or past max(p^2, lo)
        first = -(-np.maximum(ps * ps, lo) // ps) * ps
        first += ps * (first % 2 == 0)
        first -= lo
        for p, at in zip(ps[::-1].tolist(), first[::-1].tolist()):
            seg[at :: 2 * p] = p
        even = max(lo + lo % 2, 2)
        seg[even - lo :: 2] = 2
        odd_lo = max(lo | 1, 3)
        rest = np.flatnonzero(seg[odd_lo - lo :: 2] == 0).astype(np.uint32)
        rest *= 2
        rest += odd_lo
        spf[rest] = rest
        chunks.append(rest)
    return spf, np.concatenate(chunks, dtype=np.int64)


def build_sieve(limit: int) -> SieveTables:
    """Sieve smallest prime factors up to ``limit`` (>= 2)."""
    limit = int(limit)
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    return SieveTables(limit, *_spf_array(limit))
