"""Prime sieve and the multiplicative functions built on it.

``build_sieve(L)`` sieves primality only: an odd-only bool bitmap (one byte
per odd number, L / 2 bytes) and the ascending prime list.  The sieve is
segmented (Bays and Hudson): it finishes one cache-sized segment of the
bitmap before it starts the next, clearing in each the odd multiples of
every odd prime p <= sqrt(L) from max(p^2, segment start), and collects
the entries left set into the prime list in the same pass.  The primes,
the twin prime constant, the smoothed average and the empirical pair sums
need nothing more.

Factorization, the Mobius and totient functions, von Mangoldt weights and
Ramanujan sums are O(log n) lookups against a smallest-prime-factor (spf)
table, which ``SieveTables`` builds on demand, only as far as it is asked.
The bulk Mobius and totient tables come from the spf recurrence
f(k) = step(f(k / p), p = spf[k]), vectorized in doubling blocks; the
series weights mu(k) / phi(k)^2 are divided out of those two once per
sieve.  A ``SieveTables`` instance is safe to share across threads: every
derived value is a plain cache of a pure function, so a table rebuilt or
read by another thread holds the same values.  The derived arrays (spf and
the bulk tables) live in one store that rebuilds a table a call outgrows;
every other value derived from the sieve lives in ``SieveTables.memo``, one
(key, value) pair per named slot, so no other module keeps per-sieve state
of its own.
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
    """Primality and factorization oracle for the integers in [2, limit].

    Attributes:
        limit: largest integer covered.
        bitmap: read-only bool array of ``limit // 2 + 1`` entries;
            ``bitmap[n >> 1]`` tells whether an odd n <= limit is prime
            (entry i stands for 2 i + 1, and no entry past the limit is set).
        primes: ascending int64 array of the primes <= limit; the primes up
            to a cutoff are ``primes_upto(n)``.

    Derived arrays are built on first use and kept in one store, under two
    growth rules fitted to their traffic:

    * The spf table, read by ``factorize`` (and so ``mobius``, ``totient``
      and ``ramanujan_sum``) and by the bulk tables' recurrence.  The scalar
      calls come at rising n: ``alpha_product`` and the closure check over
      h = 1..100, a CLI list of shifts.  Rebuilt at the size asked, such a
      run would re-sieve at each new maximum, so an outgrown spf is rebuilt
      at max(n, twice its size), capped at the limit: O(log n) builds, to
      at most twice the largest n asked for.  The series cutoff (1e6) asks
      first on the prime side, so the 1e7 sieve builds spf once, to 1e6.
    * The bulk tables (``mobius_table``, ``totient_table``,
      ``series_weight_table``, ``von_mangoldt_table``), asked for at one n
      per job: the series cutoff, or one bound of an identity check.  A
      table that a call outgrows is rebuilt at the size asked, so none
      holds more than a call has read.
    """

    def __init__(self, limit: int, bitmap: np.ndarray, primes: np.ndarray):
        self.limit = int(limit)
        dtype = getattr(bitmap, "dtype", None)
        if not isinstance(bitmap, np.ndarray) or dtype != np.bool_:
            raise TypeError(f"bitmap must be a numpy bool array, got dtype {dtype}")
        if bitmap.shape != (self.limit // 2 + 1,):
            raise ValueError(f"bitmap of shape {bitmap.shape} does not fit limit {self.limit}: "
                             f"it needs {self.limit // 2 + 1} entries")
        bitmap = np.ascontiguousarray(bitmap)
        bitmap.setflags(write=False)
        self.bitmap = bitmap
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
        spf = self._spf_table(n)
        out = []
        while n > 1:
            p = int(spf[n])
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

    def _cached(self, kind: str, n: int, builder, doubling: bool = False):
        """builder(m)[: n + 1] for the held m >= n, built when none is held.

        An outgrown table is rebuilt at m = n, or with ``doubling`` at
        max(n, twice the held size) up to the limit (see the class docstring).
        """
        n = self._check(n)
        have = self._bulk.get(kind)
        if have is None or len(have) < n + 1:
            size = n
            if doubling and have is not None:
                size = min(self.limit, max(n, 2 * (len(have) - 1)))
            # free the shorter table first, so the two never coexist
            del have
            self._bulk.pop(kind, None)
            arr = builder(size)
            arr.setflags(write=False)
            have = self._bulk[kind] = arr
        return have[: n + 1]

    def _spf_table(self, n: int) -> np.ndarray:
        """uint32 array spf[0..n] of smallest prime factors (spf[0] = spf[1] = 0)."""
        return self._cached("spf", n, lambda m: _spf_array(m)[0], doubling=True)

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
        spf = self._spf_table(n)
        out = np.zeros(n + 1, dtype=dtype)
        out[1] = 1
        lo = 2
        while lo <= n:
            hi = min(2 * lo, lo + _RECURRENCE_BLOCK, n + 1)
            p = spf[lo:hi]
            m = np.arange(lo, hi, dtype=np.uint32) // p
            out[lo:hi] = step(out[m], p, spf[m] == p)
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
        # mu / phi^2 formed in the one float64 output; g[0] = phi(0)^2 = 0
        g = self.totient_table(n).astype(np.float64)
        np.square(g, out=g)
        np.divide(self.mobius_table(n)[1:], g[1:], out=g[1:])
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

    The odd primes p <= isqrt(limit) come from the bitmap sieve of that
    root.  Each segment of ``_SEGMENT`` entries is finished before the
    next: in descending order, each p with p^2 in reach writes p over its
    odd multiples from max(p^2, lo) with no mask, so the smallest odd prime
    factor of an odd composite writes last.  The even entries get 2, and an
    odd entry still 0 is a prime; the segment's primes are kept as a chunk.
    """
    root = math.isqrt(limit)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    odd = np.zeros(0, dtype=np.int64)
    if root >= 3:
        odd = _prime_bitmap(root)[1][1:]
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


def _prime_bitmap(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``SieveTables.bitmap`` of ``limit`` and the primes <= limit (>= 2).

    Entry i stands for 2 i + 1.  The odd primes p <= isqrt(limit) come from a
    sieve of that root.  Each segment of ``_SEGMENT`` entries is finished
    before the next: each p with p^2 in reach clears every p-th entry, the
    odd multiples of p, from the first at or past max(p^2, lo), and the
    entries still set are the segment's primes, kept as a chunk.
    """
    size = limit // 2 + 1
    bitmap = np.ones(size, dtype=bool)
    bitmap[0] = False
    if limit % 2 == 0:
        bitmap[-1] = False  # limit + 1
    root = math.isqrt(limit)
    odd = np.zeros(0, dtype=np.int64)
    if root >= 3:
        odd = _prime_bitmap(root)[1][1:]
    chunks = [np.array([2], dtype=np.int64)]
    for lo in range(0, size, _SEGMENT):
        hi = min(lo + _SEGMENT, size)
        seg = bitmap[lo:hi]
        ps = odd[odd * odd <= 2 * hi - 1]
        # the entry of p^2, moved on by whole steps of p to lo or past it
        first = ps * ps // 2
        first += -(-np.maximum(lo - first, 0) // ps) * ps
        first -= lo
        for p, at in zip(ps.tolist(), first.tolist()):
            seg[at::p] = False
        rest = np.flatnonzero(seg)
        rest *= 2
        rest += 2 * lo + 1
        chunks.append(rest)
    return bitmap, np.concatenate(chunks, dtype=np.int64)


def build_sieve(limit: int) -> SieveTables:
    """Sieve the primes up to ``limit`` (>= 2); factor tables follow on demand."""
    limit = int(limit)
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    return SieveTables(limit, *_prime_bitmap(limit))
