"""Smallest-prime-factor sieve and the multiplicative functions built on it.

One table serves everything: factorization, the Mobius and totient
functions, von Mangoldt weights and Ramanujan sums are all O(log n)
lookups against the spf array.  The bulk Mobius and totient tables come
from the spf recurrence f(k) = step(f(k / p), p = spf[k]), vectorized in
doubling blocks.  A ``SieveTables`` instance is immutable after
construction and safe to share across threads; the lazily built bulk
arrays (``mobius_table`` etc.) and the prime sum
``log_mu2_phi2_product`` are plain caches of pure functions.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "SieveTables",
    "build_sieve",
    "load_sieve_cache",
    "save_sieve_cache",
]

_CACHE_MAGIC = b"ZPD1"
_CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version u32, limit u64 -> 16 bytes
_RECURRENCE_BLOCK = 1 << 16


class SieveTables:
    """Factorization oracle for the integers in [2, limit].

    Attributes:
        limit: largest integer covered.
        spf: uint32 array, spf[n] = smallest prime factor of n (spf[p] = p).
        primes: ascending int64 array of the primes <= limit.
    """

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = int(limit)
        spf = np.ascontiguousarray(spf, dtype=np.uint32)
        spf.setflags(write=False)
        self.spf = spf
        idx = np.arange(self.limit + 1, dtype=np.uint32)
        primes = np.nonzero(spf[2:] == idx[2:])[0].astype(np.int64) + 2
        primes.setflags(write=False)
        self.primes = primes
        self._bulk: dict = {}
        self._log_mu2_phi2: float | None = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"SieveTables(limit={self.limit}, primes={len(self.primes)})"

    # -- scalar operations -------------------------------------------------

    def _check(self, n: int) -> int:
        n = int(n)
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
        n = self._check(n)
        if n == 1:
            return 0.0
        p = int(self.spf[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def mobius(self, n: int) -> int:
        n = self._check(n)
        m = 1
        while n > 1:
            p = int(self.spf[n])
            n //= p
            if n % p == 0:
                return 0
            m = -m
        return m

    def totient(self, n: int) -> int:
        n = self._check(n)
        t = 1
        while n > 1:
            p = int(self.spf[n])
            n //= p
            t *= p - 1
            while n % p == 0:
                n //= p
                t *= p
        return t

    def ramanujan_sum(self, n: int, h: int) -> int:
        """c_n(h) via the Hoelder closed form mu(n/g) phi(n) / phi(n/g).

        g = gcd(n, |h|); the value is an exact integer.  c_n(0) = phi(n)
        by the gcd(n, 0) = n convention.
        """
        n = self._check(n)
        g = math.gcd(n, abs(int(h)))
        m = n // g
        mu = self.mobius(m)
        if mu == 0:
            return 0
        phi_n = self.totient(n)
        phi_m = self.totient(m)
        return mu * (phi_n // phi_m)

    def log_mu2_phi2_product(self) -> float:
        """ln prod_{p <= limit} (1 + (p-1)^-2), computed once per instance.

        The product is the Euler product of sum mu(n)^2 / phi(n)^2 over the
        sieve's primes.
        """
        if self._log_mu2_phi2 is None:
            self._log_mu2_phi2 = float(
                np.sum(np.log1p(1.0 / (self.primes.astype(np.float64) - 1.0) ** 2))
            )
        return self._log_mu2_phi2

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
            self._bulk[kind] = arr
            have = arr
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

    def _primes_upto(self, n: int) -> np.ndarray:
        return self.primes[: np.searchsorted(self.primes, n, side="right")]

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

    def _build_mangoldt(self, n: int) -> np.ndarray:
        lam = np.zeros(n + 1, dtype=np.float64)
        ps = self._primes_upto(n)
        lam[ps] = np.log(ps)
        for p in self._primes_upto(math.isqrt(n)):
            p = int(p)
            q = p * p
            lp = math.log(p)
            while q <= n:
                lam[q] = lp
                q *= p
        return lam


def _spf_array(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest.astype(np.uint32)
    return spf


def build_sieve(limit: int, cache_dir: str | os.PathLike | None = None) -> SieveTables:
    """Sieve smallest prime factors up to ``limit`` (>= 2).

    When ``cache_dir`` is given, a matching spf cache file is loaded if
    present and a fresh sieve is written back otherwise.
    """
    limit = int(limit)
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if cache_dir is not None:
        cached = load_sieve_cache(limit, cache_dir)
        if cached is not None:
            return cached
    tables = SieveTables(limit, _spf_array(limit))
    if cache_dir is not None:
        save_sieve_cache(tables, cache_dir)
    return tables


def _cache_path(limit: int, cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / f"sieve-{limit}.bin"


def save_sieve_cache(tables: SieveTables, cache_dir: str | os.PathLike) -> Path:
    """Write the spf array with a 16-byte (magic, version, limit) header."""
    path = _cache_path(tables.limit, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, tables.limit))
        fh.write(tables.spf.astype("<u4", copy=False).tobytes())
    return path


def load_sieve_cache(limit: int, cache_dir: str | os.PathLike) -> SieveTables | None:
    """Load a cached sieve; returns None unless the header matches exactly."""
    path = _cache_path(limit, cache_dir)
    if not path.is_file():
        return None
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        return None
    magic, version, lim = _HEADER.unpack_from(raw)
    if magic != _CACHE_MAGIC or version != _CACHE_VERSION or lim != limit:
        return None
    body = raw[_HEADER.size :]
    if len(body) != 4 * (limit + 1):
        return None
    spf = np.frombuffer(body, dtype="<u4")
    return SieveTables(limit, spf)
