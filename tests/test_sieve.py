import gc
import math
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zetapair import sieve
from zetapair.sieve import _spf_array, build_sieve


def eratosthenes_flags(limit):
    """Independent boolean sieve: flags[k] is True exactly for the primes k."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def eratosthenes_count(limit):
    return int(eratosthenes_flags(limit).sum())


def trial_division_spf(limit):
    """spf[0..limit] by trial division, with spf[0] = spf[1] = 0."""
    spf = [0, 0]
    for k in range(2, limit + 1):
        d = 2
        while d * d <= k and k % d:
            d += 1
        spf.append(d if d * d <= k else k)
    return np.array(spf, dtype=np.uint32)


def brute_ramanujan(n, h):
    ls = np.array([l for l in range(1, n + 1) if math.gcd(l, n) == 1])
    return np.sum(np.exp(2j * np.pi * ls * h / n))


def test_small_prime_lists():
    assert list(build_sieve(10).primes) == [2, 3, 5, 7]
    assert list(build_sieve(2).primes) == [2]


def test_limit_below_two_rejected():
    with pytest.raises(ValueError):
        build_sieve(1)


def test_primes_upto(tables_small):
    ps = tables_small.primes
    for n in (-3, 0, 1, 2, 3, 4, 97, 100, 9_973, 10_000):
        assert np.array_equal(tables_small.primes_upto(n), ps[ps <= n])
    assert not tables_small.primes_upto(100).flags.writeable
    with pytest.raises(ValueError, match="primes up to 10001 exceed the sieve limit 10000"):
        tables_small.primes_upto(10_001)


def test_prime_count_against_second_sieve(tables_1m):
    in_range = int(np.searchsorted(tables_1m.primes, 1_000_000, side="right"))
    assert in_range == eratosthenes_count(1_000_000) == 78498


def test_prime_count_to_ten_million(tables_big):
    assert int(np.searchsorted(tables_big.primes, 10_000_000, side="right")) == 664_579


def test_spf_matches_trial_division_at_every_small_limit():
    # every limit from 2 to 3000, so each prime square (4, 9, 25, 49, ...)
    # and the limit one below it are both covered
    ref = trial_division_spf(3000)
    ref_primes = np.flatnonzero(eratosthenes_flags(3000))
    for limit in range(2, 3001):
        spf, primes = _spf_array(limit)
        assert spf.dtype == np.uint32
        assert np.array_equal(spf, ref[: limit + 1]), limit
        assert primes.dtype == np.int64
        assert np.array_equal(primes, ref_primes[ref_primes <= limit]), limit


def test_primes_match_boolean_sieve(tables_1m):
    flags = eratosthenes_flags(tables_1m.limit)
    assert np.array_equal(tables_1m.primes, np.flatnonzero(flags))
    assert tables_1m.primes.dtype == np.int64


@pytest.mark.parametrize("limit", [2, 3, 96, 97, 98, 3000])
def test_primes_filled_per_block_match_boolean_sieve(monkeypatch, limit):
    # small segments put many segment edges, and primes and prime squares
    # on them, below the limit
    flags = eratosthenes_flags(limit)
    ref = trial_division_spf(limit)
    for segment in (6, 7, 64):
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        tables = build_sieve(limit)
        assert np.array_equal(tables.primes, np.flatnonzero(flags)), segment
        assert tables.primes.dtype == np.int64
        assert np.array_equal(tables.spf, ref), segment


@pytest.mark.parametrize("segment, top", [(6, 600), (7, 600), (64, 3000)])
def test_segments_at_every_small_limit(monkeypatch, segment, top):
    # the last segment is cut at each limit in turn; a segment of 6 or 7
    # costs ~30 us, so those two stop at 600 (prime squares to 23^2)
    monkeypatch.setattr(sieve, "_SEGMENT", segment)
    ref = trial_division_spf(top)
    ref_primes = np.flatnonzero(eratosthenes_flags(top))
    for limit in range(2, top + 1):
        spf, primes = _spf_array(limit)
        assert np.array_equal(spf, ref[: limit + 1]), limit
        assert np.array_equal(primes, ref_primes[ref_primes <= limit]), limit


def test_spf_invariants(tables_small):
    spf = tables_small.spf
    n = np.arange(2, tables_small.limit + 1)
    assert np.all(n % spf[2:] == 0)
    # spf values are themselves primes
    assert np.all(spf[spf[2:]] == spf[2:])
    # spf[p] = p exactly on the prime list
    fixed = np.nonzero(spf[2:] == n)[0] + 2
    assert np.array_equal(fixed, tables_small.primes)


def test_von_mangoldt_values(tables_small):
    assert tables_small.von_mangoldt(8) == pytest.approx(math.log(2), abs=1e-15)
    assert tables_small.von_mangoldt(12) == 0.0
    assert tables_small.von_mangoldt(1) == 0.0
    with pytest.raises(ValueError):
        tables_small.von_mangoldt(tables_small.limit + 1)


def test_mobius_values(tables_small):
    assert tables_small.mobius(1) == 1
    assert tables_small.mobius(4) == 0
    assert tables_small.mobius(30) == -1


def test_totient_values(tables_small):
    assert tables_small.totient(1) == 1
    for p in (2, 3, 97):
        assert tables_small.totient(p) == p - 1
    brute = sum(1 for k in range(1, 361) if math.gcd(k, 360) == 1)
    assert tables_small.totient(360) == brute == 96


def test_factorize(tables_small):
    assert tables_small.factorize(1) == []
    assert tables_small.factorize(12) == [(2, 2), (3, 1)]
    assert tables_small.factorize(2 * 3 * 5 * 7 * 11) == [
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1)
    ]


def test_ramanujan_prime_divisor_cases(tables_small):
    for p in (3, 5, 11):
        assert tables_small.ramanujan_sum(p, 2 * p) == p - 1
        assert tables_small.ramanujan_sum(p, 1) == -1
    assert tables_small.ramanujan_sum(1, 7) == 1
    # brute force gives -2 here (not 0): mu(4/2) phi(4) / phi(2) = -2
    assert tables_small.ramanujan_sum(4, 2) == -2
    assert brute_ramanujan(4, 2) == pytest.approx(-2, abs=1e-12)


def test_ramanujan_h_zero_convention(tables_small):
    for n in (1, 6, 90):
        assert tables_small.ramanujan_sum(n, 0) == tables_small.totient(n)


def test_ramanujan_closed_form_vs_brute_force(tables_small):
    for n in range(1, 201):
        ls = np.array([l for l in range(1, n + 1) if math.gcd(l, n) == 1])
        hs = np.arange(-200, 201)
        brute = np.exp(2j * np.pi * np.outer(hs, ls) / n).sum(axis=1)
        closed = np.array([tables_small.ramanujan_sum(n, int(h)) for h in hs])
        assert np.max(np.abs(brute - closed)) < 1e-9
        assert np.max(np.abs(brute.imag)) < 1e-9


def test_multiplicativity_on_random_coprime_pairs(tables_big):
    rng = np.random.default_rng(42)
    done = 0
    while done < 300:
        m = int(rng.integers(2, 10_000))
        n = int(rng.integers(2, 10_000))
        if math.gcd(m, n) != 1 or m * n > tables_big.limit:
            continue
        assert tables_big.mobius(m * n) == tables_big.mobius(m) * tables_big.mobius(n)
        assert tables_big.totient(m * n) == tables_big.totient(m) * tables_big.totient(n)
        done += 1


def test_ramanujan_multiplicative_exhaustive(tables_small):
    for m in range(1, 61):
        for n in range(1, 61):
            if math.gcd(m, n) != 1:
                continue
            for l in (1, 2, 3, 7, 30):
                assert (
                    tables_small.ramanujan_sum(m, l) * tables_small.ramanujan_sum(n, l)
                    == tables_small.ramanujan_sum(m * n, l)
                )


def test_mobius_indicator_exhaustive(tables_big):
    n_max = 10_000
    mu = tables_big.mobius_table(n_max).astype(np.int64)
    acc = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert np.all(acc[2:] == 0)


def test_chebyshev_sum_near_limit(tables_big):
    lam = tables_big.von_mangoldt_table(10_000_000)
    ratio = float(lam.sum()) / 1e7
    assert 0.95 <= ratio <= 1.05


def test_bulk_tables_match_scalars(tables_small):
    n_max = tables_small.limit
    mu = tables_small.mobius_table(n_max)
    phi = tables_small.totient_table(n_max)
    lam = tables_small.von_mangoldt_table(n_max)
    for n in range(1, n_max + 1):
        assert mu[n] == tables_small.mobius(n)
        assert phi[n] == tables_small.totient(n)
        assert lam[n] == pytest.approx(tables_small.von_mangoldt(n), abs=1e-15)


def test_bulk_tables_match_scalars_at_scale(tables_big):
    n_max = tables_big.limit
    mu = tables_big.mobius_table(n_max)
    phi = tables_big.totient_table(n_max)
    assert (mu.dtype, phi.dtype) == (np.int8, np.int64)
    rng = np.random.default_rng(2024)
    ns = [int(n) for n in rng.integers(1, n_max + 1, 2000)]
    for n in ns + list(range(n_max - 99, n_max + 1)):
        assert mu[n] == tables_big.mobius(n)
        assert phi[n] == tables_big.totient(n)


def test_totient_divisor_sum_exhaustive(tables_1m):
    # sum_{d | n} phi(d) = n exactly
    n_max = 100_000
    phi = tables_1m.totient_table(n_max)
    acc = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        acc[d::d] += phi[d]
    assert np.array_equal(acc[1:], np.arange(1, n_max + 1))


def test_bulk_tables_grow_on_demand():
    tables = build_sieve(5000)
    assert len(tables.totient_table(100)) == 101
    assert len(tables.mobius_table(100)) == 101
    phi = tables.totient_table(5000)
    mu = tables.mobius_table(5000)
    assert len(phi) == len(mu) == 5001
    assert phi[0] == mu[0] == 0
    for n in range(1, 5001):
        assert phi[n] == tables.totient(n)
        assert mu[n] == tables.mobius(n)
    assert np.array_equal(tables.totient_table(100), phi[:101])


def test_growing_a_table_frees_the_shorter_one_first(monkeypatch):
    # two tables of ~1e7 entries side by side set the peak memory of a run
    tables = build_sieve(5000)
    short = weakref.ref(tables.von_mangoldt_table(100).base)
    freed = []
    build = tables._build_mangoldt

    def spy(n):
        freed.append(short() is None)
        return build(n)

    monkeypatch.setattr(tables, "_build_mangoldt", spy)
    assert len(tables.von_mangoldt_table(5000)) == 5001
    assert freed == [True]


def test_outgrown_table_is_rebuilt_at_the_size_asked(monkeypatch):
    tables = build_sieve(5000)
    sizes = []
    build = tables._build_mangoldt

    def spy(n):
        sizes.append(n)
        return build(n)

    monkeypatch.setattr(tables, "_build_mangoldt", spy)
    for n in (1000, 1001, 3000):
        assert len(tables.von_mangoldt_table(n)) == n + 1
    assert sizes == [1000, 1001, 3000]
    # a request within the held size slices it and builds nothing
    for n in (1, 1001, 2999, 3000):
        assert len(tables.von_mangoldt_table(n)) == n + 1
    assert sizes == [1000, 1001, 3000]


class TestMemo:
    def test_one_key_per_slot(self):
        tables = build_sieve(100)
        builds = []

        def build(value):
            builds.append(value)
            return [value]

        first = tables.memo("a", 1, lambda: build("a1"))
        assert tables.memo("a", 1, lambda: build("again")) is first
        # slots are independent
        assert tables.memo("b", 1, lambda: build("b1")) == ["b1"]
        assert tables.memo("a", 1, lambda: build("again")) is first
        # a different key rebuilds and replaces the pair
        assert tables.memo("a", 2, lambda: build("a2")) == ["a2"]
        assert tables.memo("a", 1, lambda: build("a1 again")) == ["a1 again"]
        assert builds == ["a1", "b1", "a2", "a1 again"]

    def test_failed_build_keeps_the_held_pair(self):
        tables = build_sieve(100)
        held = tables.memo("a", 1, lambda: [1])

        def fail():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            tables.memo("a", 2, fail)
        assert tables.memo("a", 1, fail) is held

    def test_threads_build_a_key_once(self):
        tables = build_sieve(100)
        builds = []

        def build():
            builds.append(None)
            time.sleep(1e-3)  # holds the window where an unlocked check-then-set races
            return object()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(tables.memo, "a", 1, build) for _ in range(16)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 1
        assert all(value is got[0] for value in got)

    def test_held_value_dies_with_its_tables(self):
        class Value:
            pass

        tables = build_sieve(100)
        held = weakref.ref(tables.memo("a", 1, Value))
        assert held() is not None
        del tables
        gc.collect()
        assert held() is None


@pytest.mark.parametrize("bad", [2.5, np.float64(4.0)])
def test_non_integral_arguments_raise(tables_small, bad):
    # int() truncated them: factorize(12.9) was the factorization of 12
    for call in (tables_small.factorize, tables_small.mobius, tables_small.mobius_table,
                 lambda n: tables_small.ramanujan_sum(6, n)):
        with pytest.raises(TypeError):
            call(bad)


def test_numpy_integers_accepted(tables_small):
    assert tables_small.factorize(np.int64(12)) == [(2, 2), (3, 1)]
    assert tables_small.ramanujan_sum(np.int64(6), np.int64(4)) == tables_small.ramanujan_sum(6, 4)


def test_series_weight_table_values(tables_small):
    g = tables_small.series_weight_table(tables_small.limit)
    assert g.dtype == np.float64 and g[0] == 0.0
    for n in range(1, tables_small.limit + 1):
        assert g[n] == tables_small.mobius(n) / tables_small.totient(n) ** 2
