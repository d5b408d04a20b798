import math
import weakref

import numpy as np
import pytest

from zetapair.sieve import (
    _spf_array,
    build_sieve,
    load_sieve_cache,
    save_sieve_cache,
)


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


def test_prime_count_against_second_sieve(tables_1m):
    in_range = int(np.searchsorted(tables_1m.primes, 1_000_000, side="right"))
    assert in_range == eratosthenes_count(1_000_000) == 78498


def test_spf_matches_trial_division_at_every_small_limit():
    # every limit from 2 to 3000, so each prime square (4, 9, 25, 49, ...)
    # and the limit one below it are both covered
    ref = trial_division_spf(3000)
    for limit in range(2, 3001):
        spf = _spf_array(limit)
        assert spf.dtype == np.uint32
        assert np.array_equal(spf, ref[: limit + 1]), limit


def test_primes_match_boolean_sieve(tables_1m):
    flags = eratosthenes_flags(tables_1m.limit)
    assert np.array_equal(tables_1m.primes, np.flatnonzero(flags))
    assert tables_1m.primes.dtype == np.int64


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


def test_rising_requests_rebuild_a_table_once(monkeypatch):
    tables = build_sieve(5000)
    sizes = []
    build = tables._build_mangoldt

    def spy(n):
        sizes.append(n)
        return build(n)

    monkeypatch.setattr(tables, "_build_mangoldt", spy)
    for n in range(1000, 1100):
        assert len(tables.von_mangoldt_table(n)) == n + 1
    # a growing table doubles, capped at the sieve limit
    tables.von_mangoldt_table(3000)
    assert sizes == [1000, 2000, 4000]
    tables.von_mangoldt_table(4500)
    assert sizes == [1000, 2000, 4000, 5000]


def test_series_weight_table_values(tables_small):
    g = tables_small.series_weight_table(tables_small.limit)
    assert g.dtype == np.float64 and g[0] == 0.0
    for n in range(1, tables_small.limit + 1):
        assert g[n] == tables_small.mobius(n) / tables_small.totient(n) ** 2


class TestCache:
    def test_roundtrip(self, tmp_path):
        t = build_sieve(5000, cache_dir=tmp_path)
        assert (tmp_path / "sieve-5000.bin").is_file()
        t2 = build_sieve(5000, cache_dir=tmp_path)
        assert np.array_equal(t.spf, t2.spf)
        assert np.array_equal(t.primes, t2.primes)

    def test_file_holds_the_spf_and_loads_to_the_same_tables(self, tmp_path):
        # the body is the little-endian uint32 spf behind a 16-byte header,
        # so a file written from an independent spf loads to the same primes
        limit = 3000
        ref = trial_division_spf(limit)
        t = build_sieve(limit)
        raw = save_sieve_cache(t, tmp_path).read_bytes()
        assert raw[16:] == ref.astype("<u4").tobytes()
        loaded = load_sieve_cache(limit, tmp_path)
        assert np.array_equal(loaded.spf, ref)
        assert np.array_equal(loaded.primes, t.primes)
        assert np.array_equal(loaded.primes, np.flatnonzero(eratosthenes_flags(limit)))

    def test_header_mismatches_rejected(self, tmp_path):
        t = build_sieve(1000)
        path = save_sieve_cache(t, tmp_path)
        raw = bytearray(path.read_bytes())

        bad_magic = bytearray(raw)
        bad_magic[:4] = b"XXXX"
        path.write_bytes(bytes(bad_magic))
        assert load_sieve_cache(1000, tmp_path) is None

        bad_version = bytearray(raw)
        bad_version[4] = 99
        path.write_bytes(bytes(bad_version))
        assert load_sieve_cache(1000, tmp_path) is None

        path.write_bytes(bytes(raw[:-8]))  # truncated body
        assert load_sieve_cache(1000, tmp_path) is None

        path.write_bytes(bytes(raw))
        assert load_sieve_cache(999, tmp_path) is None  # limit mismatch
        assert load_sieve_cache(1000, tmp_path) is not None
