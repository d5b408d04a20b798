import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetapair.sieve import SieveTables, build_sieve
from zetapair.singular import (
    alpha_empirical,
    alpha_product,
    alpha_ramanujan,
    smoothed_average,
    twin_prime_constant,
)


def per_call_tail_constant(tables, g):
    """The series tail constant with the prime sum and the |g| sum taken in the call.

    g holds the weights up to the cutoff n_max, and the prime product runs to
    max(n_max, 2).
    """
    lim = max(len(g), 2)
    ps = tables.primes_upto(lim).astype(np.float64)
    total = float(np.sum(np.log1p(1.0 / (ps - 1.0) ** 2)))
    total += 2.51012 / math.log(lim) * (1.0 / (lim - 1) + 0.5 / (lim - 1) ** 2)
    return max(math.exp(total) - float(np.sum(np.abs(g))), 0.0)


def dense_empirical(h, tables, n):
    """The empirical average as the dot product over the von Mangoldt table."""
    ah = abs(h)
    lam = tables.von_mangoldt_table(n + ah)
    return float(np.dot(lam[1 : n + 1], lam[1 + ah : n + ah + 1])) / n


class TestTwinPrimeConstant:
    def test_single_factor(self, tables_small):
        assert twin_prime_constant(3, tables_small).value == pytest.approx(0.75)

    def test_monotone_decreasing_in_cutoff(self, tables_small):
        vals = [twin_prime_constant(p, tables_small).value for p in (5, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_invariant(self, tables_small):
        for p in (100, 1000, 10_000):
            assert 0.6 < twin_prime_constant(p, tables_small).value < 0.7

    def test_seven_digits(self, c2_ref):
        assert f"{c2_ref.value:.7f}" == "0.6601618"

    def test_tail_bound_brackets_truth(self, tables_big, c2_ref):
        # value(P)*exp(tail) must bracket the more converged value
        mid = twin_prime_constant(100_000, tables_big)
        assert mid.value >= c2_ref.value
        assert mid.value * math.exp(-mid.tail_log_bound) <= c2_ref.value

    def test_rejects_tiny_cutoff(self, tables_small):
        with pytest.raises(ValueError):
            twin_prime_constant(2, tables_small)

    def test_rejects_cutoff_past_the_sieve(self, tables_small):
        with pytest.raises(ValueError, match="sieve limit 10000"):
            twin_prime_constant(10_001, tables_small)


class TestAlphaProduct:
    def test_odd_is_zero(self, tables_small, c2_ref):
        for h in (3, -9, 215):
            assert alpha_product(h, tables_small, c2_ref).value == 0.0

    def test_h2_is_twice_c2(self, tables_small, c2_ref):
        assert alpha_product(2, tables_small, c2_ref).value == pytest.approx(
            2 * c2_ref.value, rel=1e-15
        )

    def test_h6_gains_factor_two(self, tables_small, c2_ref):
        assert alpha_product(6, tables_small, c2_ref).value == pytest.approx(
            4 * c2_ref.value, rel=1e-15
        )

    def test_even_symmetry(self, tables_small, c2_ref):
        for h in (2, 10, 84):
            assert (
                alpha_product(h, tables_small, c2_ref).value
                == alpha_product(-h, tables_small, c2_ref).value
            )

    def test_depends_only_on_odd_part(self, tables_small, c2_ref):
        for m in (1, 3, 15, 21):
            base = alpha_product(2 * m, tables_small, c2_ref).value
            for k in (2, 3, 4):
                assert alpha_product(2**k * m, tables_small, c2_ref).value == base

    def test_h_zero_rejected(self, tables_small, c2_ref):
        with pytest.raises(ValueError):
            alpha_product(0, tables_small, c2_ref)


class TestAlphaRamanujan:
    def test_first_term_only(self, tables_small):
        assert alpha_ramanujan(5, tables_small, 1).value == 1.0

    def test_even_agreement(self, tables_1m, c2_ref):
        for h in (2, 30, 142):
            series = alpha_ramanujan(h, tables_1m, 1_000_000)
            product = alpha_product(h, tables_1m, c2_ref)
            assert abs(series.value - product.value) <= 1e-4

    def test_odd_cancellation(self, tables_1m):
        for h in (3, 99):
            assert abs(alpha_ramanujan(h, tables_1m, 1_000_000).value) <= 1e-3

    @pytest.mark.parametrize("n_max", [1, 3000])
    def test_exact_partial_sums(self, tables_small, n_max):
        # 6002 = 2 * 3001 has a prime divisor above the 3000 cutoff
        for h in (1, 2, 3, 12, 30, -30, 210, 2310, 9999, 6002):
            exact = sum(
                Fraction(tables_small.ramanujan_sum(n, h), tables_small.totient(n) ** 2)
                for n in range(1, n_max + 1)
                if tables_small.mobius(n) != 0
            )
            value = alpha_ramanujan(h, tables_small, n_max).value
            assert abs(value - float(exact)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 625))
    def test_depends_only_on_radical(self, tables_small, m):
        n_max = tables_small.limit
        base = alpha_ramanujan(2 * m, tables_small, n_max).value
        for k in (2, 3, 4):
            assert alpha_ramanujan(2**k * m, tables_small, n_max).value == base

    def test_tail_bound_reported_and_dominates(self, tables_1m, c2_ref):
        res = alpha_ramanujan(2, tables_1m, 1_000_000)
        assert res.truncation["series_cutoff"] == 1_000_000
        err = abs(res.value - alpha_product(2, tables_1m, c2_ref).value)
        assert err <= res.truncation["tail_bound"]

    def test_tail_bound_prime_sum_taken_once_per_cutoff(self):
        tables = build_sieve(50_000)
        n_max = 10_000
        got = [alpha_ramanujan(h, tables, n_max).truncation["tail_bound"] for h in (6, 30)]
        log_sum = tables.log_mu2_phi2_product(n_max)
        assert tables.log_mu2_phi2_product(n_max) is log_sum
        # the bound with the prime sum taken inside each call, bit for bit
        phi = tables.totient_table(n_max)[1:].astype(np.float64)
        constant = per_call_tail_constant(tables, tables.mobius_table(n_max)[1:] / phi**2)
        assert got == [tables.totient(6) * constant, tables.totient(30) * constant]

    def test_tail_weight_sum_taken_once_per_cutoff(self, monkeypatch):
        tables = build_sieve(50_000)
        weight_table = tables.series_weight_table
        asked = []

        def spy(n):
            asked.append(n)
            return weight_table(n)

        monkeypatch.setattr(tables, "series_weight_table", spy)
        for n_max in (10_000, 50_000):
            asked.clear()
            got = [alpha_ramanujan(h, tables, n_max).truncation["tail_bound"] for h in (6, 30)]
            # one slice per call for the divisor sums, one for the |g| sum
            assert asked == [n_max] * 3
            g = weight_table(n_max)[1:]
            assert tables.series_weight_abs_sum(n_max) == float(np.sum(np.abs(g)))
            constant = per_call_tail_constant(tables, g)
            assert got == [tables.totient(6) * constant, tables.totient(30) * constant]

    @pytest.mark.parametrize("h", [2, 6, 30])
    def test_tail_bound_covers_primes_beyond_sieve(self, tables_1m, tables_big, c2_ref, h):
        # the primes above the cutoff enter through a Rosser-Schoenfeld bound,
        # whatever the sieve holds beyond it
        small = alpha_ramanujan(h, tables_1m, 1_000_000).truncation["tail_bound"]
        big = alpha_ramanujan(h, tables_big, 1_000_000)
        err = abs(big.value - alpha_product(h, tables_big, c2_ref).value)
        assert small >= big.truncation["tail_bound"] >= err


    @pytest.mark.parametrize("h", [1, 2, 6, 30])
    @pytest.mark.parametrize("n_max", [1, 1000, 5000])
    def test_tail_bound_independent_of_the_sieve(self, tables_small, tables_1m, h, n_max):
        # at the parent the bound took its prime product to the sieve limit,
        # so the same series read a different bound on a larger sieve
        small = alpha_ramanujan(h, tables_small, n_max)
        big = alpha_ramanujan(h, tables_1m, n_max)
        assert small == big
        # the series moves no more than the bound from n_max to the sieve limit
        rest = alpha_ramanujan(h, tables_1m, tables_1m.limit).value - big.value
        assert abs(rest) <= big.truncation["tail_bound"]


class TestAlphaEmpirical:
    def test_matches_product_at_desk_scale(self, tables_big, c2_ref):
        for h in (2, 6):
            emp = alpha_empirical(h, tables_big, 10_000_000).value
            ref = alpha_product(h, tables_big, c2_ref).value
            assert abs(emp / ref - 1.0) <= 0.05

    def test_h1_nearly_empty_support(self, tables_big):
        assert alpha_empirical(1, tables_big, 10_000_000).value < 0.01

    def test_convergence_trend_in_sample_length(self, tables_big, c2_ref):
        hs = range(2, 31, 2)
        refs = {h: alpha_product(h, tables_big, c2_ref).value for h in hs}
        mean_dev = []
        for n in (100_000, 1_000_000, 10_000_000):
            devs = [
                abs(alpha_empirical(h, tables_big, n).value / refs[h] - 1.0)
                for h in hs
            ]
            mean_dev.append(np.mean(devs))
        assert mean_dev[0] > mean_dev[1] > mean_dev[2]

    def test_negative_shift_matches_positive(self, tables_big):
        a = alpha_empirical(-4, tables_big, 1_000_000).value
        b = alpha_empirical(4, tables_big, 1_000_000).value
        assert a == b

    def test_window_overflow_rejected(self, tables_small):
        with pytest.raises(ValueError, match="sample window exceeds sieve limit"):
            alpha_empirical(2, tables_small, tables_small.limit)

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_length_below_one_rejected(self, tables_small, n):
        with pytest.raises(ValueError, match="sample length must be >= 1"):
            alpha_empirical(2, tables_small, n)

    def test_h_zero_rejected(self, tables_small):
        with pytest.raises(ValueError):
            alpha_empirical(0, tables_small, 100)

    def test_matches_dense_dot_at_ten_million(self, tables_big):
        n = 10_000_000
        for h in (2, 4, 6, 10, 12, 30):
            ref = dense_empirical(h, tables_big, n)
            assert abs(alpha_empirical(h, tables_big, n).value / ref - 1.0) <= 4e-15, h

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 24, 25, 100, 121, 1000, 4000])
    def test_matches_dense_dot_on_a_small_sieve(self, tables_small, n):
        for a in range(1, 201):
            ref = dense_empirical(a, tables_small, n)
            for h in (a, -a):
                assert abs(alpha_empirical(h, tables_small, n).value - ref) <= 1e-14, h

    @pytest.mark.parametrize(
        "m, partner", [(2, 4), (7, 9), (8, 9), (25, 27), (121, 125), (125, 127)]
    )
    def test_counts_pairs_with_a_higher_prime_power(self, tables_small, m, partner):
        # growing the sample from m - 1 to m adds the one term Lambda(m) Lambda(m + h)
        h = partner - m
        term = m * alpha_empirical(h, tables_small, m).value
        term -= (m - 1) * alpha_empirical(h, tables_small, m - 1).value
        expected = tables_small.von_mangoldt(m) * tables_small.von_mangoldt(partner)
        assert term == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_builds_no_mangoldt_table(self, tables_small, monkeypatch):
        tables = SieveTables(tables_small.limit, tables_small.spf, tables_small.primes)
        builds = []
        build = tables._build_mangoldt

        def spy(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(tables, "_build_mangoldt", spy)
        for h in (1, 2, -6, 30):
            alpha_empirical(h, tables, 4000)
        assert builds == []


class TestCachedTablesKeepAnswers:
    """A bulk table reused or regrown never changes a value, bit for bit."""

    def test_empirical_shifts_build_the_mangoldt_table_twice(self, tables_big, monkeypatch):
        # the table sizes n + h that the six prime-side shifts would ask for
        tables = SieveTables(tables_big.limit, tables_big.spf, tables_big.primes)
        builds = []
        build = tables._build_mangoldt

        def spy(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(tables, "_build_mangoldt", spy)
        n = 10_000_000
        for h in (2, 4, 6, 10, 12, 30):
            got = tables.von_mangoldt_table(n + h)
            fresh = SieveTables(tables_big.limit, tables_big.spf, tables_big.primes)
            assert np.array_equal(got, fresh.von_mangoldt_table(n + h)), h
        assert len(builds) <= 2

    @staticmethod
    def per_call_alpha(h, tables, n_max):
        # the series with g = mu / phi^2 formed inside the call
        phi = tables.totient_table(n_max)[1:].astype(np.float64)
        g = tables.mobius_table(n_max)[1:] / phi**2
        signed = np.ones(1, dtype=np.int64)
        for p, _ in tables.factorize(h):
            signed = np.concatenate([signed, -p * signed])
        value = float(np.sum(signed * np.array([g[d - 1 :: d].sum() for d in np.abs(signed)])))
        return value, tables.totient(h) * per_call_tail_constant(tables, g)

    def test_series_matches_per_call_weights(self, tables_1m):
        tables = SieveTables(tables_1m.limit, tables_1m.spf, tables_1m.primes)
        n_max = 1_000_000
        expected = [self.per_call_alpha(h, tables, n_max) for h in range(1, 31)]

        def series():
            out = [alpha_ramanujan(h, tables, n_max) for h in range(1, 31)]
            return [(r.value, r.truncation["tail_bound"]) for r in out]

        assert series() == expected
        assert len(tables.series_weight_table(n_max)) == n_max + 1
        tables.series_weight_table(n_max + 1)  # regrows to the sieve limit
        assert len(tables.series_weight_table(n_max).base) == tables.limit + 1
        assert series() == expected


class TestSmoothedAverage:
    def test_asymptote_at_1e4(self, tables_big, c2_ref):
        s = smoothed_average(10_000, tables_big, c2_ref)
        assert s.deviation <= 1e-3

    def test_deviation_shrinks(self, tables_big, c2_ref):
        d3 = smoothed_average(1_000, tables_big, c2_ref).deviation
        d4 = smoothed_average(10_000, tables_big, c2_ref).deviation
        assert d4 < d3

    def test_matches_two_sided_brute_sum(self, tables_small, c2_ref):
        h = 40
        brute = sum(
            alpha_product(hh, tables_small, c2_ref).value
            for hh in range(-h, h + 1)
            if hh != 0
        ) / (2 * h)
        assert smoothed_average(h, tables_small, c2_ref).average == pytest.approx(
            brute, rel=1e-12
        )

    def test_small_h_rejected(self, tables_small, c2_ref):
        with pytest.raises(ValueError):
            smoothed_average(1, tables_small, c2_ref)

    def test_h_past_the_sieve_rejected(self, tables_small, c2_ref):
        with pytest.raises(ValueError, match="sieve limit 10000"):
            smoothed_average(10_001, tables_small, c2_ref)
