import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetapair.sieve import SieveTables, build_sieve
from zetapair.singular import (
    _series_tail_constant,
    alpha_empirical,
    alpha_product,
    alpha_ramanujan,
    smoothed_average,
    twin_prime_constant,
)


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

    def test_tail_bound_prime_sum_taken_once_per_sieve(self):
        tables = build_sieve(50_000)
        n_max = 10_000
        got = [alpha_ramanujan(h, tables, n_max).truncation["tail_bound"] for h in (6, 30)]
        log_sum = tables.log_mu2_phi2_product()
        assert tables.log_mu2_phi2_product() is log_sum
        # the bound with the prime sum taken inside each call, bit for bit
        phi = tables.totient_table(n_max)[1:].astype(np.float64)
        g = tables.mobius_table(n_max)[1:] / phi**2
        total = float(np.sum(np.log1p(1.0 / (tables.primes.astype(np.float64) - 1.0) ** 2)))
        lim = float(tables.limit)
        total += 2.51012 / math.log(lim) * (1.0 / (lim - 1.0) + 0.5 / (lim - 1.0) ** 2)
        constant = max(math.exp(total) - float(np.sum(np.abs(g))), 0.0)
        assert got == [tables.totient(6) * constant, tables.totient(30) * constant]

    @pytest.mark.parametrize("h", [2, 6, 30])
    def test_tail_bound_covers_primes_beyond_sieve(self, tables_1m, tables_big, c2_ref, h):
        # the primes above the sieve limit enter through a Rosser-Schoenfeld
        # bound, so a smaller sieve can only loosen the bound, never shrink it
        small = alpha_ramanujan(h, tables_1m, 1_000_000).truncation["tail_bound"]
        big = alpha_ramanujan(h, tables_big, 1_000_000)
        err = abs(big.value - alpha_product(h, tables_big, c2_ref).value)
        assert small >= big.truncation["tail_bound"] >= err


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
        with pytest.raises(ValueError):
            alpha_empirical(2, tables_small, tables_small.limit)

    def test_h_zero_rejected(self, tables_small):
        with pytest.raises(ValueError):
            alpha_empirical(0, tables_small, 100)


class TestCachedTablesKeepAnswers:
    """A bulk table reused or regrown never changes a value, bit for bit."""

    def test_empirical_shifts_build_the_mangoldt_table_twice(self, tables_big, monkeypatch):
        tables = SieveTables(tables_big.limit, tables_big.spf)
        builds = []
        build = tables._build_mangoldt

        def spy(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(tables, "_build_mangoldt", spy)
        n = 10_000_000
        for h in (2, 4, 6, 10, 12, 30):
            got = alpha_empirical(h, tables, n).value
            fresh = SieveTables(tables_big.limit, tables_big.spf)
            assert got == alpha_empirical(h, fresh, n).value, h
        assert len(builds) <= 2

    @staticmethod
    def per_call_alpha(h, tables, n_max):
        # the series with g = mu / phi^2 formed inside the call
        phi = tables.totient_table(n_max)[1:].astype(np.float64)
        g = tables.mobius_table(n_max)[1:] / phi**2
        signed = np.ones(1, dtype=np.int64)
        for p, _ in tables.factorize(h):
            signed = np.concatenate([signed, -p * signed])
        value = float(signed @ np.array([g[d - 1 :: d].sum() for d in np.abs(signed)]))
        return value, tables.totient(h) * _series_tail_constant(tables, g)

    def test_series_matches_per_call_weights(self, tables_1m):
        tables = SieveTables(tables_1m.limit, tables_1m.spf)
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
