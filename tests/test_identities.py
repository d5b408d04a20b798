import math
from types import SimpleNamespace

import numpy as np
import pytest

from zetapair import identities
from zetapair.identities import (
    averaged_alpha_recovery,
    ft_one_over_xsq_check,
    local_factor_chain_sample,
    mobius_indicator_check,
    ramanujan_closure_check,
    triangle_relation_check,
)
from zetapair.sieve import build_sieve
from zetapair.singular import alpha_product, twin_prime_constant


class TestTriangleRelation:
    def test_interior_point(self):
        assert triangle_relation_check([0.5]).max_residual == 0.0

    def test_outside_support(self):
        assert triangle_relation_check([2.0]).max_residual == 0.0

    def test_random_sample(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-3.0, 3.0, 1000)
        xs = xs[(np.abs(xs) > 1e-9) & (np.abs(np.abs(xs) - 1.0) > 1e-9)]
        rep = triangle_relation_check(xs)
        assert rep.max_residual < 1e-14
        assert rep.passed


class TestFtInversion:
    def test_standard_points(self):
        rep = ft_one_over_xsq_check([0.0, 0.5, 2.0])
        assert rep.max_residual < 1e-6
        assert rep.passed

    def test_value_at_origin_is_two_pi(self):
        # RHS at x = 0: pi + pi - 0
        from zetapair.special import sgn

        target = math.pi * sgn(1.0) + math.pi * sgn(1.0)
        assert target == pytest.approx(2 * math.pi)

    def test_outside_support_cancels(self):
        # x = 2: pi(-1)(-1) + pi(3)(1) - 4 pi = 0
        x = 2.0
        val = math.pi * (1 - x) * -1 + math.pi * (1 + x) * 1 - 2 * math.pi * x * 1
        assert val == pytest.approx(0.0, abs=1e-15)


class TestAveragedRecovery:
    def test_quadrature_matches_si_form(self):
        rec = averaged_alpha_recovery(100.0)
        assert abs(rec.integral_value - rec.si_form) < 1e-6

    def test_asymptote_bound_at_1e3(self):
        rec = averaged_alpha_recovery(1000.0)
        assert abs(rec.si_form - rec.asymptote) <= 2.0 / (math.pi * 1000.0**2)

    def test_ratio_tends_to_one(self):
        ratios = []
        for h in (10.0, 100.0, 1000.0):
            rec = averaged_alpha_recovery(h)
            ratios.append(rec.si_form * (-2.0 * h))
        errs = [abs(r - 1.0) for r in ratios]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            averaged_alpha_recovery(0.5)


class TestLocalFactorChain:
    def test_fixed_points(self):
        assert identities._local_factor_residual(2, 1.0) < 1e-12
        assert identities._local_factor_residual(3, 0.001) < 1e-12

    @pytest.mark.parametrize("p", [2, 3, 9973])
    def test_regular_at_eps_zero(self, p):
        # p^(-i eps) = 1 there, and every side of the chain equals 1
        assert identities._local_factor_residual(p, 0.0) == 0.0

    def test_random_sample(self, tables_small):
        rep = local_factor_chain_sample(tables_small, 1000, seed=123)
        assert rep.max_residual < 1e-11
        assert rep.samples == 1000

    def test_reproducible_given_seed(self, tables_small):
        a = local_factor_chain_sample(tables_small, 200, seed=9)
        b = local_factor_chain_sample(tables_small, 200, seed=9)
        assert a == b

    def test_cutoff_past_the_sieve_rejected(self):
        # the primes were drawn from those the sieve holds, below 100
        with pytest.raises(ValueError, match="sieve limit 100"):
            local_factor_chain_sample(build_sieve(100), 10)

    def test_sign_symmetric_in_eps(self):
        for p, eps in ((2, 0.7), (101, 4.0)):
            a = identities._local_factor_residual(p, eps)
            b = identities._local_factor_residual(p, -eps)
            assert abs(a - b) < 1e-13


class TestMobiusIndicator:
    def test_coprime_pair(self, tables_small):
        assert mobius_indicator_check(1, 7, tables_small).max_residual == 0.0

    def test_shared_factor(self, tables_small):
        # gcd(6, 9) = 3: mu(1) + mu(3) = 0
        assert mobius_indicator_check(6, 9, tables_small).max_residual == 0.0

    def test_exhaustive_500(self, tables_small):
        rep = mobius_indicator_check(500, 500, tables_small)
        assert rep.max_residual == 0.0
        assert rep.passed


class TestRamanujanClosure:
    def test_odd_h_exactly_zero(self, tables_1m, c2_ref):
        for h in (1, 3, 15, 99):
            assert ramanujan_closure_check(h, tables_1m, 1_000_000, c2_ref).max_residual == 0.0

    def test_even_h_matches_product(self, tables_1m, c2_ref):
        for h in (2, 12):
            rep = ramanujan_closure_check(h, tables_1m, 1_000_000, c2_ref)
            assert rep.max_residual < 1e-6

    def test_h12_value(self, tables_1m, c2_ref):
        # alpha(12) = 4 C2 (only the odd prime 3 divides 12)
        assert alpha_product(12, tables_1m, c2_ref).value == pytest.approx(
            4 * c2_ref.value
        )

    def test_partial_products_converge_monotonically(self, tables_1m, c2_ref):
        # past the largest prime factor of h every new factor shrinks the gap
        residuals = [
            ramanujan_closure_check(12, tables_1m, p, c2_ref).max_residual
            for p in (5, 50, 500, 5000, 50_000)
        ]
        assert residuals == sorted(residuals, reverse=True)

    def test_h_zero_rejected(self, tables_1m, c2_ref):
        with pytest.raises(ValueError):
            ramanujan_closure_check(0, tables_1m, 1000, c2_ref)

    @pytest.mark.parametrize("bad", [2.5, np.float64(4.0)])
    def test_non_integral_h_raises(self, tables_small, c2_ref, bad):
        # int() truncated 2.5 to the shift 2
        with pytest.raises(TypeError):
            ramanujan_closure_check(bad, tables_small, 1000, c2_ref)

    def test_numpy_integer_h_accepted(self, tables_small, c2_ref):
        got = ramanujan_closure_check(np.int64(6), tables_small, 1000, c2_ref)
        assert got == ramanujan_closure_check(6, tables_small, 1000, c2_ref)

    def test_cutoff_past_the_sieve_rejected(self, c2_ref):
        # the product ran over the primes up to 100 alone and reported
        # p_cut 1e6 with a residual of 2.4e-3
        with pytest.raises(ValueError, match="sieve limit 100"):
            ramanujan_closure_check(2, build_sieve(100), 10**6, c2_ref)

    @staticmethod
    def full_modulo_product(h, tables, p_cut):
        # every prime <= p_cut tested for divisibility
        ps = tables.primes[: np.searchsorted(tables.primes, p_cut, side="right")]
        ps = ps.astype(np.float64)
        divides = (abs(h) % ps.astype(np.int64)) == 0
        c_p = np.where(divides, ps - 1.0, -1.0)
        return float(np.prod(1.0 + c_p / (ps - 1.0) ** 2))

    def test_product_matches_full_modulo(self, tables_1m, monkeypatch):
        # with the target at 0 the residual is the product itself (>= 0)
        zero = SimpleNamespace(value=0.0)
        monkeypatch.setattr(identities, "alpha_product", lambda *args: zero)
        for p_cut in (2, 3, 97, 1_000_000):
            for h in [*range(1, 211), *range(-210, 0)]:
                got = ramanujan_closure_check(h, tables_1m, p_cut, None).max_residual
                assert got == self.full_modulo_product(h, tables_1m, p_cut), (h, p_cut)
