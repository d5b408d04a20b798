import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from zetapair import special
from zetapair.special import (
    EPS_MIN,
    TWO_PI,
    PoleProximityError,
    ZetaEvaluator,
    mean_density,
    sgn,
    sine_integral,
    triangle,
    triangle_ft,
    zeta_and_log_dd,
    zeta_em,
    zeta_one_line,
)

EULER_GAMMA = 0.57721566490153286061
# zeta(1 + i), 25-digit reference from an independent high-precision evaluator
ZETA_1_PLUS_I = 0.5821580597520036481994632 - 0.9268485643308070765364243j
# d^2/dw^2 ln zeta(1+iw) at w = 5, same source
LOG_ZETA_DD_5 = 0.02278439176025111 - 0.08505166854096952j


class TestMeanDensity:
    def test_exact_points(self):
        assert mean_density(TWO_PI) == 0.0
        assert mean_density(TWO_PI * math.e) == pytest.approx(1 / TWO_PI, rel=1e-15)
        assert mean_density(1e6) == pytest.approx(1.9062995767240045, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mean_density(0.0)
        with pytest.raises(ValueError):
            mean_density(-3.0)

    @pytest.mark.parametrize("e", [math.nan, math.inf, np.array([1e6, math.nan])])
    def test_rejects_non_finite(self, e):
        # nan gave nan and inf gave inf
        with pytest.raises(ValueError, match="height must be finite and positive"):
            mean_density(e)


class TestZetaOneLine:
    def test_conjugate_symmetry(self):
        for eps in (0.3, 2.0, 17.5):
            a = zeta_one_line(eps)
            b = zeta_one_line(-eps)
            assert abs(b - a.conjugate()) < 1e-12

    # one call, one point per call and two halves: up to |eps| ~ 100 every
    # point takes the floor truncation, past it the call shares the largest;
    # measured bit-equal and 3.1e-14 relative to max(|zeta|, 1)
    @pytest.mark.parametrize("eps_hi, tol", [(3.0, 0.0), (3000.0, 1e-13)])
    def test_independent_of_the_call(self, eps_hi, tol):
        eps = np.random.default_rng(20261020).uniform(0.1, eps_hi, 60)
        whole = zeta_one_line(eps)
        scale = np.maximum(np.abs(whole), 1.0)
        for other in (
            [zeta_one_line(e) for e in eps],
            np.concatenate([zeta_one_line(eps[:30]), zeta_one_line(eps[30:])]),
        ):
            assert np.max(np.abs(whole - other) / scale) <= tol

    def test_laurent_behaviour_small_eps(self):
        devs = []
        for eps in (1e-1, 1e-2, 1e-3):
            z = zeta_one_line(eps)
            devs.append(abs(z - (1.0 / (1j * eps) + EULER_GAMMA)))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-4

    def test_reference_value(self):
        z = zeta_one_line(1.0)
        assert abs(z - ZETA_1_PLUS_I) / abs(ZETA_1_PLUS_I) < 1e-12

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            zeta_one_line(EPS_MIN / 2)

    def test_modulus_squared_times_eps_squared(self):
        devs = []
        for eps in (1e-1, 1e-2, 1e-3):
            z = zeta_one_line(eps)
            devs.append(abs(abs(z) ** 2 * eps**2 - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2

    def test_euler_product_consistency(self, tables_1m):
        # The raw product over p <= 1e5 misses zeta by ~1/(eps ln P) (8% at
        # eps = 1); appending the integral tail of the prime sum,
        # exp(E1(i eps ln P)), brings it within 1e-3 of Euler-Maclaurin.
        p_cut = 100_000
        ps = tables_1m.primes[tables_1m.primes <= p_cut].astype(np.float64)
        log_p = np.log(ps)
        for eps in (1.0, 3.0, 8.0, 20.0):
            s = 1.0 + 1j * eps
            log_prod = -np.sum(np.log1p(-np.exp(-s * log_p)))
            tail = exp1(1j * eps * math.log(p_cut))
            prod = cmath.exp(log_prod + tail)
            z = zeta_one_line(eps)
            assert abs(prod - z) / abs(z) < 1e-3


class TestZetaEM:
    def test_against_mpmath_on_one_line(self):
        # tall enough for the inversion's eps band; the double-precision
        # phase t ln n limits agreement to ~1.5e-12 at t = 6500
        ts = np.concatenate([np.linspace(0.5, 6600.0, 45), [6500.0]])
        got = zeta_em(1.0 + 1j * ts)
        with mpmath.workdps(25):
            ref = np.array([complex(mpmath.zeta(mpmath.mpc(1.0, t))) for t in ts])
        assert np.max(np.abs(got - ref)) <= 5e-12

    def test_against_mpmath_on_critical_line(self):
        ts = np.concatenate([np.linspace(2.0, 1000.0, 35), [14.134725141734693]])
        got = zeta_em(0.5 + 1j * ts)
        with mpmath.workdps(25):
            ref = np.array([complex(mpmath.zeta(mpmath.mpc(0.5, t))) for t in ts])
        assert np.max(np.abs(got - ref)) <= 5e-12

    def test_against_mpmath_on_the_transform_branch(self, monkeypatch):
        # the inversion's h = 6 band: N = 4100 terms at 4000 points is far
        # past the direct sum's size, so the nonuniform FFT sums n^-s
        ts = np.linspace(6000.0, 6600.0, 4000)
        with monkeypatch.context() as patch:
            patch.setattr(special, "_direct_sum", _no_direct_sum)
            got = zeta_em(1.0 + 1j * ts)
        pick = np.linspace(0, len(ts) - 1, 40).astype(int)
        with mpmath.workdps(25):
            ref = np.array([complex(mpmath.zeta(mpmath.mpc(1.0, ts[i]))) for i in pick])
        assert np.max(np.abs(got[pick] - ref)) <= 5e-12

    def test_scalar_in_scalar_out(self):
        assert type(zeta_em(2.0 + 0j)) is complex
        assert zeta_em(2.0 + 0j) == pytest.approx(math.pi**2 / 6, rel=1e-14)


def _no_direct_sum(*args):
    raise AssertionError("the direct sum ran where the transform should")


def _no_plan(*args):
    raise AssertionError("the transform ran where the direct sum should")


def _phase_sum(c, x, t):
    """sum_k c_k exp(-i t_j x_k) by the full phase matrix, the reference."""
    return np.exp(-1j * np.multiply.outer(t, x)) @ c


class TestDirichletSum:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3) | st.integers(500, 2000),
        st.integers(1, 3) | st.integers(500, 2000),
        st.floats(1e-3, 40.0),
        st.floats(1e-3, 40.0),
        st.sampled_from(["spread", "repeated", "with zero"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_phase_matrix(self, n_terms, n_targets, x_max, t_max, targets, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
        x = rng.uniform(-x_max, x_max, n_terms)
        t = rng.uniform(-t_max, t_max, n_targets)
        if targets == "repeated":
            t[: (n_targets + 1) // 2] = t[-1]
        elif targets == "with zero":
            t[0] = 0.0
        got = special.DirichletSum(c, x)(t)
        # the reference rounds each phase t x, by up to an ulp of t_max x_max
        span = np.max(np.abs(t)) * np.max(np.abs(x))
        tol = np.sum(np.abs(c)) * (5e-14 + 5e-16 * span)
        assert got.shape == t.shape
        assert np.max(np.abs(got - _phase_sum(c, x, t))) <= tol

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(800, 1500),
        st.integers(800, 1500),
        st.integers(1, 3),
        st.floats(1e-3, 40.0),
        st.floats(-1e4, 1e4),
        st.floats(1e-3, 300.0),
        st.integers(0, 2**32 - 1),
    )
    def test_stacked_rows_on_a_band_far_from_zero(
        self, n_terms, n_targets, n_rows, x_max, t_lo, width, seed
    ):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(n_rows, n_terms)) + 1j * rng.normal(size=(n_rows, n_terms))
        x = rng.uniform(-x_max, x_max, n_terms)
        t = rng.uniform(t_lo, t_lo + width, n_targets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(special, "_direct_sum", _no_direct_sum)
            got = special.DirichletSum(c, x)(t)
            alone = [special.DirichletSum(row, x)(t) for row in c]
        assert got.shape == (n_rows, n_targets)
        span = np.max(np.abs(t)) * np.max(np.abs(x))
        for row, sums, sums_alone in zip(c, got, alone):
            tol = np.sum(np.abs(row)) * (5e-14 + 5e-16 * span)
            assert np.max(np.abs(sums - _phase_sum(row, x, t))) <= tol
            # a row of the stack gives the bits it gives alone
            assert np.array_equal(sums, sums_alone)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 80),
        st.integers(1, 80),
        st.integers(1, 3),
        st.sampled_from([1 << 21, 97]),
        st.floats(0.0, 0.6),
        st.integers(0, 2**32 - 1),
    )
    def test_stacked_rows_on_the_direct_branch(
        self, n_terms, n_targets, n_rows, max_grid, zero_share, seed
    ):
        # each row but one zero at its own terms, as the derivative rows of
        # zeta are at n = 1, and some columns zero in every row; a phase
        # block of 97 entries cuts the columns into chunks
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(n_rows, n_terms)) + 1j * rng.normal(size=(n_rows, n_terms))
        full = rng.integers(n_rows)
        own_zeros = rng.random(c.shape) < zero_share
        own_zeros[full] = False
        c[own_zeros] = 0.0
        c[:, rng.random(n_terms) < 0.5 * zero_share] = 0.0
        x = rng.uniform(-40.0, 40.0, n_terms)
        t = rng.uniform(-40.0, 40.0, n_targets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(special, "_MAX_GRID", max_grid)
            patch.setattr(special, "_Plan", _no_plan)
            got = special.DirichletSum(c, x)(t)
            alone = [special.DirichletSum(row, x)(t) for row in c]
            kept = [special.DirichletSum(row[row != 0], x[row != 0])(t) for row in c]
            real = special.DirichletSum(c.real, x)
            plus, minus = real(t), real(-t)
        assert got.shape == (n_rows, n_targets)
        for row, sums in zip(c, got):
            assert np.max(np.abs(sums - _phase_sum(row, x, t)), initial=0.0) <= 1e-12 * (
                1.0 + np.sum(np.abs(row))
            )
        # a single row gives the bits of its nonzero terms alone
        for sums_alone, sums_kept in zip(alone, kept):
            assert np.array_equal(sums_alone, sums_kept)
        # the row that is nonzero wherever another row is gives the bits it gives alone
        assert np.array_equal(got[full], alone[full])
        # F(-t) = conj F(t) exactly for a real stack with zeros in its rows
        assert np.array_equal(minus, np.conj(plus))

    def test_against_mpmath(self, monkeypatch):
        rng = np.random.default_rng(2024)
        c = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        x = rng.uniform(-50.0, 50.0, 2000)
        t = np.concatenate([[0.0, -300.0, 300.0], rng.uniform(-300.0, 300.0, 1497)])
        monkeypatch.setattr(special, "_direct_sum", _no_direct_sum)
        got = special.DirichletSum(c, x)(t)
        pick = np.arange(0, 1500, 150)
        with mpmath.workdps(30):
            cs = [mpmath.mpc(complex(v)) for v in c]
            xs = [mpmath.mpf(float(v)) for v in x]
            ref = np.array([
                complex(mpmath.fsum(ck * mpmath.expj(-mpmath.mpf(float(t[j])) * xk)
                                    for ck, xk in zip(cs, xs)))
                for j in pick
            ])
        # measured 8.4e-15 sum|c| at worst over 300 random sums
        assert np.max(np.abs(got[pick] - ref)) <= 2e-14 * np.sum(np.abs(c))

    def test_targets_on_grid_points(self, monkeypatch):
        # max|x| = 1 makes the t-grid step 0.75, so t = 0.75 k falls on grid
        # points, where the tap at the target itself has d = 0 and must read 1
        rng = np.random.default_rng(7)
        c = rng.normal(size=1500) + 1j * rng.normal(size=1500)
        x = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, 1499)])
        t = np.concatenate([0.75 * np.arange(-300, 301), rng.uniform(-225.0, 225.0, 400)])
        monkeypatch.setattr(special, "_direct_sum", _no_direct_sum)
        got = special.DirichletSum(c, x)(t)
        tol = np.sum(np.abs(c)) * (5e-14 + 5e-16 * 225.0)
        assert np.max(np.abs(got - _phase_sum(c, x, t))) <= tol

    def test_small_sums_stay_direct(self, monkeypatch):
        # exact F(-t) = conj F(t) on the direct branch, which the conjugation
        # identity of zeta_and_log_dd and the even theory kernels rely on
        n = np.arange(1, 65, dtype=np.float64)
        t = np.linspace(0.1, 40.0, 300)
        plus = special.DirichletSum(1.0 / n, np.log(n))(t)
        minus = special.DirichletSum(1.0 / n, np.log(n))(-t)
        assert np.array_equal(minus, np.conj(plus))
        monkeypatch.setattr(special, "_direct_sum", lambda c, x, t: "direct")
        assert special.DirichletSum(1.0 / n, np.log(n))(t) == "direct"
        assert special.DirichletSum([1.0], [0.0])(np.arange(5000.0)) == "direct"

    def test_all_zero_rows_run_no_kernel(self, monkeypatch):
        monkeypatch.setattr(special, "_direct_sum", _no_direct_sum)
        monkeypatch.setattr(special, "_Plan", _no_plan)
        x = np.linspace(-3.0, 3.0, 1500)
        t = np.linspace(0.1, 3.0, 300)
        stack = special.DirichletSum(np.zeros((2, 1500)), x)(t)
        row = special.DirichletSum(np.zeros(1500), x)(t)
        assert stack.shape == (2, 300) and row.shape == (300,)
        assert not stack.any() and not row.any()


class TestTruncationPoint:
    @staticmethod
    def remainder_bound(s: complex, n: int, k: int) -> float:
        # |s+2k+1|/(sigma+2k+1) |B_{2k+2}/(2k+2)! (s)_{2k+1}| N^(-sigma-2k-1)
        with mpmath.workdps(30):
            s = mpmath.mpc(s)
            val = (
                abs(s + 2 * k + 1) / (s.real + 2 * k + 1)
                * abs(mpmath.bernoulli(2 * k + 2) / mpmath.factorial(2 * k + 2))
                * abs(mpmath.rf(s, 2 * k + 1))
                * mpmath.mpf(n) ** (-s.real - 2 * k - 1)
            )
            return float(val)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_floor_and_monotone(self, sigma):
        ts = np.linspace(0.0, 20_000.0, 4001)
        for sign in (1, -1):
            n = ZetaEvaluator().truncation_point(sigma + 1j * sign * ts)
            assert n.dtype == np.int64
            assert np.all(n >= special._EM_FLOOR)
            assert np.all(np.diff(n) >= 0)
        assert n[0] == special._EM_FLOOR
        assert n[-1] > special._EM_FLOOR

    @pytest.mark.parametrize("order", [4, 8, 10])
    def test_meets_bound_and_is_smallest(self, order, monkeypatch):
        # the closed form holds at any order, not only at the one the module uses
        monkeypatch.setattr(special, "_EM_ORDER", order)
        for s in (1 + 3j, 1 + 150j, 1 + 987.5j, 1 - 4321j, 0.5 + 640j, 0.5 + 999j, 2 + 7000j):
            n = ZetaEvaluator().truncation_point(s)
            assert type(n) is int
            assert self.remainder_bound(s, n, order) <= 1e-14
            if n > special._EM_FLOOR:
                assert self.remainder_bound(s, n - 1, order) > 1e-14

    def test_rejects_bad_arguments(self):
        # outside Re s > -(2k+1) the remainder integral diverges
        for bad in (-21.0 + 5j, complex(math.nan, 1.0), complex(1.0, math.inf)):
            with pytest.raises(ValueError):
                ZetaEvaluator().truncation_point(bad)

    def test_no_settings(self):
        # the floor and the order are module constants, not fields
        assert dataclasses.fields(ZetaEvaluator) == ()


class TestLogZetaDD:
    """The second output of ``zeta_and_log_dd``, d^2/dw^2 ln zeta(1 + iw)."""

    @staticmethod
    def reference(eps: float) -> complex:
        """-[zeta''/zeta - (zeta'/zeta)^2] at s = 1 + i eps, at 40 digits."""
        with mpmath.workdps(40):
            s = mpmath.mpc(1, eps)
            ratio = mpmath.zeta(s, derivative=1) / mpmath.zeta(s)
            return complex(ratio**2 - mpmath.zeta(s, derivative=2) / mpmath.zeta(s))

    def test_against_mpmath(self, zeta_cfg):
        eps = np.concatenate([[1e-3, 0.01, 0.05], np.linspace(0.1, 3.0, 30),
                              [5.0, 12.3, 40.0, 150.0, 700.0, 2500.0]])
        ref = np.array([self.reference(float(e)) for e in eps])
        # measured: at most 3.9e-13 relative up to eps = 150, 7.6e-13 at 700
        # and 3.5e-12 at 2500, one point per call or all in one call (where
        # they share the truncation point of eps = 2500)
        bound = 1e-12 * np.maximum(1.0, eps / 250.0)
        for got in (zeta_and_log_dd(zeta_cfg, eps)[1],
                    np.array([zeta_and_log_dd(zeta_cfg, float(e))[1] for e in eps])):
            assert np.all(np.abs(got - ref) <= bound * np.abs(ref))

    def test_conjugation_identity(self, zeta_cfg):
        # exact: the direct sum gives F(-t) = conj F(t), and the tail's complex
        # arithmetic commutes with conjugation
        for eps in (0.2, 5.0):
            a = zeta_and_log_dd(zeta_cfg, eps)[1]
            b = zeta_and_log_dd(zeta_cfg, -eps)[1]
            assert b == a.conjugate()

    def test_small_eps_dominated_by_pole(self, zeta_cfg):
        for eps in (1e-3, 1e-4):
            val = zeta_and_log_dd(zeta_cfg, eps)[1]
            assert abs(val * eps**2 - 1.0) < 1e-2

    def test_reference_value_at_5(self, zeta_cfg):
        # measured 6.4e-14
        val = zeta_and_log_dd(zeta_cfg, 5.0)[1]
        assert abs(val - LOG_ZETA_DD_5) / abs(LOG_ZETA_DD_5) < 5e-13

    @pytest.mark.parametrize("eps", [np.linspace(0.05, 3.0, 700), np.linspace(600.0, 700.0, 1500)])
    def test_zeta_is_zeta_one_line(self, zeta_cfg, eps, monkeypatch):
        # N = 64 terms keep the first band on the direct branch; the second,
        # N = 433 at 1500 points, goes through the transform
        with monkeypatch.context() as patch:
            if eps[0] > 100.0:
                patch.setattr(special, "_direct_sum", _no_direct_sum)
            z, dd = zeta_and_log_dd(zeta_cfg, eps)
            assert np.array_equal(z, zeta_one_line(eps))
        z1, dd1 = zeta_and_log_dd(zeta_cfg, float(eps[7]))
        assert (type(z1), type(dd1)) == (complex, complex)
        assert z1 == zeta_one_line(float(eps[7]))

    def test_smoothed_dirichlet_series_cross_check(self, tables_big, zeta_cfg):
        # -sum Lambda(n) ln(n) n^(-1-i eps) e^(-n/X): the exponential cutoff
        # carries an irreducible O(|Gamma(-i eps)| ln X) bias on the 1-line
        # (~7e-3 here), so 1e-2 is the honest agreement scale.
        X = 1e6
        n_max = 10_000_000
        lam = tables_big.von_mangoldt_table(n_max)
        n = np.arange(1, n_max + 1, dtype=np.float64)
        logn = np.log(n)
        weights = lam[1:] * logn / n * np.exp(-n / X)
        smoothed = -np.sum(weights * np.exp(-1j * 5.0 * logn))
        val = zeta_and_log_dd(zeta_cfg, 5.0)[1]
        assert abs(val - smoothed) < 1e-2

    def test_pole_guard(self, zeta_cfg):
        with pytest.raises(PoleProximityError):
            zeta_and_log_dd(zeta_cfg, 0.0)[1]


class TestSineIntegral:
    def test_fixed_points(self):
        assert sine_integral(0.0) == 0.0
        assert sine_integral(1.0) == pytest.approx(0.94608307036718301, abs=1e-12)

    def test_limit_at_infinity(self):
        assert abs(sine_integral(1e4) - math.pi / 2) < 1e-3

    def test_odd_by_construction(self):
        for x in (0.3, 4.0, 42.0):
            assert sine_integral(-x) == -sine_integral(x)

    def test_against_mpmath(self):
        # both signs, 0, the neighbourhood of 6 (where a series/asymptotic
        # split would sit), a fine grid on [-100, 100] and |x| up to 1e5
        xs = np.concatenate([
            [0.0, 6.0, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0)],
            np.linspace(-100.0, 100.0, 4001),
            np.geomspace(1e-8, 1e5, 400),
        ])
        xs = np.concatenate([xs, -xs])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.si(mpmath.mpf(float(x)))) for x in xs])
        assert np.max(np.abs(sine_integral(xs) - ref)) <= 1e-15
        assert type(sine_integral(6.0)) is float

    def test_against_quadrature(self):
        for x in (0.5, 2.0, 5.9, 6.1, 13.0, 80.0):
            ref, err = quad(lambda t: np.sinc(t / np.pi), 0.0, x, limit=400)
            assert abs(sine_integral(x) - ref) < 1e-10 + 2 * err


class TestWindowFunctions:
    def test_triangle(self):
        assert triangle(0.0) == 1.0
        assert triangle(1.0) == 0.0
        assert triangle(-1.0) == 0.0
        assert triangle(2.5) == 0.0
        assert triangle(0.25) == 0.75

    def test_sgn_zero_is_negative(self):
        assert sgn(0.0) == -1.0
        assert sgn(-3.0) == -1.0
        assert sgn(1e-300) == 1.0

    def test_triangle_ft_values(self):
        assert triangle_ft(0.0) == 1.0
        assert abs(triangle_ft(TWO_PI)) < 1e-30

    def test_triangle_ft_against_quadrature(self):
        k = 3.7
        ref = 2.0 * quad(lambda x: (1 - x) * math.cos(k * x), 0.0, 1.0)[0]
        assert abs(triangle_ft(k) - ref) < 1e-8

    def test_triangle_ft_nonnegative_and_normalized(self):
        ks = np.linspace(-50.0, 50.0, 4001)
        assert np.all(triangle_ft(ks) >= 0.0)
        half, _ = quad(
            lambda k: triangle_ft(k), 0.0, 40.0 * math.pi, limit=2000
        )
        assert abs(2.0 * half - TWO_PI) / TWO_PI < 1e-2
