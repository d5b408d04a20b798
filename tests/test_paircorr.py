import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetapair import paircorr, special
from zetapair.paircorr import (
    CorrelationEstimate,
    GridMismatchError,
    InsufficientDataError,
    aggregate,
    bin_average,
    compare,
    empirical_r2,
    gue_on_bins,
    gue_r2,
    pooled_windows,
    r2_diag_limit,
    r2_off_limit,
    theory_curve,
    theory_on_bins,
)
from zetapair.sieve import build_sieve
from zetapair.special import TWO_PI, mean_density, zeta_and_log_dd, zeta_one_line
from zetapair.zeros import ZeroList


def held_terms(tables, p_cut, k_cut):
    """The prime terms tables holds at (p_cut, k_cut); fails if it holds another pair."""
    return tables.memo("prime_terms", (p_cut, k_cut),
                       lambda: pytest.fail(f"no prime terms held at {(p_cut, k_cut)}"))


def poisson_surrogate(center, width, seed):
    rng = np.random.default_rng(seed)
    dens = mean_density(center)
    n = rng.poisson(dens * width)
    pts = np.sort(rng.uniform(center - width / 2, center + width / 2, n))
    return ZeroList(pts, (center - width / 2, center + width / 2), False)


def gue_window(rng, n=400, levels=200, e0=7000.0):
    """The histogram of one GUE matrix's central levels, taken as zeros at e0.

    H = (G + G^H) / 2, with G's real and imaginary parts standard normal,
    has E|H_ij|^2 = 1, so its levels fill the semicircle of radius 2 sqrt(n)
    and count n (1/2 + (u sqrt(1 - u^2) + arcsin u) / pi) below 2 sqrt(n) u.
    That count unfolds them to unit mean spacing, and the unfolded x sit at
    e0 + x / mean_density(e0), where ``empirical_r2`` unfolds them back.  The
    window spans the central ``levels`` units of the unfolded spectrum.
    """
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lam = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    u = lam[(n - levels) // 2 :][:levels] / (2.0 * math.sqrt(n))
    x = n * (0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / np.pi)
    dens = mean_density(e0)
    zl = ZeroList(e0 + x / dens, (e0, e0 + n / dens), True)
    return empirical_r2(zl, e0 + 0.5 * n / dens, levels / dens, 0.05, 3.0)


class TestEmpirical:
    def test_poisson_normalization(self):
        zl = poisson_surrogate(5000.0, 2000.0, seed=20260809)
        est = empirical_r2(zl, 5000.0, 2000.0, 0.05, 3.0)
        assert abs(np.mean(est.values) - 1.0) <= 3.0 / math.sqrt(est.pair_count)
        three_sigma = 3.0 / np.sqrt(np.maximum(est.counts, 1.0))
        assert np.all(np.abs(est.values - 1.0) <= three_sigma)

    def test_level_repulsion_visible(self, zeros_high):
        width = 400.0 / mean_density(7000.0)
        est = empirical_r2(zeros_high, 7000.0, width, 0.05, 3.0)
        assert np.all(est.values[:3] < 0.5)

    def test_doubling_width_quadruples_pairs(self, zeros_high):
        # with eps_max tracking the window, the histogram sees a fixed
        # fraction of all ordered pairs, which grow quadratically
        dens = mean_density(7000.0)
        base = empirical_r2(zeros_high, 7000.0, 400.0, 2.0, 0.45 * 400.0 * dens)
        double = empirical_r2(zeros_high, 7000.0, 800.0, 2.0, 0.45 * 800.0 * dens)
        ratio = double.pair_count / base.pair_count
        assert 3.2 <= ratio <= 4.8

    def test_insufficient_data(self, zeros_high):
        with pytest.raises(InsufficientDataError):
            empirical_r2(zeros_high, 7000.0, 20.0, 0.05, 3.0)

    def test_window_outside_range(self, zeros_high):
        with pytest.raises(ValueError):
            empirical_r2(zeros_high, 2995.0, 100.0, 0.05, 3.0)

    # a non-finite window passed the range check and read "only 0 zeros in window"
    @pytest.mark.parametrize("center,width", [
        (math.nan, 400.0), (math.inf, 400.0), (7000.0, math.nan), (7000.0, math.inf),
    ])
    def test_rejects_non_finite_window(self, zeros_high, center, width):
        with pytest.raises(ValueError, match="finite centre and a finite positive width"):
            empirical_r2(zeros_high, center, width, 0.05, 3.0)

    # an infinite eps_max raised OverflowError from the bin count
    @pytest.mark.parametrize("bin_width,eps_max", [
        (0.05, math.inf), (0.05, math.nan), (math.nan, 3.0), (math.inf, 3.0), (0.0, 3.0),
    ])
    def test_rejects_bad_bins(self, zeros_high, bin_width, eps_max):
        with pytest.raises(ValueError, match="bin_width < eps_max"):
            empirical_r2(zeros_high, 7000.0, 400.0, bin_width, eps_max)

    # bins past the window's unfolded length printed -0 from a negative norm
    def test_rejects_bins_past_the_window(self, zeros_high):
        width = 400.0 / mean_density(7000.0)
        assert empirical_r2(zeros_high, 7000.0, width, 2.0, 398.0).values.size == 199
        with pytest.raises(ValueError, match="past the window's unfolded length"):
            empirical_r2(zeros_high, 7000.0, width, 2.0, 402.0)

    def test_aggregate_pools_counts(self, zeros_high):
        a = empirical_r2(zeros_high, 6000.0, 300.0, 0.05, 3.0)
        b = empirical_r2(zeros_high, 8000.0, 300.0, 0.05, 3.0)
        pooled = aggregate([a, b])
        assert pooled.pair_count == a.pair_count + b.pair_count
        expected = (a.counts + b.counts) / (a.norms + b.norms)
        assert np.allclose(pooled.values, expected)

    def test_aggregate_rejects_mixed_grids(self, zeros_high):
        a = empirical_r2(zeros_high, 6000.0, 300.0, 0.05, 3.0)
        b = empirical_r2(zeros_high, 8000.0, 300.0, 0.1, 3.0)
        with pytest.raises(GridMismatchError):
            aggregate([a, b])

    # edges up to 6e-7 apart pooled under np.allclose, labelled with the first grid
    def test_aggregate_rejects_nearly_equal_grids(self, zeros_high):
        a = empirical_r2(zeros_high, 3300.0, 300.0, 0.05, 3.0)
        b = empirical_r2(zeros_high, 3300.0, 300.0, 0.05000001, 3.0)
        assert a.bin_edges.shape == b.bin_edges.shape
        with pytest.raises(GridMismatchError):
            aggregate([a, b])


def _all_pair_differences(x, max_diff):
    """Every x[k] - x[i], i < k, with x[k] <= x[i] + max_diff, pair by pair."""
    return [x[k] - x[i] for i in range(len(x)) for k in range(i + 1, len(x))
            if x[k] <= x[i] + max_diff]


class TestPairDifferences:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-50.0, 50.0), max_size=60),
        st.floats(0.0, 30.0),
    )
    def test_matches_all_pairs(self, values, max_diff):
        x = np.sort(np.array(values, dtype=np.float64))
        got = np.sort(paircorr._pair_differences(x, max_diff))
        want = np.sort(np.array(_all_pair_differences(x, max_diff), dtype=np.float64))
        assert np.array_equal(got, want)

    def test_histogram_on_zeros_matches_all_pairs(self, zeros_high):
        x = zeros_high.ordinates[:600] * mean_density(3300.0)
        edges = np.linspace(0.0, 3.0, 61)
        got = np.histogram(paircorr._pair_differences(x, 3.0), bins=edges)[0]
        want = np.histogram(_all_pair_differences(x, 3.0), bins=edges)[0]
        assert np.array_equal(got, want)


class TestLimits:
    def test_diag_limit_values(self):
        assert r2_diag_limit(1.0) == pytest.approx(-1.0 / (2 * math.pi**2))
        assert r2_diag_limit(10.0) == pytest.approx(-1.0 / (200 * math.pi**2))
        assert r2_diag_limit(-2.5) == r2_diag_limit(2.5)
        with pytest.raises(ValueError):
            r2_diag_limit(0.0)

    def test_off_limit_values(self):
        assert r2_off_limit(0.25) == pytest.approx(0.0, abs=1e-16)
        assert r2_off_limit(1.0) == pytest.approx(1.0 / (2 * math.pi**2))
        with pytest.raises(ValueError):
            r2_off_limit(0.0)

    def test_gue_values(self):
        assert gue_r2(0.0) == 0.0
        assert gue_r2(1.0) == pytest.approx(1.0)
        assert gue_r2(0.5) == pytest.approx(1.0 - (2.0 / math.pi) ** 2)

    def test_gue_equals_one_plus_limit_terms(self):
        eps = np.linspace(0.1, 3.0, 59)
        combined = 1.0 + r2_diag_limit(eps) + r2_off_limit(eps)
        assert np.allclose(combined, gue_r2(eps), rtol=0, atol=1e-14)


def _terms(e_height, eps, cfg, tables, p_cut=paircorr.DEFAULT_PRIME_CUTOFF,
           k_cut=paircorr.DEFAULT_POWER_CUTOFF):
    """The diagonal and off-diagonal terms in absolute units at each eps."""
    tc = theory_curve(e_height, np.atleast_1d(eps), cfg, tables, p_cut, k_cut, unfolded=False)
    return tc.diag, tc.offdiag


class TestFiniteHeight:
    def test_diag_even_and_real(self, zeta_cfg, tables_1m):
        eps = np.array([0.3, 1.7])
        a = _terms(1e4, eps, zeta_cfg, tables_1m)[0]
        b = _terms(1e4, -eps, zeta_cfg, tables_1m)[0]
        assert np.array_equal(a, b)
        assert a.dtype == np.float64

    def test_off_even_and_real(self, zeta_cfg, tables_1m):
        eps = np.array([0.3, 1.7])
        a = _terms(1e4, eps, zeta_cfg, tables_1m)[1]
        b = _terms(1e4, -eps, zeta_cfg, tables_1m)[1]
        assert np.array_equal(a, b)
        assert a.dtype == np.float64

    def test_diag_prime_tail_converged(self, zeta_cfg, tables_1m):
        # measured truncation shift, P 1e4 -> 1e5 at eps = 5: ~4e-6
        a = _terms(1e4, 5.0, zeta_cfg, tables_1m, 10_000, 20)[0]
        b = _terms(1e4, 5.0, zeta_cfg, tables_1m, 100_000, 20)[0]
        assert abs(a - b) < 2e-5

    def test_off_prime_tail_converged(self, zeta_cfg, tables_1m):
        a = _terms(1e4, 5.0, zeta_cfg, tables_1m, 10_000)[1]
        b = _terms(1e4, 5.0, zeta_cfg, tables_1m, 100_000)[1]
        assert abs(a - b) < 5e-6

    def test_off_rejects_low_height(self, zeta_cfg, tables_1m):
        with pytest.raises(ValueError):
            _terms(5.0, 1.0, zeta_cfg, tables_1m)

    def test_diag_approaches_unfolded_limit(self, zeta_cfg, tables_1m):
        e_height = 1e10
        dens = mean_density(e_height)
        for eps in (0.5, 1.0, 2.0):
            unfolded = _terms(e_height, eps / dens, zeta_cfg, tables_1m)[0] / dens**2
            assert abs(unfolded - r2_diag_limit(eps)) < 1e-2

    def test_off_approaches_unfolded_limit(self, zeta_cfg, tables_1m):
        # absolute deviation at unfolded eps = 1 is ~6e-3 at E = 1e10 and
        # shrinks with height (the approach is logarithmic in E)
        devs = []
        for e_height in (1e6, 1e8, 1e10):
            dens = mean_density(e_height)
            unfolded = _terms(e_height, 1.0 / dens, zeta_cfg, tables_1m)[1] / dens**2
            devs.append(abs(unfolded - r2_off_limit(1.0)))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] <= 1e-2


def _no_direct_sum(*args):
    raise AssertionError("the direct sum ran where the transform should")


def _mpmath_prime_sums(tables, p_cut, k_cut, eps):
    """The kernel's two finite prime sums at each eps, at 25 digits."""
    with mpmath.workdps(25):
        es = [mpmath.mpf(float(e)) for e in eps]
        power = [mpmath.mpc(0)] * len(es)
        product = [mpmath.mpc(1)] * len(es)
        for p in tables.primes[: np.searchsorted(tables.primes, p_cut, side="right")]:
            p = int(p)
            lp = mpmath.log(p)
            n_pow = sum(1 for k in range(1, k_cut + 1) if (k + 1) * math.log(p) <= 40.0)
            for i, e in enumerate(es):
                u = mpmath.expj(-e * lp)
                ratio = (1 - u) / (p - 1)
                product[i] *= 1 - ratio * ratio
                y = u / p
                y_pow = y
                for k in range(1, n_pow + 1):
                    y_pow *= y
                    power[i] += k * lp**2 * y_pow
        return np.array(power, dtype=complex), np.array(product, dtype=complex)


def _per_term_theory(e_height, eps, cfg, tables, p_cut, k_cut):
    """The unfolded curve with one complex exponential per (eps, p, k) and per (eps, p)."""
    ps = tables.primes[: np.searchsorted(tables.primes, p_cut, side="right")]
    ps = ps.astype(np.float64)
    logs, weights = [], []
    for k in range(1, k_cut + 1):
        keep = (k + 1) * np.log(ps) <= 40.0
        if not np.any(keep):
            break
        lp = np.log(ps[keep])
        logs.append((k + 1) * lp)
        weights.append(lp**2 * k * np.exp(-(k + 1) * lp))
    logs, weights = np.concatenate(logs), np.concatenate(weights)
    dens = mean_density(e_height)
    args = eps / dens
    power = np.exp(-1j * np.multiply.outer(args, logs)) @ weights
    diag = -np.real(zeta_and_log_dd(cfg, args)[1] + power) / (2.0 * np.pi**2)
    ratio = (1.0 - np.exp(-1j * np.multiply.outer(args, np.log(ps)))) / (ps - 1.0)
    product = np.prod(1.0 - ratio * ratio, axis=-1)
    z = zeta_one_line(args)
    off = 2.0 * np.real(
        np.real(z * np.conj(z)) * np.exp(-1j * TWO_PI * args * dens) * product
        / (4.0 * np.pi**2)
    )
    return diag / dens**2, off / dens**2


class TestPrimePhaseKernel:
    # eps up to 25 keeps the phase eps ln p below ~300 rad, where its
    # double rounding stays near 1e-14
    # 47: the primes below 50 alone, whose product has no log series;
    # 53: the first prime with one
    # 4000: the inversion's cutoff
    @pytest.mark.parametrize("p_cut,k_cut", [
        (47, 20), (53, 20), (4000, 20), (20_000, 14), (100_000, 20),
    ])
    def test_against_mpmath(self, tables_1m, p_cut, k_cut):
        eps = np.array([0.3, 1.7, 25.0])
        power, product = paircorr._prime_phase_sums(tables_1m, p_cut, k_cut, eps)
        want_power, want_product = _mpmath_prime_sums(tables_1m, p_cut, k_cut, eps)
        # measured: 3.0e-15 and 3.0e-15 at worst
        assert np.max(np.abs(power - want_power)) <= 1e-14
        assert np.max(np.abs(product - want_product)) <= 5e-14

    # each series is the Taylor series of ln(1 - ((1 - u)/(p - 1))^2) at u = 0,
    # cut at the least M whose tail bound 2 a^(M+1) / ((M+1)(1 - a)), a = 1/(p - 2),
    # is at most 1e-18
    @pytest.mark.parametrize("p", [53, 97, 1009])
    def test_log_series_against_mpmath_taylor(self, p):
        a = 1.0 / (p - 2)
        n_m = 1
        while 2.0 * a ** (n_m + 1) / ((n_m + 1) * (1.0 - a)) > 1e-18:
            n_m += 1
        _, coef, log_const = paircorr._prime_sum_terms(np.array([float(p)]), 0, 0)
        series = coef[1]
        assert np.all(series[:n_m] != 0.0) and np.all(series[n_m:] == 0.0)
        with mpmath.workdps(40):
            want = mpmath.taylor(lambda u: mpmath.log(1 - ((1 - u) / (p - 1)) ** 2), 0, n_m)
        want = np.array([float(c) for c in want])
        m = np.arange(1, n_m + 1)
        assert abs(log_const - want[0]) <= 1e-15 * abs(want[0])
        assert np.all(np.abs(series[:n_m] - want[1:]) <= 1e-15 * a**m / m)

    def test_small_primes_through_the_transform(self, tables_1m, monkeypatch):
        # at 250 points the power sum of the primes below 50 reads a plan;
        # measured 2.1e-15 (power) and 1.2e-14 (product, formed directly)
        eps = np.linspace(0.1, 25.0, 250)
        with monkeypatch.context() as patch:
            patch.setattr(special, "_direct_sum", _no_direct_sum)
            power, product = paircorr._prime_phase_sums(tables_1m, 47, 20, eps)
        want_power, want_product = _mpmath_prime_sums(tables_1m, 47, 20, eps)
        assert np.max(np.abs(power - want_power)) <= 1e-14
        assert np.max(np.abs(product - want_product)) <= 5e-14

    def test_nodes_do_not_depend_on_the_power_cutoff(self, tables_1m):
        # so the product row, and the direct/transform choice, is the same at every k_cut
        for p_cut in (47, 20_000):
            assert np.array_equal(
                paircorr._prime_terms(tables_1m, p_cut, 0).sums.x,
                paircorr._prime_terms(tables_1m, p_cut, 14).sums.x,
            )

    def test_no_series_prime_runs_no_kernel(self, monkeypatch):
        # below 53 the product alone has no nonzero coefficient: its value
        # is the direct block of the primes below 50, times exp(0)
        def no_kernel(*args):
            raise AssertionError("a kernel ran on all-zero coefficients")

        tables = build_sieve(1000)
        monkeypatch.setattr(special, "_direct_sum", no_kernel)
        monkeypatch.setattr(special, "_Plan", no_kernel)
        eps = np.linspace(0.1, 25.0, 250)
        got = paircorr.off_diagonal_product(tables, 47, eps)
        ps = tables.primes[:15].astype(np.float64)
        want = paircorr._small_prime_product(ps, eps)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_shape_and_empty_power_sum(self, tables_1m):
        eps = np.linspace(0.5, 4.0, 12).reshape(3, 4)
        power, product = paircorr._prime_phase_sums(tables_1m, 20_000, 0, eps)
        assert power.shape == product.shape == eps.shape
        assert np.all(power == 0.0)
        flat = paircorr.off_diagonal_product(tables_1m, 20_000, eps.ravel())
        assert np.array_equal(product.ravel(), flat)

    def test_row_chunks_line_up(self, tables_1m, monkeypatch):
        # the prime sums go through the transform at 250 points and
        # through the direct sum at one; measured 8.6e-16 and 5.0e-16 at worst
        eps = np.linspace(0.1, 30.0, 250)
        with monkeypatch.context() as patch:
            patch.setattr(special, "_direct_sum", _no_direct_sum)
            power, product = paircorr._prime_phase_sums(tables_1m, 100_000, 20, eps)
        for i in (0, 108, 109, 218, 249):
            p1, q1 = paircorr._prime_phase_sums(tables_1m, 100_000, 20, eps[i : i + 1])
            assert abs(p1[0] - power[i]) <= 1e-15
            assert abs(q1[0] - product[i]) <= 1e-15

    def test_product_on_the_inversion_band(self, tables_small, monkeypatch):
        # the eps of windowed_inversion at h = 4 on (1000, 1060), where the
        # tile lies far from eps = 0; the per-term formula rounds each
        # eps ln p, by up to 3.6e-12 rad here
        eps = np.linspace(4000.0, 4300.0, 2000)
        with monkeypatch.context() as patch:
            patch.setattr(special, "_direct_sum", _no_direct_sum)
            got = paircorr.off_diagonal_product(tables_small, 4000, eps)
        ps = tables_small.primes[: np.searchsorted(tables_small.primes, 4000, side="right")]
        ps = ps.astype(np.float64)
        ratio = (1.0 - np.exp(-1j * np.multiply.outer(eps, np.log(ps)))) / (ps - 1.0)
        want = np.prod(1.0 - ratio * ratio, axis=-1)
        # measured 2.3e-14, with |product| up to 3.5
        assert np.max(np.abs(got - want)) <= 1e-13

    # one call, one eps per call and two halves: the direct sum or the
    # transform is chosen per call; measured 2.5e-16 and bit-equal
    @pytest.mark.parametrize("p_cut", [4000, 20_000])
    @pytest.mark.parametrize("eps_hi, tol", [(3.0, 1e-15), (3000.0, 0.0)])
    def test_product_independent_of_the_call(self, tables_1m, p_cut, eps_hi, tol):
        eps = np.random.default_rng(20261020).uniform(0.1, eps_hi, 60)

        def product(e):
            return paircorr.off_diagonal_product(tables_1m, p_cut, np.asarray(e))

        whole = product(eps)
        for other in (
            np.concatenate([product([e]) for e in eps]),
            np.concatenate([product(eps[:30]), product(eps[30:])]),
        ):
            assert np.max(np.abs(whole - other)) <= tol

    def test_rejects_cutoff_beyond_sieve(self, tables_small):
        with pytest.raises(ValueError):
            paircorr._prime_phase_sums(tables_small, 20_000, 14, np.array([1.0]))

    def test_rejects_cutoffs_below_their_domain(self, zeta_cfg, tables_small):
        eps = np.array([1.0])
        with pytest.raises(ValueError, match="prime cutoff must be >= 2"):
            paircorr.off_diagonal_product(tables_small, 1, eps)
        with pytest.raises(ValueError, match="power cutoff must be >= 1"):
            theory_curve(1e4, eps, zeta_cfg, tables_small, 1000, 0)
        # the product alone runs the kernel with no power sum
        assert paircorr.off_diagonal_product(tables_small, 2, eps).shape == (1,)


class TestTheoryCurve:
    @pytest.mark.parametrize("e_height,p_cut,k_cut", [(7000.0, 20_000, 14), (1e10, 100_000, 20)])
    def test_matches_per_term_formula(self, zeta_cfg, tables_1m, e_height, p_cut, k_cut):
        eps = np.arange(0.2, 3.0001, 0.05)
        tc = theory_curve(e_height, eps, zeta_cfg, tables_1m, p_cut, k_cut)
        diag, off = _per_term_theory(e_height, eps, zeta_cfg, tables_1m, p_cut, k_cut)
        assert np.max(np.abs(tc.diag - diag)) <= 1e-13
        assert np.max(np.abs(tc.offdiag - off)) <= 1e-13

    def test_cached_sums_read_the_targets_tile(self, zeta_cfg, tables_1m):
        # at 250 points the prime sums read a plan of the transform, whose
        # tile is set by the nodes and the targets; the product alone
        # (k_cut = 0) keeps the curve's nodes, so it reads the same tile; the
        # tables keeps one key, so each key's sums are taken after its own read
        eps = np.linspace(0.2, 3.0, 250)
        theory_curve(1e4, eps, zeta_cfg, tables_1m, 100_000, 20, unfolded=False)
        curve_sums = held_terms(tables_1m, 100_000, 20).sums
        paircorr.off_diagonal_product(tables_1m, 100_000, eps)
        product_sums = held_terms(tables_1m, 100_000, 0).sums
        for sums in (curve_sums, product_sums):
            assert sums.plan.tile == special._canonical_tile(sums.x, eps)

    def test_rejects_low_height(self, zeta_cfg, tables_1m):
        with pytest.raises(ValueError):
            theory_curve(5.0, np.array([0.5]), zeta_cfg, tables_1m)

    # nan gave [nan] from the off-diagonal term, and inf tripped the pole guard
    @pytest.mark.parametrize("e_height", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_height(self, zeta_cfg, tables_small, e_height):
        eps = np.array([0.5])
        with pytest.raises(ValueError, match="height must be finite and exceed 2 pi"):
            theory_curve(e_height, eps, zeta_cfg, tables_small, 1000, 4)
        with pytest.raises(ValueError, match="height must be finite and exceed 2 pi"):
            theory_on_bins(e_height, np.linspace(0.0, 1.0, 3), zeta_cfg, tables_small, 1000, 4)

    def test_decomposition_identity(self, zeta_cfg, tables_1m):
        # the unfolded diag and offdiag are the absolute ones at eps / dbar, over dbar^2
        eps = np.linspace(0.2, 3.0, 20)
        dbar = mean_density(1e4)
        unfolded = theory_curve(1e4, eps, zeta_cfg, tables_1m, 20_000, 14, unfolded=True)
        absolute = theory_curve(1e4, eps / dbar, zeta_cfg, tables_1m, 20_000, 14,
                                unfolded=False)
        for term in ("diag", "offdiag"):
            expected = getattr(absolute, term) / dbar**2
            assert np.allclose(getattr(unfolded, term), expected, rtol=1e-15, atol=0.0)

    def test_constant_term(self, zeta_cfg, tables_1m):
        eps = np.array([0.5])
        assert theory_curve(1e4, eps, zeta_cfg, tables_1m).constant_term == 1.0
        absolute = theory_curve(1e4, eps, zeta_cfg, tables_1m, unfolded=False)
        assert absolute.constant_term == pytest.approx(mean_density(1e4) ** 2)

    def test_positive_on_window(self, zeta_cfg, tables_1m):
        eps = np.arange(0.2, 3.0001, 0.05)
        tc = theory_curve(1e4, eps, zeta_cfg, tables_1m)
        assert np.all(tc.total > 0.0)

    def test_limit_chain_decreasing(self, zeta_cfg, tables_1m):
        eps = np.arange(0.2, 3.0001, 0.05)
        devs = []
        for e_height in (1e4, 1e6, 1e8, 1e10):
            tc = theory_curve(e_height, eps, zeta_cfg, tables_1m)
            devs.append(float(np.max(np.abs(tc.total - gue_r2(eps)))))
        assert devs == sorted(devs, reverse=True)

    def test_bin_average_washes_out_oscillations(self, zeta_cfg, tables_1m):
        # far out in eps only the constant term survives averaging; fine
        # sub-bins keep the 5-node rule accurate, group means emulate
        # width-5 windows holding ~5 oscillation periods
        edges = np.linspace(20.0, 30.0, 21)
        tc = theory_on_bins(1e4, edges, zeta_cfg, tables_1m, 20_000, 14)
        avg = bin_average(tc, edges).reshape(2, 10).mean(axis=1)
        # residual envelope modulation leaves ~0.6% at this height
        assert np.all(np.abs(avg - 1.0) < 1e-2)


class TestPlanCache:
    """The cached prime terms and plans of ``_prime_phase_sums`` never change an answer."""

    EDGES = np.linspace(0.0, 3.0, 61)

    @staticmethod
    def curves(centres, tables, zeta_cfg):
        return [theory_on_bins(c, TestPlanCache.EDGES, zeta_cfg, tables, 20_000, 14)
                for c in centres]

    def test_windows_independent_of_order_and_cache(self, zeta_cfg):
        centres = [c for c, _ in pooled_windows(3000.0, 6600.0)]
        assert len(centres) == 18
        tables = build_sieve(20_000)
        forward = self.curves(centres, tables, zeta_cfg)
        # one tile holds every window, so the whole run grids once
        plan = held_terms(tables, 20_000, 14).sums.plan
        assert plan.tile[1:] == (128, 3 * 256 // 4 + 31)
        backward = self.curves(centres[::-1], build_sieve(20_000), zeta_cfg)[::-1]
        alone = [self.curves([c], build_sieve(20_000), zeta_cfg)[0] for c in centres]
        assert held_terms(tables, 20_000, 14).sums.plan is plan
        for a, b, c in zip(forward, backward, alone):
            for name in ("diag", "offdiag", "total"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
                assert np.array_equal(getattr(a, name), getattr(c, name))

    def test_cached_read_equals_cold_sum(self, tables_small):
        terms = paircorr._prime_terms(tables_small, 5000, 6)
        sums = special.DirichletSum(terms.sums.c, terms.sums.x)
        first = np.linspace(0.1, 3.0, 300)
        later = np.linspace(0.3, 2.8, 217)
        tile = special._canonical_tile(sums.x, first)
        assert special._canonical_tile(sums.x, later) == tile
        sums(first)
        plan = sums.plan
        cached = sums(later)
        assert sums.plan is plan
        cold = special.DirichletSum(terms.sums.c, terms.sums.x)(later)
        assert np.array_equal(cached, cold)

    def test_one_tile_per_key(self):
        tables = build_sieve(10_000)
        for lo in (0.1, 40.0, 0.2, 900.0):
            eps = np.linspace(lo, lo + 3.0, 300)
            power, product = paircorr._prime_phase_sums(tables, 5000, 6, eps)
            sums = held_terms(tables, 5000, 6).sums
            assert sums.plan.tile == special._canonical_tile(sums.x, eps)
            # the same answer as on tables with nothing cached
            cold = paircorr._prime_phase_sums(build_sieve(10_000), 5000, 6, eps)
            assert np.array_equal(power, cold[0])
            assert np.array_equal(product, cold[1])
        # each tables keeps the prime terms of the (p_cut, k_cut) it was last read at
        for p_cut in (1000, 2000, 3000):
            paircorr.off_diagonal_product(tables, p_cut, np.array([1.0]))
        held_terms(tables, 3000, 0)
        for p_cut in (1000, 2000):
            with pytest.raises(pytest.fail.Exception, match="no prime terms held"):
                held_terms(tables, p_cut, 0)

    def test_threads_share_one_tables(self):
        # threads that replace each other's plan on one tables still read the
        # answers of tables with nothing cached
        bands = [np.linspace(lo, lo + 3.0, 300) for lo in (0.1, 40.0, 900.0)] * 4
        want = [paircorr._prime_phase_sums(build_sieve(10_000), 5000, 6, b) for b in bands]
        tables = build_sieve(10_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(paircorr._prime_phase_sums, tables, 5000, 6, b)
                           for b in bands]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (p1, q1), (p2, q2) in zip(got, want):
            assert np.array_equal(p1, p2)
            assert np.array_equal(q1, q2)

    def test_no_module_level_cache(self):
        # the prime terms live on the tables, not in a map of paircorr's own
        assert not hasattr(paircorr, "_TERMS")
        assert not hasattr(paircorr, "_TERMS_LOCK")
        assert "weakref" not in vars(paircorr) and "threading" not in vars(paircorr)

    def test_entry_dies_with_its_tables(self):
        tables = build_sieve(10_000)
        paircorr.off_diagonal_product(tables, 5000, np.linspace(0.1, 3.0, 300))
        entry = weakref.ref(held_terms(tables, 5000, 0))
        tables_ref = weakref.ref(tables)
        del tables
        gc.collect()
        assert tables_ref() is None
        assert entry() is None


class TestPooledWindows:
    def test_tiles_the_range(self):
        lo, hi = 3000.0, 6600.0
        windows = pooled_windows(lo, hi)
        assert len(windows) == 18
        start = lo
        for c, w in windows:
            assert c - w / 2.0 == pytest.approx(start, rel=1e-15)
            assert w * mean_density(start) == pytest.approx(200.0, rel=1e-15)
            assert c + w / 2.0 <= hi
            start = c + w / 2.0
        # the next window would pass hi
        assert start + 200.0 / mean_density(start) > hi

    def test_empty_below_one_window(self):
        assert pooled_windows(3000.0, 3000.0 + 199.0 / mean_density(3000.0)) == []

    # a range starting below 2 pi, or with no finite end, would never stop tiling
    @pytest.mark.parametrize("lo,hi", [(1.0, 6600.0), (math.nan, 6600.0), (3000.0, math.inf)])
    def test_rejects_endless_ranges(self, lo, hi):
        with pytest.raises(ValueError, match="finite and exceed 2 pi"):
            pooled_windows(lo, hi)


class TestCompare:
    @pytest.fixture(scope="class")
    def window(self, zeta_cfg, tables_1m, zeros_high):
        est = empirical_r2(zeros_high, 7000.0, 200.0 / mean_density(7000.0), 0.05, 3.0)
        return est, theory_on_bins(7000.0, est.bin_edges, zeta_cfg, tables_1m, 20_000, 14)

    def test_zero_residual_on_identical_input(self, window):
        est, curve = window
        binned = bin_average(curve, est.bin_edges)
        # counts / norms is then the binned theory exactly
        synthetic = replace(est, counts=binned, norms=np.ones_like(est.norms))
        rep = compare([synthetic], [curve])
        assert rep.ms_residual == 0.0
        assert np.all(rep.residuals == 0.0)

    def test_one_window_reports_its_bin_means(self, window):
        est, curve = window
        rep = compare([est], [curve])
        assert np.array_equal(rep.estimate.values, est.values)
        assert np.array_equal(rep.theory, bin_average(curve, est.bin_edges))
        zeros = np.zeros_like(curve.diag)
        for name in ("diag", "offdiag"):
            term = replace(curve, constant_term=0.0, diag=getattr(curve, name), offdiag=zeros)
            alone = bin_average(term, est.bin_edges)
            assert np.array_equal(getattr(rep, name), alone)
        gue = bin_average(gue_on_bins(est.bin_edges), est.bin_edges)
        assert np.array_equal(rep.gue, gue)

    def test_two_equal_windows_weigh_half_each(self, window):
        est, curve = window
        rep = compare([est, est], [curve, curve])
        assert np.array_equal(rep.theory, bin_average(curve, est.bin_edges))

    @pytest.mark.parametrize("n_ests,n_curves", [(0, 0), (1, 2), (2, 1)])
    def test_rejects_empty_and_unequal_lists(self, window, n_ests, n_curves):
        est, curve = window
        with pytest.raises(ValueError, match="one theory curve per estimate"):
            compare([est] * n_ests, [curve] * n_curves)

    def test_grid_mismatch_rejected(self, zeta_cfg, tables_1m, window):
        est, _ = window
        other_edges = np.linspace(0.0, 3.0, 31)
        curve = theory_on_bins(7000.0, other_edges, zeta_cfg, tables_1m, 20_000, 14)
        with pytest.raises(GridMismatchError):
            compare([est], [curve])

    def test_gue_on_bins_total_is_gue(self):
        edges = np.linspace(0.0, 3.0, 61)
        curve = gue_on_bins(edges)
        assert np.allclose(curve.total, gue_r2(curve.epsilons), atol=1e-14)

    def test_scores_the_bins_centred_in_range(self):
        # 0.05 bins to eps = 5: the scored ones run from (0.1, 0.15] to (2.95, 3]
        edges = np.linspace(0.0, 5.0, 101)
        est = CorrelationEstimate(edges, np.ones(100), np.ones(100))
        rep = compare([est], [gue_on_bins(edges)])
        assert np.array_equal(np.flatnonzero(rep.scored), np.arange(2, 60))
        assert rep.ms_residual == rep.ms_gue == float(np.mean((1.0 - rep.gue[2:60]) ** 2))

    def test_scores_nan_with_no_bin_in_range(self):
        edges = np.linspace(0.0, 0.1, 3)
        est = CorrelationEstimate(edges, np.ones(2), np.ones(2))
        rep = compare([est], [gue_on_bins(edges)])
        assert not rep.scored.any()
        assert all(math.isnan(v) for v in (rep.noise_floor, rep.ms_gue, rep.ms_residual))

    def test_single_window_near_7005_within_noise_of_gue(self, zeros_high):
        width = 200.0 / mean_density(7005.0)
        est = empirical_r2(zeros_high, 7005.0, width, 0.05, 3.0)
        rep = compare([est], [gue_on_bins(est.bin_edges)])
        assert rep.ms_gue <= 4.0 * rep.noise_floor


class TestNoiseFloorOracle:
    """The Poisson noise floor against spectra whose pair correlation is the
    GUE curve: pooled windows of random-matrix levels, scored by ``compare``
    against the binned GUE curve, leave a mean square of about one floor."""

    def test_gue_spectra_within_twice_the_floor(self):
        # 18 windows, as many as pooled_windows(3000, 6600) tiles; over seeds
        # 0-49 ms_gue / floor read a median of 0.95, quartiles 0.82-1.07, and
        # 0.61 to 1.61; seed 0 reads 1.13
        rng = np.random.default_rng(0)
        ests = [gue_window(rng) for _ in range(18)]
        edges = ests[0].bin_edges
        rep = compare(ests, [gue_on_bins(edges)] * len(ests))
        assert 0.4 * rep.noise_floor <= rep.ms_gue <= 2.0 * rep.noise_floor
