import numpy as np
import pytest

from zetapair import inversion
from zetapair.inversion import windowed_inversion
from zetapair.singular import alpha_product, twin_prime_constant


class TestValidation:
    def test_h_zero_rejected(self, tables_small):
        with pytest.raises(ValueError):
            windowed_inversion(0, (1000.0, 1100.0), tables=tables_small)

    @pytest.mark.parametrize("bad", [2.5, np.float64(4.0)])
    def test_non_integral_h_raises(self, tables_small, bad):
        # int() truncated 2.5 to the shift 2
        with pytest.raises(TypeError):
            windowed_inversion(bad, (1000.0, 1100.0), tables=tables_small)

    def test_eps_cutoff_domain(self, tables_small):
        for bad in (0.0, -1.0, 51.0):
            with pytest.raises(ValueError):
                windowed_inversion(2, (1000.0, 1100.0), eps_cutoff=bad,
                                   tables=tables_small)

    def test_prime_cutoff_domain(self, tables_small):
        # a prime cutoff below 2 would empty the Euler product and still print a value
        with pytest.raises(ValueError, match="prime cutoff must be >= 2, got 0"):
            windowed_inversion(2, (1000.0, 1100.0), tables=tables_small, p_cut=0)

    def test_e_range_envelope(self, tables_small):
        with pytest.raises(ValueError):
            windowed_inversion(2, (500.0, 1100.0), tables=tables_small)
        with pytest.raises(ValueError):
            windowed_inversion(2, (1000.0, 2e7), tables=tables_small)

    @pytest.mark.parametrize("h, e_range, n_eps, n_e", [
        (2, (1000.0, 1e7), 574_515_291, 314_279_997_444),
        (1000, (1000.0, 1100.0), 1_571_178, 301_434),
    ])
    def test_node_bound_refuses_before_any_work(self, tables_small, monkeypatch,
                                                h, e_range, n_eps, n_e):
        # the first ran out of memory building its quadrature grid
        calls = []
        monkeypatch.setattr(inversion, "_raw_integral", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"needs {n_eps} eps and {n_e} E nodes"):
            windowed_inversion(h, e_range, tables=tables_small)
        assert calls == []

    def test_largest_documented_call_passes_the_node_bound(self, tables_small, monkeypatch):
        # h = 12 on (1000, 2000); the quadrature itself is stubbed out
        calls = []

        def stub(*args):
            calls.append(args)
            return 1.0 + 0j, 1.0 + 0j, 1.0

        monkeypatch.setattr(inversion, "_raw_integral", stub)
        res = windowed_inversion(12, (1000.0, 2000.0), tables=tables_small)
        assert len(calls) == 1
        assert (res.diagnostics["eps_nodes"], res.diagnostics["e_nodes"]) == (200_844, 53_151)

    def test_tables_required(self, tables_small):
        # a required keyword: no call without it, and none that passes it by position
        with pytest.raises(TypeError, match="tables"):
            windowed_inversion(2, (1000.0, 1100.0))
        with pytest.raises(TypeError):
            windowed_inversion(2, (1000.0, 1100.0), 25.0, tables_small)


class TestDegenerateWindows:
    # each returned a nan estimate with ok false
    @pytest.mark.parametrize("e_range, width", [
        ((1000.0, 1000.0), "0"), ((1100.0, 1000.0), "-100"), ((1000.0, 1030.0), "30"),
    ], ids=["empty", "reversed", "narrow"])
    def test_window_narrower_than_eight_periods_raises(self, tables_small, e_range, width):
        with pytest.raises(ValueError, match=f"of width {width} holds too few oscillation periods"):
            windowed_inversion(2, e_range, tables=tables_small)


@pytest.fixture(scope="module")
def small_window(tables_small):
    return {
        h: windowed_inversion(h, (1500.0, 1560.0), tables=tables_small)
        for h in (2, 3)
    }


class TestNestedRule:
    def test_kronrod_and_gauss_exactness(self):
        nodes, fine, coarse = inversion._gk_rule()
        assert np.allclose(nodes[coarse > 0], np.polynomial.legendre.leggauss(10)[0], atol=1e-15)
        for deg in range(32):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert abs(fine @ nodes**deg - exact) < 1e-14
            if deg < 20:
                assert abs(coarse @ nodes**deg - exact) < 1e-14
        # the 10-point rule is not exact one degree higher
        assert abs(coarse @ nodes**20 - 2.0 / 21) > 1e-8

    def test_one_evaluation_per_node(self, tables_small, monkeypatch):
        counts = {}

        def counting(name, fn):
            def wrapped(*args):
                calls, points = counts.get(name, (0, 0))
                counts[name] = (calls + 1, points + np.size(args[-1]))
                return fn(*args)
            monkeypatch.setattr(inversion, name, wrapped)

        counting("zeta_one_line", inversion.zeta_one_line)
        counting("off_diagonal_product", inversion.off_diagonal_product)
        res = windowed_inversion(2, (1500.0, 1560.0), tables=tables_small)
        n_eps = res.diagnostics["eps_nodes"]
        assert counts == {
            "zeta_one_line": (1, n_eps),
            "off_diagonal_product": (1, n_eps),
        }


class TestContrast:
    def test_estimates_converged(self, small_window):
        for res in small_window.values():
            assert res.ok
            assert res.diagnostics["band_leakage"] == 0.0

    def test_diagnostics_hold_exactly_five_keys(self, small_window):
        for res in small_window.values():
            assert set(res.diagnostics) == {
                "band_leakage", "eps_nodes", "e_nodes", "quad_error_est", "imag_fraction"}

    def test_even_beats_odd(self, small_window):
        assert abs(small_window[3].estimate) < abs(small_window[2].estimate)

    def test_estimates_pinned(self, small_window):
        # values of the earlier two-pass Gauss-Legendre quadrature
        assert small_window[2].estimate == pytest.approx(1.0971306607838847, abs=1e-7)
        assert small_window[3].estimate == pytest.approx(-0.022469808016278237, abs=1e-7)

    def test_even_shift_lands_near_series_scale(self, small_window):
        # alpha(2) ~ 1.32; a 60-wide window holds ~10 unit-atoms, so the
        # sampling scatter is generous
        assert 0.7 <= small_window[2].estimate <= 2.0

    def test_negative_shift_matches_positive(self, tables_small):
        pos = windowed_inversion(2, (1500.0, 1560.0), tables=tables_small)
        neg = windowed_inversion(-2, (1500.0, 1560.0), tables=tables_small)
        assert neg.estimate == pytest.approx(pos.estimate, rel=1e-9)

    def test_diagnostics_fields(self, small_window):
        # what the inversion worked out; the caller's own inputs are not echoed
        assert set(small_window[2].diagnostics) == {
            "band_leakage",
            "eps_nodes",
            "e_nodes",
            "quad_error_est",
            "imag_fraction",
        }


class TestOracle:
    # the prime side shares only the sieve with the inversion; with prime
    # cutoff P both give the singular series of the primes up to P.  Measured
    # est/alpha - 1: -2.9e-4 (h = 2), -2.2e-4 (4), -6.2e-6 (6); est: -1.7e-5
    # (h = 1), +2.6e-7 (3).  Elsewhere the error follows the window's width
    # and height, as the module docstring's table shows: -1.06e-2 (h = 2) and
    # +1.98e-2 (6) on (1000, 1100), +1.52e-2 (2) and -9.4e-4 (6) on
    # (3000, 3500), and odd h at most 4.6e-3.  Two cells of the table are
    # pinned at 3-4x: +1.50e-2 (h = 2) on (4000, 4300), and -6.0e-7 (h = 1)
    # and +4.5e-9 (3) on (1000, 1900).  Wider bands, |h| (E_hi - E_lo) past
    # 3000, run into the direct sum and take seconds each.
    @pytest.mark.parametrize("h, window, even_tol, odd_tol", [
        *(pytest.param(h, (1000.0, 1500.0), 1e-3, 1e-4, id=str(h)) for h in (1, 2, 3, 4, 6)),
        *(pytest.param(h, w, 2.5e-2, 1e-2, id=f"{h}-{w[0]:g}:{w[1]:g}")
          for w in ((1000.0, 1100.0), (3000.0, 3500.0)) for h in (1, 2, 3, 6)),
        pytest.param(2, (4000.0, 4300.0), 5e-2, None, id="2-4000:4300"),
        *(pytest.param(h, (1000.0, 1900.0), None, 2.5e-6, id=f"{h}-1000:1900") for h in (1, 3)),
    ])
    def test_estimate_is_alpha(self, tables_1m, h, window, even_tol, odd_tol):
        res = windowed_inversion(h, window, tables=tables_1m, p_cut=4000)
        assert res.ok
        alpha = alpha_product(h, tables_1m, twin_prime_constant(4000, tables_1m)).value
        if h % 2:
            assert alpha == 0.0 and abs(res.estimate) <= odd_tol
        else:
            assert abs(res.estimate / alpha - 1.0) <= even_tol
