import math

import numpy as np
import pytest

from zetapair import inversion
from zetapair.inversion import TaperSpec, windowed_inversion


class TestValidation:
    def test_h_zero_rejected(self, tables_small):
        with pytest.raises(ValueError):
            windowed_inversion(0, (1000.0, 1100.0), tables=tables_small)

    def test_eps_cutoff_domain(self, tables_small):
        for bad in (0.0, -1.0, 51.0):
            with pytest.raises(ValueError):
                windowed_inversion(2, (1000.0, 1100.0), eps_cutoff=bad,
                                   tables=tables_small)

    def test_e_range_envelope(self, tables_small):
        with pytest.raises(ValueError):
            windowed_inversion(2, (500.0, 1100.0), tables=tables_small)
        with pytest.raises(ValueError):
            windowed_inversion(2, (1000.0, 2e7), tables=tables_small)

    def test_tables_required(self):
        with pytest.raises(ValueError):
            windowed_inversion(2, (1000.0, 1100.0))

    # a zero eps roll gave a RuntimeWarning and a row with ok=true, a
    # negative E roll a ZeroDivisionError
    @pytest.mark.parametrize("field,value", [
        ("eps_roll", 0.0), ("eps_roll", -3.0), ("eps_roll", math.nan),
        ("e_roll", -1.0), ("e_roll", math.inf), ("eps_outer", math.inf),
        ("eps_outer", math.nan),
    ])
    def test_taper_rejects_bad_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            TaperSpec(**{field: value})


class TestDegenerateWindows:
    def test_zero_width_is_diagnostic_failure(self, tables_small):
        res = windowed_inversion(2, (1000.0, 1000.0), tables=tables_small)
        assert not res.ok
        assert math.isnan(res.estimate)
        assert "error" in res.diagnostics

    def test_too_few_periods_is_diagnostic_failure(self, tables_small):
        res = windowed_inversion(2, (1000.0, 1030.0), tables=tables_small)
        assert not res.ok
        assert "error" in res.diagnostics


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
        diag = small_window[2].diagnostics
        for key in (
            "eps_support",
            "eps_roll",
            "e_roll",
            "resonance_band",
            "band_leakage",
            "quad_error_est",
            "imag_fraction",
            "normalization",
        ):
            assert key in diag

    def test_taper_overrides_respected(self, tables_small):
        taper = TaperSpec(eps_roll=40.0, e_roll=8.0)
        res = windowed_inversion(2, (1500.0, 1560.0), taper=taper,
                                 tables=tables_small)
        assert res.diagnostics["eps_roll"] == 40.0
        assert res.diagnostics["e_roll"] == 8.0
