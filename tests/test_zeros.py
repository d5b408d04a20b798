import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetapair import zeros
from zetapair.special import TWO_PI
from zetapair.zeros import (
    IncompleteEnumerationError,
    ZeroList,
    ZeroTableFormatError,
    compute_zeros,
    counting_check,
    gram_point,
    load_zeros,
    rs_theta,
    save_zeros,
    smooth_count,
    unfold,
    zfunc,
)


class TestIngestion:
    def test_three_line_table(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# comment\n14.134725\n\n21.022040\n25.010858\n")
        zl = load_zeros(p)
        assert len(zl) == 3
        assert zl.range == (14.134725, 25.010858)

    def test_offset_header(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("#offset 1000.0\n0.5\n1.5\n")
        zl = load_zeros(p)
        assert np.allclose(zl.ordinates, [1000.5, 1001.5])

    def test_empty_file_is_error(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ZeroTableFormatError):
            load_zeros(p)

    def test_out_of_order_names_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.1\n21.0\n20.9\n25.0\n")
        with pytest.raises(ZeroTableFormatError) as err:
            load_zeros(p)
        assert err.value.line == 3

    def test_unparsable_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.1\nbogus\n")
        with pytest.raises(ZeroTableFormatError) as err:
            load_zeros(p)
        assert err.value.line == 2

    # each was ingested, and zeros check called the table complete
    @pytest.mark.parametrize("text,line", [
        ("14.1\ninf\n", 2), ("#offset nan\n14.1\n21.0\n", 1), ("14.1\nnan\n21.0\n", 2),
    ])
    def test_non_finite_names_line(self, tmp_path, text, line):
        p = tmp_path / "z.txt"
        p.write_text(text)
        with pytest.raises(ZeroTableFormatError, match=f"line {line}: non-finite") as err:
            load_zeros(p)
        assert err.value.line == line

    @pytest.mark.parametrize("ordinates,bounds", [
        ([14.1, math.nan], (10.0, 30.0)), ([14.1, math.inf], (10.0, math.inf)),
        ([14.1], (math.nan, 30.0)),
    ])
    def test_zero_list_rejects_non_finite(self, ordinates, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            ZeroList(np.array(ordinates), bounds, False)

    def test_fixture_is_complete(self, zero_fixture_path):
        zl = load_zeros(zero_fixture_path)
        assert len(zl) == 100
        assert zl.claimed_complete

    def test_save_load_roundtrip(self, tmp_path, zero_fixture_path):
        zl = load_zeros(zero_fixture_path)
        path = save_zeros(zl, tmp_path / "out.txt")
        again = load_zeros(path)
        assert np.array_equal(again.ordinates, zl.ordinates)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(10.0, 1e5, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=40))
    def test_save_load_roundtrip_drawn(self, tmp_path_factory, drawn):
        ordinates = []
        for v in sorted(drawn):
            if not ordinates or v - ordinates[-1] >= 1e-9:
                ordinates.append(v)
        zl = ZeroList(np.array(ordinates), (10.0, 1e5), True)
        again = load_zeros(save_zeros(zl, tmp_path_factory.mktemp("rt") / "z.txt"))
        # each ordinate is written as the shortest decimal that reads back to it
        assert np.array_equal(again.ordinates, zl.ordinates)


class TestComputation:
    def test_count_below_100(self, zeros_low):
        sel = zeros_low.ordinates[zeros_low.ordinates <= 100.0]
        assert len(sel) == 29
        smooth = (100 / TWO_PI) * math.log(100 / (TWO_PI * math.e)) + 7.0 / 8.0
        assert abs(len(sel) - smooth) < 1.0

    def test_first_zero_against_fixture(self, zeros_low, zero_fixture_path):
        table = load_zeros(zero_fixture_path)
        assert abs(zeros_low.ordinates[0] - table.ordinates[0]) < 1e-6
        assert abs(zeros_low.ordinates[0] - 14.134725) < 1e-6

    def test_overlap_with_ingested_table(self, zeros_low, zero_fixture_path):
        table = load_zeros(zero_fixture_path)
        mine = zeros_low.ordinates[: len(table)]
        assert np.max(np.abs(mine - table.ordinates)) < 1e-6

    def test_z_sign_changes_between_zeros(self, zeros_low):
        zs = zeros_low.ordinates[:40]
        mids = 0.5 * (zs[:-1] + zs[1:])
        signs = np.sign(zfunc(mids))
        assert np.all(signs[1:] * signs[:-1] < 0)

    def test_subrange_reproducibility(self, zeros_low):
        sub = compute_zeros(100.0, 200.0)
        ref = zeros_low.ordinates[
            (zeros_low.ordinates > 100.0) & (zeros_low.ordinates <= 200.0)
        ]
        assert len(sub) == len(ref)
        assert np.max(np.abs(sub.ordinates - ref)) < 1e-9

    def test_envelope_validated(self):
        with pytest.raises(ValueError):
            compute_zeros(5.0, 100.0)
        with pytest.raises(ValueError):
            compute_zeros(100.0, 2e5)
        with pytest.raises(ValueError):
            compute_zeros(100.0, 50.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.array([3000.0, math.nan])])
    def test_zfunc_rejects_non_finite(self, t):
        # nan and inf went through to a nan Z, inf with five RuntimeWarnings
        with pytest.raises(ValueError, match="Z evaluation needs a finite t"):
            zfunc(t)

    def test_gram_points_interleave_low_zeros(self, zeros_low):
        gs = np.array([gram_point(n) for n in range(-1, 30)])
        assert abs(rs_theta(gs[0]) + math.pi) < 1e-9
        # Gram's law usually holds down here: one zero per Gram interval
        hits = np.searchsorted(zeros_low.ordinates, gs)
        assert np.all(np.diff(hits)[:20] >= 0)


class TestCallIndependence:
    """Above the switch a Z value, and so an ordinate, depends on its t alone."""

    def test_zfunc_above_the_switch(self):
        t = np.random.default_rng(20261020).uniform(1000.0, 99_000.0, 60)
        whole = zfunc(t)
        assert np.array_equal(whole, [zfunc(x) for x in t])
        assert np.array_equal(whole, np.concatenate([zfunc(t[:30]), zfunc(t[30:])]))

    def test_ordinates_above_the_switch_independent_of_the_range(self, zeros_high):
        o = zeros_high.ordinates
        sub = compute_zeros(5000.0, 5600.0)
        assert np.array_equal(sub.ordinates, o[(o > 5000.0) & (o <= 5600.0)])


class TestRefine:
    @staticmethod
    def fixed_sweeps(lo, hi, z_lo):
        # the reference: 48 bisection sweeps, with no early stop
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            zm = zfunc(mid)
            take_hi = np.signbit(zm) != np.signbit(z_lo)
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
            z_lo = np.where(take_hi, z_lo, zm)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("t_lo, t_hi", [(2990.0, 3100.0), (99_000.0, 99_040.0)])
    def test_brackets_a_sign_change_near_the_bisection_root(self, monkeypatch, t_lo, t_hi):
        pts = np.linspace(t_lo, t_hi, 401)
        zv = zfunc(pts)
        flip = np.nonzero(np.signbit(zv[1:]) != np.signbit(zv[:-1]))[0]
        assert len(flip) > 20
        lo, hi = pts[flip], pts[flip + 1]
        want = self.fixed_sweeps(lo, hi, zv[flip])

        seen = []

        def counted(t):
            seen.append(np.array(t, copy=True))
            return zfunc(t)

        monkeypatch.setattr(zeros, "zfunc", counted)
        got = zeros._refine(lo, hi, zv[flip], zv[flip + 1])
        monkeypatch.undo()

        assert np.all((got > lo) & (got < hi))
        # the computed Z is rounding noise within about 10 eps t of a zero at
        # these heights; 64 eps t either side its sign is clean
        delta = 64 * np.finfo(np.float64).eps * got
        assert np.all(np.signbit(zfunc(got - delta)) != np.signbit(zfunc(got + delta)))
        # measured: within 6.0e-16 t (2990..3100) and 8.8e-16 t (99000..99040)
        # of the bisection reference, which the same noise limits
        assert np.all(np.abs(got - want) <= 16 * np.finfo(np.float64).eps * got)
        # every Z point lies in one bracket; measured at most 10 per bracket
        per_bracket = np.bincount(np.searchsorted(hi, np.concatenate(seen)), minlength=len(lo))
        assert len(per_bracket) == len(lo)
        assert per_bracket.max() <= 16

    def test_stops_where_z_vanishes(self, monkeypatch):
        # Z(t) = t - 3 on brackets whose secant point is the root itself
        monkeypatch.setattr(zeros, "zfunc", lambda t: t - 3.0)
        got = zeros._refine(np.array([2.0, 1.0]), np.array([4.0, 7.0]),
                            np.array([-1.0, -2.0]), np.array([1.0, 4.0]))
        assert np.array_equal(got, [3.0, 3.0])


class TestGramBlocks:
    def test_unresolved_block_is_named(self, monkeypatch):
        # with no subdivision the first Gram's-law failure above 270, a block
        # of two Gram intervals whose middle Gram point is bad, stays open
        monkeypatch.setattr(zeros, "_MAX_DEPTH", 0)
        with pytest.raises(IncompleteEnumerationError, match="found 0 of 2") as err:
            compute_zeros(270.0, 300.0)
        lo, hi = err.value.block
        assert type(lo) is float and type(hi) is float
        assert lo == pytest.approx(280.802429, abs=1e-6)
        assert hi == pytest.approx(284.104476, abs=1e-6)

    def test_one_z_call_per_depth(self, monkeypatch):
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return zfunc(t)

        monkeypatch.setattr(zeros, "zfunc", counted)
        zl = compute_zeros(2990.0, 6610.0)
        assert len(zl) == 3810
        # measured 24: the Gram points, 6 block depths at most, the refinement
        # sweeps; one call per Gram block made 742
        assert len(calls) <= 40


class TestGramPoints:
    def test_theta_residual(self):
        n = np.arange(-1, 7001)
        g = gram_point(n)
        assert np.all(np.diff(g) > 0)
        assert np.max(np.abs(rs_theta(g) - n * math.pi)) <= 1e-10

    def test_array_equals_scalar_calls(self):
        n = np.concatenate([np.arange(-1, 60), np.arange(60, 140_000, 997)])
        g = gram_point(n)
        scalars = np.array([gram_point(int(k)) for k in n])
        assert np.array_equal(g, scalars)
        assert isinstance(gram_point(5), float)
        assert gram_point(np.array(5)) == g[6]

    def test_against_mpmath(self):
        # measured: 2.9e-12 at n = -1 (t ~ 9.67, where the asymptotic
        # theta's truncation shows) and 3.3e-16 relative for n >= 0
        assert abs(gram_point(-1) - float(mpmath.grampoint(-1))) <= 1e-11
        for n in [0, 1, 2, 3, 5, 8, 13, 21, 34, 100, 1000, 7000, 40_000, 138_000]:
            ref = float(mpmath.grampoint(n))
            assert abs(gram_point(n) - ref) <= 1e-15 * ref

    def test_padding_reaches_past_a_bad_end_point(self, monkeypatch):
        n = 2010  # (-1)^n Z(g_n) < 0: a bad Gram point
        assert (-1.0) ** n * zfunc(gram_point(n)) < 0
        # t_max just below g_(n-2) puts the last index of the range at n
        t_max = gram_point(n - 2) - 1e-6
        zl = compute_zeros(t_max - 20.0, t_max)
        assert not counting_check(zl).flagged
        monkeypatch.setattr(zeros, "_ANCHOR_PAD", 0)
        with pytest.raises(IncompleteEnumerationError, match="above"):
            compute_zeros(t_max - 20.0, t_max)

    def test_rejects_below_floor(self):
        with pytest.raises(ValueError):
            gram_point(-2)
        with pytest.raises(ValueError):
            gram_point(np.array([0, 5, -3]))

    @pytest.mark.parametrize("n", [math.nan, math.inf, np.array([5.0, math.inf])])
    def test_rejects_non_finite(self, n):
        with pytest.raises(ValueError, match="a Gram point needs a finite index"):
            gram_point(n)


class TestCounting:
    def test_computed_range_consistent(self, zeros_low):
        rep = counting_check(zeros_low)
        assert abs(rep.discrepancy) <= 1.0
        assert not rep.flagged

    def test_smooth_count_value(self):
        assert smooth_count(100.0) == pytest.approx(29.0, abs=0.2)

    def test_degenerate_range(self):
        zl = ZeroList(np.array([50.0]), (50.0, 50.0), False)
        rep = counting_check(zl)
        assert rep.expected == 0.0

    def test_truncated_table_flagged(self, tmp_path, zeros_low):
        decimated = ZeroList(zeros_low.ordinates[::2], zeros_low.range, False)
        rep = counting_check(decimated)
        assert rep.flagged

    def test_ingested_table_counts_above_its_first_ordinate(self, zero_fixture_path):
        # the smooth count covers (lo, hi], and the table's range starts at
        # its first ordinate, so that one is left out of the count
        rep = counting_check(load_zeros(zero_fixture_path))
        assert rep.actual == 99
        assert rep.discrepancy == pytest.approx(-0.36, abs=0.01)
        assert not rep.flagged

    def test_table_missing_two_zeros_flagged(self, tmp_path, zero_fixture_path):
        # counting the first ordinate as well read -1.36 here and passed
        lines = [l for l in zero_fixture_path.read_text().splitlines() if not l.startswith("#")]
        del lines[49], lines[1]
        short = tmp_path / "short.txt"
        short.write_text("\n".join(lines) + "\n")
        zl = load_zeros(short)
        rep = counting_check(zl)
        assert rep.discrepancy == pytest.approx(-2.36, abs=0.01)
        assert rep.flagged
        assert not zl.claimed_complete


class TestUnfold:
    def test_identity_scaling_where_density_is_one(self):
        # dbar(E) = 1 at E = 2 pi e^(2 pi); unfolding there rescales by 1
        center = TWO_PI * math.exp(TWO_PI)
        zl = ZeroList(
            np.array([3000.0, 3100.0, center, 3500.0]),
            (2990.0, 3600.0),
            False,
        )
        x = unfold(zl, center)
        assert np.allclose(x, zl.ordinates, rtol=1e-12)

    def test_order_preserved_and_mean_gap(self, zeros_low):
        x = unfold(zeros_low, 500.0)
        assert np.all(np.diff(x) > 0)
        window = x[(zeros_low.ordinates > 400) & (zeros_low.ordinates < 600)]
        assert np.mean(np.diff(window)) == pytest.approx(1.0, abs=0.05)

    def test_empty_rejected(self):
        zl = ZeroList(np.array([20.0]), (10.0, 30.0), False)
        with pytest.raises(ValueError):
            unfold(zl, 40.0)


class TestHighRange:
    def test_count_matches_smooth(self, zeros_high):
        rep = counting_check(zeros_high)
        assert abs(rep.discrepancy) <= 2.0

    def test_close_pair_resolved(self, zeros_high):
        sel = zeros_high.ordinates[
            (zeros_high.ordinates > 7005.0) & (zeros_high.ordinates < 7005.2)
        ]
        assert len(sel) == 2
        assert sel[1] - sel[0] < 0.05

    def test_unfolded_spacing_mean(self, zeros_high):
        x = unfold(zeros_high, 7500.0)
        assert abs(np.mean(np.diff(x)) - 1.0) <= 0.02


class TestOrdinateAccuracy:
    """Computed ordinates against roots of mpmath's Z (``siegelz``) at 20 digits."""

    @staticmethod
    def oracle(t):
        with mpmath.workdps(20):
            return float(mpmath.findroot(mpmath.siegelz, mpmath.mpf(t)))

    def test_below_the_switch(self, zeros_low):
        # Euler-Maclaurin Z: measured at most 6.8e-13 over 16 sampled zeros,
        # at the zero near 986.756; the rest are within 3.4e-13
        o = zeros_low.ordinates
        for t in (o[0], o[len(o) // 2], o[np.searchsorted(o, 986.756)], o[-1]):
            assert abs(t - self.oracle(t)) <= 1e-12

    def test_above_the_switch(self, zeros_high):
        # Riemann-Siegel Z with the leading correction: measured 6.1e-6 at
        # t = 2990.42, 5.3e-5 at 5643.09 and 2.9e-6 at 12009.75; none of the
        # three is a close pair, where the error is largest (next test)
        o = zeros_high.ordinates
        for t in (o[0], o[np.searchsorted(o, 5643.0)], o[-1]):
            assert abs(t - self.oracle(t)) <= 1e-4

    def test_close_pair_above_the_switch(self, zeros_high):
        # the worst case measured: mpmath roots 4589.6434 and 4589.7488 (gap
        # 0.105) come out 3.04e-4 low and 2.77e-4 high.  The bound is set by
        # the Riemann-Siegel Z with its leading correction term alone; more
        # correction terms would tighten it
        o = zeros_high.ordinates
        pair = o[np.searchsorted(o, 4589.6) :][:2]
        assert pair[1] - pair[0] < 0.11
        for t in pair:
            assert abs(t - self.oracle(t)) <= 4e-4
