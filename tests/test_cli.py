import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from zetapair import cli, identities
from zetapair.cli import main
from zetapair.config import RunConfig


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestGue:
    def test_grid_rows_and_unit_value(self):
        code, out, _ = run_cli("r2", "gue", "--grid", "0:3:0.05")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 61
        at_one = [r for r in rows if abs(float(r["epsilon"]) - 1.0) < 1e-12]
        assert float(at_one[0]["value"]) == pytest.approx(1.0)


class TestGridErrors:
    MODE_ARGS = {"gue": (), "theory": ("--height", "10000", "--prime-cutoff", "10000")}

    # a zero step, a non-finite stop, a stop below the start
    @pytest.mark.parametrize("grid", ["0:3:0", "0:inf:0.1", "3:0.2:0.05"])
    @pytest.mark.parametrize("mode", ["gue", "theory"])
    def test_bad_grid_names_the_form(self, mode, grid):
        code, out, err = run_cli("r2", mode, "--grid", grid, *self.MODE_ARGS[mode])
        assert (code, out) == (1, "")
        assert err == f"error: expected --grid START:STOP:STEP, got {grid!r}\n"


class TestAlpha:
    def test_product_odd_is_zero(self):
        code, out, _ = run_cli(
            "alpha", "--method", "product", "--h", "3", "--prime-cutoff", "10000"
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["value"]) == 0.0

    def test_h_zero_is_domain_error(self):
        code, _, err = run_cli(
            "alpha", "--method", "product", "--h", "0", "--prime-cutoff", "1000"
        )
        assert code == 1
        assert "error" in err

    def test_series_reports_truncation(self):
        code, out, _ = run_cli(
            "--sieve-limit", "200000",
            "--config", "/dev/null",
            "alpha", "--method", "series", "--h", "2", "--prime-cutoff", "10000",
        )
        # series cutoff (1e6 default) exceeds the forced sieve limit
        assert code == 1

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_sample_length_below_one_is_not_a_sieve_error(self, length):
        code, out, err = run_cli(
            "alpha", "--method", "empirical", "--h", "2",
            "--sample-length", length, "--prime-cutoff", "1000",
        )
        assert (code, out) == (1, "")
        assert "sample length must be >= 1" in err

    @pytest.mark.parametrize("method, args", [
        ("empirical", ("--sample-length", "100000")),
        ("series", ("--prime-cutoff", "2000000")),
    ])
    def test_sieve_covers_the_prime_cutoff(self, method, args):
        # the reference_product column needs C2 at the prime cutoff, which
        # here lies above the series cutoff or the sample window
        code, out, err = run_cli("alpha", "--method", method, "--h", "2", *args)
        assert (code, err) == (0, "")
        cutoff = args[1] if method == "series" else "1000000"
        _, ref, _ = run_cli(
            "alpha", "--method", "product", "--h", "2", "--prime-cutoff", cutoff
        )
        row = parse_csv(out)[0]
        assert row["method"] != "product"
        assert row["reference_product"] == parse_csv(ref)[0]["value"]

    def test_usage_error_is_exit_2(self):
        code, _, _ = run_cli("alpha", "--method", "bogus", "--h", "2")
        assert code == 2

    def test_unknown_flag_is_exit_2(self):
        code, _, _ = run_cli("constants", "--no-such-flag")
        assert code == 2


class TestOutputContract:
    def test_json_mirrors_csv_fields(self):
        args = ("alpha", "--method", "product", "--h", "2,6", "--prime-cutoff", "10000")
        _, out_csv, _ = run_cli(*args)
        _, out_json, _ = run_cli("--format", "json", *args)
        header = out_csv.splitlines()[0].split(",")
        rows = json.loads(out_json)["rows"]
        assert list(rows[0].keys()) == header

    def test_json_writes_non_finite_as_null(self):
        # a window too narrow to invert reports nan; RFC 8259 has no NaN
        def strict(name):
            raise ValueError(f"non-standard JSON constant {name}")

        args = ("invert", "--h", "2", "--window", "1000:1030")
        code, out, err = run_cli("--format", "json", *args)
        assert code == 1
        assert "holds too few oscillation periods" in err
        row = json.loads(out, parse_constant=strict)["rows"][0]
        assert row["estimate"] is None and row["quad_error_est"] is None
        assert row["ok"] is False
        _, out_csv, _ = run_cli(*args)
        assert parse_csv(out_csv)[0]["estimate"] == "nan"

    def test_byte_identical_reruns(self):
        args = ("--seed", "77", "identities", "--suite", "local-factor")
        _, a, _ = run_cli(*args)
        _, b, _ = run_cli(*args)
        assert a == b

    def test_full_precision_floats(self):
        _, out, _ = run_cli("constants", "--prime-cutoff", "1000")
        value = parse_csv(out)[0]["value"]
        assert len(value.split(".")[1]) >= 15

    def test_python_dash_m_matches_main(self):
        args = ["alpha", "--method", "product", "--h", "2,6,30"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "zetapair", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        code, out, _ = run_cli(*args)
        assert proc.returncode == code == 0
        assert proc.stdout == out


class TestZeros:
    def test_compute_emits_ordinates(self):
        code, out, _ = run_cli("zeros", "compute", "--t-min", "10", "--t-max", "50")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        assert float(rows[0]["ordinate"]) == pytest.approx(14.134725, abs=1e-6)

    def test_compute_out_then_check(self, tmp_path):
        table = tmp_path / "zeros.txt"
        code, out, _ = run_cli(
            "zeros", "compute", "--t-min", "10", "--t-max", "100",
            "--out", str(table),
        )
        assert code == 0
        assert table.is_file()
        code, out, _ = run_cli("zeros", "check", "--path", str(table))
        assert code == 0
        row = parse_csv(out)[0]
        assert row["flagged"] == "false"
        assert int(row["count"]) == 29

    def test_check_flags_decimated_table(self, tmp_path, zero_fixture_path):
        lines = [
            l for l in zero_fixture_path.read_text().splitlines()
            if not l.startswith("#")
        ]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines[::2]) + "\n")
        code, out, _ = run_cli("zeros", "check", "--path", str(bad))
        assert code == 1
        assert parse_csv(out)[0]["flagged"] == "true"

    def test_ingest_roundtrip(self, zero_fixture_path):
        code, out, _ = run_cli("zeros", "ingest", "--path", str(zero_fixture_path))
        assert code == 0
        assert len(parse_csv(out)) == 100


class TestR2Pipeline:
    def test_empirical_and_compare(self, tmp_path, zeros_low):
        from zetapair.zeros import save_zeros

        table = tmp_path / "z.txt"
        save_zeros(zeros_low, table)
        code, out, _ = run_cli(
            "r2", "empirical", "--zeros", str(table), "--center", "600",
            "--width", "700",
        )
        assert code == 0
        assert len(parse_csv(out)) == 60
        code, out, err = run_cli(
            "r2", "compare", "--zeros", str(table), "--center", "600",
            "--width", "700", "--prime-cutoff", "10000",
        )
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0].keys()) == [
            "epsilon", "empirical", "theory_total", "theory_diag",
            "theory_off", "constant", "residual",
        ]
        assert "ms_residual" in err
        for row in rows:
            total = (
                float(row["constant"]) + float(row["theory_diag"])
                + float(row["theory_off"])
            )
            assert total == pytest.approx(float(row["theory_total"]), rel=1e-10)
            assert float(row["empirical"]) - float(row["theory_total"]) == (
                pytest.approx(float(row["residual"]), rel=1e-10)
            )

    def test_theory_grid(self):
        code, out, _ = run_cli(
            "r2", "theory", "--grid", "0.5:1.5:0.5", "--height", "10000",
            "--prime-cutoff", "10000",
        )
        assert code == 0
        assert len(parse_csv(out)) == 3


class TestCutoffsBelowTheirDomain:
    # a prime cutoff below 2 or a power cutoff below 1 would empty a sum or a
    # product and still print plausible values
    @pytest.mark.parametrize("argv, message", [
        (("invert", "--h", "2", "--window", "1000:1100", "--prime-cutoff", "0"),
         "prime cutoff must be >= 2, got 0"),
        (("r2", "theory", "--grid", "0.5:1.5:0.5", "--height", "10000",
          "--prime-cutoff", "0"), "prime cutoff must be >= 2, got 0"),
        (("r2", "theory", "--grid", "0.5:1.5:0.5", "--height", "10000",
          "--power-cutoff", "-3"), "power cutoff must be >= 1, got -3"),
    ])
    def test_exit_1_with_a_message(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestNonFiniteHeight:
    # nan stopped on "cannot convert float NaN to integer", inf on the pole
    # guard, and a nan centre on "only 0 zeros in window"
    @pytest.mark.parametrize("height", ["nan", "inf"])
    def test_theory_height(self, height):
        code, out, err = run_cli(
            "r2", "theory", "--grid", "0.5:1.5:0.5", "--height", height,
            "--prime-cutoff", "10000",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: height must be finite and exceed 2 pi for a positive mean density,"
            f" got {float(height)}\n"
        )

    @pytest.mark.parametrize("center", ["nan", "inf"])
    def test_compare_center(self, tmp_path, zeros_low, center):
        from zetapair.zeros import save_zeros

        table = tmp_path / "z.txt"
        save_zeros(zeros_low, table)
        code, out, err = run_cli(
            "r2", "compare", "--zeros", str(table), "--center", center,
            "--width", "700", "--prime-cutoff", "10000",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: window needs a finite centre and a finite positive width,"
            f" got {float(center)}, 700.0\n"
        )


class TestZeroCache:
    def empirical(self, cache_dir, t_range, width="400"):
        return run_cli(
            "--cache-dir", str(cache_dir), "r2", "empirical", "--compute", t_range,
            "--center", "1200", "--width", width,
        )

    def test_rerun_from_cache_is_identical(self, tmp_path):
        first = self.empirical(tmp_path, "1000:1400")
        assert first[0] == 0
        assert self.empirical(tmp_path, "1000:1400") == first
        assert len(list(tmp_path.glob("zeros-*"))) == 1

    def test_close_ranges_do_not_share_a_file(self, tmp_path):
        for t_min in ("1000.12345", "1000.12349"):
            code, _, _ = self.empirical(tmp_path, f"{t_min}:1400", width="380")
            assert code == 0
        assert len(list(tmp_path.glob("zeros-*"))) == 2

    def test_cached_ordinates_are_the_computed_ones(self, tmp_path):
        # twelve fixed decimals moved 319 of these 597 ordinates, by up to 4.5e-13
        args = argparse.Namespace(zeros=None, compute="3000:3600")
        cfg = RunConfig(cache_dir=str(tmp_path))
        computed = cli._load_zero_list(args, cfg)
        assert len(list(tmp_path.glob("zeros-*"))) == 1
        cached = cli._load_zero_list(args, cfg)
        assert np.array_equal(cached.ordinates, computed.ordinates)


class TestBadNumbers:
    """Each exits 1 with a one-line message and prints nothing on stdout."""

    ALPHA = ("alpha", "--method", "product", "--h", "2")

    def assert_rejected(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    # a negative sieve limit was taken as "size automatically", like 0
    def test_negative_sieve_limit_flag(self):
        self.assert_rejected(("--sieve-limit", "-5", *self.ALPHA),
                             "sieve_limit must be >= 0 (0 = automatic), got -5")

    def test_negative_sieve_limit_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sieve_limit=-5\n")
        self.assert_rejected(("--config", str(cfg), *self.ALPHA),
                             "sieve_limit must be >= 0 (0 = automatic), got -5")

    def test_zero_sieve_limit_is_automatic(self):
        code, out, _ = run_cli("--sieve-limit", "0", *self.ALPHA, "--prime-cutoff", "10000")
        assert code == 0 and len(parse_csv(out)) == 1

    # --width 0 histogrammed the default window; --eps-max inf raised OverflowError;
    # --eps-max 400 printed -0 in every bin past the 200-spacing window
    @pytest.mark.parametrize("flags,message", [
        (("--width", "0"), "finite positive width"),
        (("--eps-max", "inf"), "need finite 0 < bin_width < eps_max"),
        (("--eps-max", "400"), "past the window's unfolded length"),
    ])
    def test_empirical_window_and_bins(self, tmp_path, zeros_low, flags, message):
        from zetapair.zeros import save_zeros

        table = tmp_path / "z.txt"
        save_zeros(zeros_low, table)
        self.assert_rejected(
            ("r2", "empirical", "--zeros", str(table), "--center", "600", *flags), message
        )

    # invert --h , printed the CSV header alone and exited 0
    @pytest.mark.parametrize("argv", [
        ("alpha", "--method", "product", "--h", ","),
        ("invert", "--h", ",", "--window", "1000:1100"),
    ])
    def test_empty_shift_list(self, argv):
        self.assert_rejected(argv, "--h needs at least one shift")


class TestConfigPlumbing:
    def test_config_file_sets_format(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\noutput_format=json\nseed=3\n")
        code, out, _ = run_cli(
            "--config", str(cfg), "r2", "gue", "--grid", "0:1:0.5"
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["epsilon"] == 0.0

    def test_bad_config_key_rejected(self, tmp_path):
        # prime_cutoff is a flag of each subcommand, not a config key
        cfg = tmp_path / "run.cfg"
        for key, value in (("no_such_key", 1), ("prime_cutoff", 5000)):
            cfg.write_text(f"{key}={value}\n")
            code, _, err = run_cli("--config", str(cfg), "r2", "gue", "--grid", "0:1:1")
            assert code == 1
            assert f"unknown config key {key!r}" in err

    # the zero table that r2 empirical --compute caches is the witness
    EMPIRICAL = ("r2", "empirical", "--compute", "1000:1400", "--center", "1200",
                 "--width", "400")

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cache_dir={tmp_path / 'cfgdir'}\n")
        monkeypatch.setenv("ZPD_CACHE_DIR", str(tmp_path / "envdir"))
        code, _, _ = run_cli("--config", str(cfg), *self.EMPIRICAL)
        assert code == 0
        assert len(list((tmp_path / "envdir").glob("zeros-*.txt"))) == 1
        assert not (tmp_path / "cfgdir").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZPD_CACHE_DIR", str(tmp_path / "envdir"))
        flag_dir = tmp_path / "flagdir"
        code, _, _ = run_cli("--cache-dir", str(flag_dir), *self.EMPIRICAL)
        assert code == 0
        assert len(list(flag_dir.glob("zeros-*.txt"))) == 1
        assert not (tmp_path / "envdir").exists()


class TestIdentitiesCommand:
    def test_quick_suites_pass(self):
        for suite in ("triangle", "mobius", "local-factor"):
            code, out, _ = run_cli("identities", "--suite", suite)
            assert code == 0
            assert parse_csv(out)[0]["passed"] == "true"

    def test_passed_is_a_boolean(self):
        _, out, _ = run_cli("identities", "--suite", "all")
        assert {row["passed"] for row in parse_csv(out)} == {"true"}
        _, out, _ = run_cli("--format", "json", "identities", "--suite", "all")
        assert all(row["passed"] is True for row in json.loads(out)["rows"])

    def test_each_suite_is_its_rows_of_all(self):
        _, everything, _ = run_cli("identities", "--suite", "all")
        rows = []
        for suite in identities.SUITES:
            code, out, _ = run_cli("identities", "--suite", suite)
            assert code == 0
            rows += out.splitlines()[1:]
        assert rows == everything.splitlines()[1:]

    def test_failed_check_exits_1(self, monkeypatch):
        monkeypatch.setattr(
            identities, "mobius_indicator_check",
            lambda *args: identities.IdentityReport(
                "mobius_indicator", [(500, 500)], 1.0, 0.0
            ),
        )
        code, out, err = run_cli("identities", "--suite", "mobius")
        assert code == 1
        assert "FAILED mobius_indicator" in err
        assert parse_csv(out)[0]["passed"] == "false"


class TestInvert:
    ARGS = ("invert", "--h", "2,3", "--window", "1000:1060")

    def test_small_window_rows_and_columns(self):
        code, out, _ = run_cli(*self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == "h,estimate,ok,quad_error_est,band_leakage,imag_fraction"
        rows = parse_csv(out)
        assert [r["h"] for r in rows] == ["2", "3"]
        assert all(r["ok"] == "true" for r in rows)

    def test_byte_identical_rerun(self):
        assert run_cli(*self.ARGS) == run_cli(*self.ARGS)

    @pytest.mark.parametrize("window", ["1000", "1000:1060:5", "a:b"])
    def test_malformed_window_names_the_form(self, window):
        code, out, err = run_cli("invert", "--h", "2", "--window", window)
        assert (code, out) == (1, "")
        assert f"expected --window E_LO:E_HI, got {window!r}" in err

    def test_malformed_compute_range_names_the_form(self):
        code, _, err = run_cli("r2", "empirical", "--compute", "10", "--center", "50")
        assert code == 1
        assert "expected --compute TMIN:TMAX, got '10'" in err
