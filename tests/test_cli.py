import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from zetapair import cli, identities, inversion, paircorr
from zetapair.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_module(args, **env_vars):
    """``python -m zetapair`` in a fresh process, on this tree's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "zetapair", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
    MODE_ARGS = {"gue": (), "theory": ("--height", "10000")}

    # a zero step, a non-finite stop, a stop below the start, a step that
    # does not divide the span
    @pytest.mark.parametrize("grid", ["0:3:0", "0:inf:0.1", "3:0.2:0.05", "0:1:0.3"])
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
            "alpha", "--method", "series", "--h", "2", "--prime-cutoff", "10000",
        )
        assert code == 0
        cutoff, tail = parse_csv(out)[0]["truncation"].split(";")
        assert cutoff == "series_cutoff=1000000"
        name, _, value = tail.partition("=")
        assert name == "tail_bound"
        assert math.isfinite(float(value)) and float(value) > 0.0

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


class TestSieveBound:
    README = Path(__file__).resolve().parents[1] / "README.md"

    @pytest.mark.parametrize("argv", [
        ("constants", "--prime-cutoff", "1000000000"),
        ("alpha", "--method", "product", "--h", "2,1000000000"),
        ("avg-alpha", "--h", "1000000000"),
    ])
    def test_sieve_past_the_bound_exits_1_before_building(self, monkeypatch, argv):
        built = []
        monkeypatch.setattr(cli, "build_sieve", lambda limit: built.append(limit))
        code, out, err = run_cli(*argv)
        assert (code, out, built) == (1, "", [])
        assert err == ("error: the sieve this asks for, up to 1000000001, "
                       f"exceeds the bound of {cli.MAX_SIEVE_LIMIT}\n")

    def test_bound_covers_the_readme_and_is_stated(self):
        # `constants --prime-cutoff 10000000` asks for 10,000,001
        assert cli.MAX_SIEVE_LIMIT >= 10_000_001
        text = " ".join(self.README.read_text().split())
        assert f"a sieve past {cli.MAX_SIEVE_LIMIT:,}" in text


class TestOutputContract:
    def test_json_mirrors_csv_fields(self):
        args = ("alpha", "--method", "product", "--h", "2,6", "--prime-cutoff", "10000")
        _, out_csv, _ = run_cli(*args)
        _, out_json, _ = run_cli("--format", "json", *args)
        header = out_csv.splitlines()[0].split(",")
        rows = json.loads(out_json)["rows"]
        assert list(rows[0].keys()) == header

    def test_json_writes_non_finite_as_null(self, tmp_path):
        # a table starting below t = 10 has no expected count, so check
        # reports nan; RFC 8259 has no NaN
        def strict(name):
            raise ValueError(f"non-standard JSON constant {name}")

        table = tmp_path / "z.txt"
        table.write_text("0\n14.134725\n21.022040\n")
        args = ("zeros", "check", "--path", str(table))
        code, out, _ = run_cli("--format", "json", *args)
        assert code == 1
        row = json.loads(out, parse_constant=strict)["rows"][0]
        assert row["expected"] is None and row["discrepancy"] is None
        # integers and booleans keep their JSON types
        assert row["count"] == 3 and type(row["count"]) is int
        assert row["flagged"] is True and row["claimed_complete"] is False
        _, out_csv, _ = run_cli(*args)
        assert parse_csv(out_csv)[0]["expected"] == "nan"

    def test_emit_refuses_numpy_scalars(self, capsys):
        # a numpy integer or bool was written as a JSON string, "5" or "True";
        # a streamed document stopped at the value, after '{"rows": [{"a": 1.0, "b": '
        for value in (np.int64(5), np.bool_(True)):
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._emit(["a", "b"], [(1.0, value)], "json")
            assert capsys.readouterr().out == ""

    def test_refused_allocation_exits_1(self):
        # 1e16 grid points, 71 PiB: past any address space, so refused at once
        code, out, err = run_cli("r2", "gue", "--grid", "0:1e16:1")
        assert (code, out) == (1, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

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
        proc = run_module(args)
        code, out, _ = run_cli(*args)
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_empirical_alpha_independent_of_blas_threads(self):
        # a BLAS dot splits its sum by thread, so its last bits follow the
        # thread count; each process here fixes the count before numpy loads
        args = ["alpha", "--method", "empirical", "--h", "2,6", "--sample-length", "1000000"]
        outs = []
        for threads in ("1", "2"):
            proc = run_module(args, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


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

    # from 0 check printed expected nan, flagged false and claimed_complete
    # true after divide-by-zero warnings, and exited 0; from 3.5 it read the
    # smooth count outside its domain and passed
    @pytest.mark.parametrize("first", ["0", "3.5"])
    def test_check_flags_table_below_the_floor(self, tmp_path, first):
        table = tmp_path / "z.txt"
        table.write_text(f"{first}\n14.134725\n21.022040\n")
        code, out, err = run_cli("zeros", "check", "--path", str(table))
        assert (code, err) == (1, "")
        row = parse_csv(out)[0]
        assert (row["flagged"], row["claimed_complete"]) == ("true", "false")

    # check exited 0 and called an inf or all-nan table complete; ingest printed nan
    @pytest.mark.parametrize("action", ["check", "ingest"])
    @pytest.mark.parametrize("text,line", [
        ("14.1\ninf\n", 2), ("#offset nan\n14.1\n21.0\n", 1), ("14.1\nnan\n21.0\n", 2),
    ])
    def test_non_finite_table_names_line(self, tmp_path, action, text, line):
        table = tmp_path / "z.txt"
        table.write_text(text)
        code, out, err = run_cli("zeros", action, "--path", str(table))
        assert (code, out) == (1, "")
        assert f"line {line}: non-finite" in err and err.count("\n") == 1

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
            "--width", "700",
        )
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0].keys()) == [
            "epsilon", "empirical", "theory_total", "theory_diag",
            "theory_off", "constant", "residual",
        ]
        scores = dict(line.split() for line in err.splitlines())
        assert list(scores) == ["ms_residual", "ms_gue", "noise_floor"]
        assert all(float(v) > 0.0 for v in scores.values())
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
            "r2", "theory", "--grid", "0.5:1.5:0.5", "--height", "10000"
        )
        assert code == 0
        assert len(parse_csv(out)) == 3


class TestNonFiniteHeight:
    # nan stopped on "cannot convert float NaN to integer", inf on the pole
    # guard, and a nan centre on "only 0 zeros in window"
    @pytest.mark.parametrize("height", ["nan", "inf"])
    def test_theory_height(self, height):
        code, out, err = run_cli(
            "r2", "theory", "--grid", "0.5:1.5:0.5", "--height", height
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
            "--width", "700",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: window needs a finite centre and a finite positive width,"
            f" got {float(center)}, 700.0\n"
        )


class TestBadNumbers:
    """Each exits 1 with a one-line message and prints nothing on stdout."""

    def assert_rejected(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    # --width 0 histogrammed the default window
    @pytest.mark.parametrize("flags,message", [
        (("--width", "0"), "finite positive width"),
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

    # printed int()'s "invalid literal for int() with base 10: '2.5'"
    def test_non_integer_shift(self):
        self.assert_rejected(("alpha", "--method", "product", "--h", "2.5"),
                             "expected --h H1,H2,..., got '2.5'")


class TestSettings:
    """``--format`` and ``--seed`` are the only global flags; the rest is fixed."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    @staticmethod
    def help_pages(prefix=()):
        """(argv, exit code, text) of --help on prefix and on every subcommand below it."""
        code, out, _ = run_cli(*prefix, "--help")
        pages = [(prefix, code, out)]
        usage = out.split("\n\n")[0]
        sub = re.search(r"\{([\w,-]+)\}\s+\.\.\.", usage)
        for name in sub.group(1).split(",") if sub else ():
            pages += TestSettings.help_pages((*prefix, name))
        return pages

    # every value a user can set, by subcommand; each truncation without a flag
    # is a library default or a cli constant
    OPTIONS = {
        (): ["--format", "--seed"],
        ("constants",): ["--prime-cutoff"],
        ("alpha",): ["--method", "--h", "--prime-cutoff", "--sample-length"],
        ("avg-alpha",): ["--h"],
        ("zeros",): [],
        ("zeros", "compute"): ["--t-min", "--t-max", "--out"],
        ("zeros", "ingest"): ["--path"],
        ("zeros", "check"): ["--path"],
        ("r2",): [],
        ("r2", "gue"): ["--grid"],
        ("r2", "theory"): ["--grid", "--height", "--absolute"],
        ("r2", "empirical"): ["--zeros", "--compute", "--center", "--width"],
        ("r2", "compare"): ["--zeros", "--compute", "--center", "--width"],
        ("identities",): ["--suite"],
        ("invert",): ["--h", "--window"],
    }

    @staticmethod
    def options(parser, prefix=()):
        """Subcommand path -> option strings of the settable values at that level."""
        found = {prefix: []}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    found.update(TestSettings.options(sub, (*prefix, name)))
            elif not isinstance(action, argparse._HelpAction):
                found[prefix] += action.option_strings
        return found

    def test_settable_values_by_subcommand(self):
        found = self.options(cli._build_parser())
        assert found == self.OPTIONS
        assert sum(map(len, found.values())) == 28

    # each would set a truncation that the CLI fixes at its library default
    @pytest.mark.parametrize("argv", [
        ("avg-alpha", "--h", "100", "--prime-cutoff", "1000"),
        ("r2", "theory", "--grid", "0:1:1", "--height", "1e4", "--prime-cutoff", "1000"),
        ("r2", "theory", "--grid", "0:1:1", "--height", "1e4", "--power-cutoff", "5"),
        ("r2", "empirical", "--compute", "10:100", "--center", "50", "--eps-max", "2"),
        ("r2", "compare", "--compute", "10:100", "--center", "50", "--eps-max", "2"),
        ("r2", "compare", "--compute", "10:100", "--center", "50", "--prime-cutoff", "1000"),
        ("r2", "compare", "--compute", "10:100", "--center", "50", "--power-cutoff", "5"),
        ("invert", "--h", "2", "--window", "1000:1100", "--eps-cutoff", "20"),
        ("invert", "--h", "2", "--window", "1000:1100", "--prime-cutoff", "1000"),
    ])
    def test_fixed_truncation_flag_is_a_usage_error(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: zetapair")
        assert err.endswith(f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n")

    def test_every_help_page_exits_0_without_config(self):
        pages = self.help_pages()
        argvs = [argv for argv, _, _ in pages]
        assert ("zeros", "ingest") in argvs and ("r2", "compare") in argvs
        for argv, code, text in pages:
            assert code == 0 and text.startswith("usage: zetapair"), argv
            assert "--config" not in text, argv

    def test_config_flag_is_a_usage_error(self):
        code, out, err = run_cli("--config", "f.cfg", "r2", "gue", "--grid", "0:1:1")
        assert (code, out) == (2, "")
        assert err.startswith("usage: zetapair")

    # exited 1 with numpy's "expected non-negative integer" for local-factor,
    # and 0 for mobius, which draws no samples
    @pytest.mark.parametrize("suite", ["local-factor", "mobius"])
    def test_negative_seed_is_a_usage_error(self, suite):
        code, out, err = run_cli("--seed", "-1", "identities", "--suite", suite)
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: argument --seed: expected a non-negative integer, got '-1'\n"
        )

    def test_readme_states_the_global_flags_and_fixed_values(self):
        text = " ".join(self.README.read_text().split())
        settings = re.search(r"Settings: the global flags are (.*?)\. ", text)
        assert settings, "README lost its sentence naming the global flags"
        _, usage, _ = run_cli("--help")
        global_flags = re.findall(r"\[(--[\w-]+)", usage.split("\n\n")[0])
        assert re.findall(r"`(--[\w-]+)`", settings.group(1)) == global_flags
        for phrase in (
            f"truncates the Ramanujan series at N = {cli.SERIES_CUTOFF},",
            f"cuts its primes, C2 and sieve at {cli.IDENTITY_CUTOFF},",
            f"`avg-alpha` cuts C2 at {cli.C2_CUTOFF} (as `alpha` does without",
            f"sum the primes up to {paircorr.DEFAULT_PRIME_CUTOFF} and their powers up to"
            f" k = {paircorr.DEFAULT_POWER_CUTOFF},",
            f"use bins {cli.BIN_WIDTH:g} wide up to eps = {paircorr.SCORED_RANGE[1]:g}",
            f"a window {paircorr.WINDOW_SPACINGS:g} mean spacings wide at `--center`",
            f"excises eps below {inversion.DEFAULT_EPS_CUTOFF:g} around the 1-line pole",
            f"Euler product over the primes up to {inversion.DEFAULT_PRIME_CUTOFF}.",
        ):
            assert phrase in text


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
            lambda *args: identities.IdentityReport("mobius_indicator", 1, 1.0, 0.0),
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

    def test_unstable_quadrature_prints_its_row_and_exits_1(self, monkeypatch):
        # K21 and G10 disagree by far more than 5%, so ok is false
        monkeypatch.setattr(inversion, "_raw_integral", lambda *args: (1 + 0j, 2 + 0j, 1.0))
        code, out, err = run_cli("invert", "--h", "2", "--window", "1000:1060")
        assert (code, err) == (1, "h=2: quadrature estimate did not stabilize\n")
        assert parse_csv(out)[0]["ok"] == "false"

    def test_window_too_narrow_exits_1(self):
        # printed a row of nan with ok false
        code, out, err = run_cli("invert", "--h", "2", "--window", "1000:1030")
        assert (code, out) == (1, "")
        assert "of width 30 holds too few oscillation periods" in err

    def test_window_past_the_node_bound_exits_1(self):
        # the quadrature on this window would need 3.1e11 E nodes; it ran out of memory
        code, out, err = run_cli("invert", "--h", "2", "--window", "1000:10000000")
        assert (code, out) == (1, "")
        assert "needs 574515291 eps and 314279997444 E nodes" in err

    @pytest.mark.parametrize("window", ["1000", "1000:1060:5", "a:b"])
    def test_malformed_window_names_the_form(self, window):
        code, out, err = run_cli("invert", "--h", "2", "--window", window)
        assert (code, out) == (1, "")
        assert f"expected --window E_LO:E_HI, got {window!r}" in err

    def test_malformed_compute_range_names_the_form(self):
        code, _, err = run_cli("r2", "empirical", "--compute", "10", "--center", "50")
        assert code == 1
        assert "expected --compute TMIN:TMAX, got '10'" in err
