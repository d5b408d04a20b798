"""tools/bench_json.py on synthetic perfbench record directories."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
MACHINE = {"cpu_model": "test cpu", "nproc": 2, "cpus_usable": 2, "python": "3.11",
           "numpy": "2.0", "scipy": "1.10", "openblas_numpy": "0.3",
           "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


@pytest.fixture(scope="module")
def bench_json():
    spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_records(out_dir, commit, runs):
    """runs: (workload, seed) -> (job_s samples, setup_s samples, peak_rss_mb, failed)."""
    out_dir.mkdir()
    for (workload, seed), (jobs, setups, rss, failed) in runs.items():
        rec = {
            "provenance": {"workload": workload, "seed": seed, "seconds": 12,
                           "git_commit": commit, "src_sha256": commit * 2, **MACHINE},
            "job_s_samples": jobs,
            "setup_s_samples": setups,
            "peak_rss_mb": rss,
            "result": {"attempted": len(jobs), "failed": failed},
        }
        if workload == "cli-readme":
            rec["stdout_sha256"] = f"{commit}-{seed}"
        (out_dir / f"{workload}-{seed}-trace0.json").write_text(json.dumps(rec))
    # a traced record of the same run is not a timing sample
    (out_dir / "prime-side-0-trace1.json").write_text("not read")
    return out_dir


@pytest.fixture
def record_dirs(tmp_path):
    parent = write_records(tmp_path / "parent", "aaa", {
        ("prime-side", 0): ([1.0, 3.0, 1.2], [0.5, 0.7, 0.6], 100.0, 0),
        ("prime-side", 1): ([2.0, 2.2, 1.8], [0.8, 0.9, 1.0], 104.0, 1),
        ("cli-readme", 0): ([4.0], [0.5], 50.0, 0),
        ("cli-readme", 1): ([6.0], [0.7], 52.0, 0),
    })
    change = write_records(tmp_path / "change", "bbb", {
        ("prime-side", 0): ([1.1, 1.3, 1.5], [0.5, 0.6, 0.7], 90.0, 0),
        ("prime-side", 1): ([1.0, 1.0, 1.0], [0.6, 0.6, 0.6], 94.0, 0),
        ("cli-readme", 0): ([3.0], [0.5], 50.0, 0),
        ("cli-readme", 1): ([5.0], [0.7], 52.0, 0),
    })
    return parent, change


class TestBenchJson:
    def test_medians_and_inclusive_quartiles(self, bench_json, record_dirs):
        out = bench_json.summarize(*(bench_json.load(d) for d in record_dirs))
        prime = out["workloads"]["prime-side"]
        assert prime["seeds"] == [0, 1]
        # per run job_s 1.2 and 2.0; inclusive quartiles of two values
        assert prime["parent"]["job_s"] == pytest.approx({"median": 1.6, "q1": 1.4, "q3": 1.8})
        assert prime["parent"]["setup_s"] == pytest.approx(
            {"median": 0.75, "q1": 0.675, "q3": 0.825})
        assert prime["parent"]["peak_rss_mb"] == pytest.approx(
            {"median": 102.0, "q1": 101.0, "q3": 103.0})
        assert prime["parent"]["fail_rate"] == pytest.approx(1 / 6)
        assert prime["change"]["job_s"] == pytest.approx(
            {"median": 1.15, "q1": 1.075, "q3": 1.225})
        assert prime["change"]["fail_rate"] == 0.0
        assert out["machine"] == MACHINE
        assert out["parent"] == {"git_commit": ["aaa"], "src_sha256": ["aaaaaa"]}
        assert out["change"] == {"git_commit": ["bbb"], "src_sha256": ["bbbbbb"]}
        assert out["seconds"] == 12

    def test_change_job_s_lower(self, bench_json, record_dirs):
        out = bench_json.summarize(*(bench_json.load(d) for d in record_dirs))
        # seed 0: 1.2 -> 1.3 is higher; seed 1: 2.0 -> 1.0 is lower
        assert out["workloads"]["prime-side"]["change_job_s_lower"] == "1 of 2"
        assert out["workloads"]["cli-readme"]["change_job_s_lower"] == "2 of 2"

    def test_change_setup_s_and_peak_rss_mb_lower(self, bench_json, record_dirs):
        out = bench_json.summarize(*(bench_json.load(d) for d in record_dirs))
        prime, cli = out["workloads"]["prime-side"], out["workloads"]["cli-readme"]
        # setup_s: seed 0 0.6 -> 0.6 is not lower, seed 1 0.9 -> 0.6 is;
        # peak_rss_mb: 100 -> 90 and 104 -> 94 are both lower
        assert prime["change_setup_s_lower"] == "1 of 2"
        assert prime["change_peak_rss_mb_lower"] == "2 of 2"
        # equal values on both sides are not lower
        assert cli["change_setup_s_lower"] == "0 of 2"
        assert cli["change_peak_rss_mb_lower"] == "0 of 2"

    # parent job_s 1.0 .. 1.9 over ten seeds: median 1.45, quartiles 1.225 and 1.675
    @pytest.mark.parametrize("change_job_s, expected", [
        ([0.5] * 9 + [3.0], "lower"),       # lower on 9 of 10, median 0.95 below
        ([3.0] * 9 + [0.5], "higher"),      # the mirror image
        ([0.5] * 8 + [3.0] * 2, "unresolved"),  # lower on 8 of 10 only
        # lower on all 10 and median 1.15 below q1, but by less than q3 - q1
        ([1.0 + 0.1 * s - 0.3 for s in range(10)], "unresolved"),
        ([1.0 + 0.1 * s for s in range(10)], "unresolved"),  # ties count for neither
    ])
    def test_verdict(self, bench_json, tmp_path, change_job_s, expected):
        def runs(job_s):
            return {("inversion", s): ([v], [0.2], 80.0, 0) for s, v in enumerate(job_s)}

        parent = write_records(tmp_path / "parent", "aaa",
                               runs([1.0 + 0.1 * s for s in range(10)]))
        change = write_records(tmp_path / "change", "bbb", runs(change_job_s))
        entry = bench_json.summarize(bench_json.load(parent), bench_json.load(change))[
            "workloads"]["inversion"]
        assert entry["change_job_s_verdict"] == expected
        assert entry["change_setup_s_verdict"] == "unresolved"
        assert entry["change_peak_rss_mb_verdict"] == "unresolved"

    def test_cli_readme_digests(self, bench_json, record_dirs):
        out = bench_json.summarize(*(bench_json.load(d) for d in record_dirs))
        assert out["workloads"]["cli-readme"]["stdout_sha256"] == {
            "0": {"parent": "aaa-0", "change": "bbb-0"},
            "1": {"parent": "aaa-1", "change": "bbb-1"},
        }
        assert "stdout_sha256" not in out["workloads"]["prime-side"]

    def test_main_prints_the_summary(self, bench_json, record_dirs, capsys):
        assert bench_json.main([str(d) for d in record_dirs]) == 0
        expected = bench_json.summarize(*(bench_json.load(d) for d in record_dirs))
        assert json.loads(capsys.readouterr().out) == expected

    def test_main_names_unpaired_records(self, bench_json, record_dirs, capsys):
        # a seed missing on one side and a workload on one side only were
        # dropped from the summary without a word
        parent, change = record_dirs
        moved = change / "cli-readme-1-trace0.json"
        rec = json.loads(moved.read_text())
        rec["provenance"].update(workload="inversion", seed=0)
        moved.unlink()
        (change / "inversion-0-trace0.json").write_text(json.dumps(rec))
        assert bench_json.main([str(parent), str(change)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "unpaired records:",
            "cli-readme seed 1 only in PARENT_OUT",
            "inversion seed 0 only in CHANGE_OUT",
        ]

    @pytest.mark.parametrize("argv", [[], ["one"], ["one", "two", "three"]])
    def test_main_rejects_wrong_argument_count(self, bench_json, argv, capsys):
        assert bench_json.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PARENT_OUT CHANGE_OUT" in captured.err
