"""The correctness gate rejects deliberately wrong results.

Each workload runs one job; the untouched result must pass
its check, and a result with one deliberate error must fail it and raise the
closed loop's fail rate.  Run with

    python3 -m pytest perfbench/tests/gate_checks.py perfbench/tests/trace_checks.py

(the file names keep the repository's own test command from collecting them).
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def _series_off(out):
    out["series"][2] += 1e-3


def _zero_removed(out):
    out["ordinates"] = np.delete(out["ordinates"], len(out["ordinates"]) // 2)


def _swap_1_2(out):
    est = out["estimate"]
    est[1], est[2] = est[2], est[1]


def _exit_1(out):
    out["codes"][0] = 1


TAMPER = {
    "prime-side": (_series_off, "even h: |series - product| <= 1e-4"),
    "spectral-pooled": (_zero_removed, "Z alternates in sign between listed zeros"),
    "inversion": (_swap_1_2, "|est(1)| < |est(2)|"),
    "cli-readme": (_exit_1, "exit codes [1, 0, 0, 0, 0, 0, 0, 0, 0, 0] are not all 0"),
}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def job_run(request):
    w = workloads.WORKLOADS[request.param]
    inp = w.inputs(0)
    return w, inp, w.job(inp)


def test_untouched_result_passes(job_run):
    w, inp, out = job_run
    assert w.check(inp, out) == []


def test_tampered_result_fails(job_run):
    w, inp, out = job_run
    tamper, condition = TAMPER[w.name]
    bad = copy.deepcopy(out)
    tamper(bad)
    assert condition in w.check(inp, bad)


def test_tampered_jobs_raise_fail_rate(job_run):
    w, inp, out = job_run
    tamper, _ = TAMPER[w.name]
    calls = []

    def every_other_job_wrong(_inp):
        calls.append(None)
        result = copy.deepcopy(out)
        if len(calls) % 2 == 0:
            tamper(result)
        return result

    clean = run.run_loop(lambda _inp: copy.deepcopy(out), w.check, inp, 0.2)
    mixed = run.run_loop(every_other_job_wrong, w.check, inp, 0.2)
    assert len(mixed) >= 2
    assert run.fail_rate(clean) == 0.0
    assert run.fail_rate(mixed) > run.fail_rate(clean)
    assert [bool(s["failures"]) for s in mixed[:2]] == [False, True]


def test_raising_job_counts_as_failed(job_run):
    w, inp, _ = job_run

    def broken(_inp):
        raise ValueError("deliberate")

    samples = run.run_loop(broken, w.check, inp, 0.01)
    assert run.fail_rate(samples) == 1.0
    assert "deliberate" in samples[0]["failures"][0]


def test_other_seeds_keep_the_work_and_move_the_inputs():
    for name, w in workloads.WORKLOADS.items():
        base, other = w.inputs(0), w.inputs(7)
        assert base != other, name
        assert base.keys() == other.keys(), name
        assert w.inputs(7) == other, name
