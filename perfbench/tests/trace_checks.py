"""Tracing measures the package without changing it.

Self time is span duration minus wrapped children; traced results equal
untraced ones bit for bit; uninstalling restores every original object.
Run with ``python3 -m pytest perfbench/tests/trace_checks.py``.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


def _zetapair_bindings() -> dict:
    return {(key, attr): obj
            for key, mod in list(sys.modules.items())
            if key == "zetapair" or key.startswith("zetapair.")
            for attr, obj in vars(mod).items()}


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_self_time_on_nested_calls():
    tracer = spans.Tracer()
    inner = tracer._wrap("t.inner", lambda d: time.sleep(d))

    def outer_body():
        time.sleep(0.01)
        inner(0.02)
        inner(0.01)

    outer = tracer._wrap("t.outer", outer_body)

    def job():
        outer()
        inner(0.005)
        time.sleep(0.01)

    tracer.run_job(0, job)
    s = tracer.spans
    assert [x.name for x in s] == ["t.outer", "t.inner", "t.inner", "t.inner"]
    assert [x.parent for x in s] == [None, 0, 0, None]
    dur = [x.end - x.start for x in s]
    assert spans.self_times(s) == [dur[0] - dur[1] - dur[2], dur[1], dur[2], dur[3]]

    prof = spans.job_profile(tracer, 0)
    assert prof["functions"]["t.inner"]["calls"] == 3
    assert prof["functions"]["t.outer"]["self_s"] == pytest.approx(0.01, abs=0.005)
    assert prof["unattributed_s"] == pytest.approx(0.01, abs=0.005)
    total = sum(f["self_s"] for f in prof["functions"].values()) + prof["unattributed_s"]
    assert total == pytest.approx(prof["job_s"], rel=1e-12, abs=1e-12)
    assert prof["overhead_s"] > 0.0


def test_wrappers_record_nothing_outside_a_job():
    tracer = spans.Tracer()
    f = tracer._wrap("t.f", lambda: 3)
    assert f() == 3
    assert tracer.spans == []


def test_install_rebinds_imports_and_uninstall_restores_them():
    import zetapair.inversion
    import zetapair.sieve
    import zetapair.special
    import zetapair.zeros

    before = _zetapair_bindings()
    original_zeta_em = zetapair.special.zeta_em
    with spans.Tracer() as tracer:
        assert zetapair.special.zeta_em is not original_zeta_em
        assert zetapair.zeros.zeta_em is zetapair.special.zeta_em
        assert zetapair.inversion.zeta_one_line is zetapair.special.zeta_one_line
        assert zetapair.zeros.rs_theta is before[("zetapair.zeros", "rs_theta")]
        assert len(tracer._restore) > len(spans.BULK_TABLES)
    after = _zetapair_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for attr in spans.BULK_TABLES:
        assert zetapair.sieve.SieveTables.__dict__[attr].__qualname__ == f"SieveTables.{attr}"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_job_matches_untraced_and_adds_up(name):
    w = workloads.WORKLOADS[name]
    inp = w.inputs(0)
    plain = w.job(inp)
    with spans.Tracer() as tracer:
        traced = tracer.run_job(0, w.job, inp)
    assert _same(plain, traced)
    assert w.check(inp, traced) == []

    prof = spans.job_profile(tracer, 0)
    total = sum(f["self_s"] for f in prof["functions"].values()) + prof["unattributed_s"]
    assert total == pytest.approx(prof["job_s"], rel=1e-9)
    assert 0.0 <= prof["unattributed_s"] < 0.1 * prof["job_s"]
    metrics = spans.layer_metrics(prof)
    assert metrics["trace.job_s"] == prof["job_s"]
    assert all(spans.unit(k) in ("s", "1", "count") for k in metrics)
