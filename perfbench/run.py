"""Run one benchmark workload against the zetapair sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process runs the workload as a closed loop: a single caller runs jobs back
to back, starting another only while it is expected to end within ``--seconds``
(at least one job always runs).  Every job's result is checked; a job that
raises or misses a tolerance counts as failed.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
(``job_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the jobs run under
the span tracer and it reports the per-layer metrics instead.  A full record
with provenance goes to ``perfbench/out/``.  ``--workload all`` runs the four
workloads one after another, each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("prime-side", "spectral-pooled", "inversion", "cli-readme")
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_workloads():
    """Import the workload module against this checkout's ``src``, never an installed copy."""
    if not (SRC / "zetapair" / "__init__.py").is_file():
        raise FileNotFoundError(f"no zetapair sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import zetapair
    import workloads

    if Path(zetapair.__file__).resolve().parent != SRC / "zetapair":
        raise ImportError(f"zetapair imported from {zetapair.__file__}, not {SRC}")
    return workloads


# -- set-up time ------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child side: load everything a job needs, then report the time since spawn."""
    wl = load_workloads()
    wl.WORKLOADS[args.workload].inputs(args.seed)
    print(repr(time.monotonic() - args.setup_probe))


def measure_setup(args) -> list[float]:
    """Seconds from process start until a job could run, one fresh process each."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.monotonic())]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- the closed loop ------------------------------------------------------------

def run_loop(job, check, inp, seconds: float, tracer=None) -> list[dict]:
    """Run jobs back to back; each entry has the job's wall time and failures."""
    samples = []
    t_start = time.perf_counter()
    while True:
        failures, out = [], None
        t0 = time.perf_counter()
        try:
            out = tracer.run_job(len(samples), job, inp) if tracer else job(inp)
        except Exception:
            failures = ["job raised: " + traceback.format_exc(limit=3)]
        dt = time.perf_counter() - t0
        if out is not None:
            try:
                failures = list(check(inp, out))
            except Exception:
                failures = ["check raised: " + traceback.format_exc(limit=3)]
        samples.append({"job_s": dt, "failures": failures, "out": out})
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(s["job_s"] for s in samples) > seconds:
            return samples


def fail_rate(samples: list[dict]) -> float:
    return sum(1 for s in samples if s["failures"]) / len(samples)


# -- provenance -------------------------------------------------------------------

def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "zetapair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- one workload ---------------------------------------------------------------------

def run_workload(args) -> dict:
    wl = load_workloads()
    w = wl.WORKLOADS[args.workload]
    setup = measure_setup(args)
    inp = w.inputs(args.seed)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        with tracer:
            samples = run_loop(w.job, w.check, inp, args.seconds, tracer)
    else:
        samples = run_loop(w.job, w.check, inp, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    OUT.mkdir(parents=True, exist_ok=True)

    last = next((s["out"] for s in reversed(samples) if s["out"] is not None), None)
    record = {
        "provenance": provenance(args),
        "inputs": inp,
        "job_s_samples": [s["job_s"] for s in samples],
        "failures": [s["failures"] for s in samples],
        "fail_rate": fail_rate(samples),
        "setup_s_samples": setup,
        "peak_rss_mb": peak_rss_mb,
    }
    if last is not None and "sha256" in last:
        record["stdout_sha256"] = last["sha256"]
    if args.trace:
        profiles = [spans.job_profile(tracer, i) for i in range(len(samples))]
        per_job = [spans.layer_metrics(p) for p in profiles]
        metrics = {k: statistics.fmean(m[k] for m in per_job) for k in per_job[0]}
        metrics.update(wl.output_metrics(args.workload, inp, last))
        record["profiles"] = profiles
        record["per_layer"] = metrics
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for span in tracer.dump():
                fh.write(json.dumps(span) + "\n")
        result_metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "job_s": statistics.median(record["job_s_samples"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record["result"] = {
        "correct": all(not s["failures"] for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["failures"]),
        "metrics": result_metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    return record


def print_report(record: dict) -> None:
    prov = record["provenance"]
    res = record["result"]
    n = res["attempted"]
    print(f"# {prov['workload']} seed {prov['seed']}: {n} job(s), {res['failed']} failed")
    for failures in record["failures"]:
        for f in failures:
            print(f"#   FAILED {f}")
    print(f"# fail_rate {record['fail_rate']:.4g} fraction ({res['failed']} of {n} jobs)")
    for name, m in res["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    if not prov["trace"]:
        print(f"# job_s is the median of {n} samples")
    if prov["trace"]:
        top = max(record["profiles"][-1]["functions"].items(), key=lambda kv: kv[1]["self_s"])
        print(f"# largest self time: {top[0]} {top[1]['self_s']:.3f} s")


def run_all(args) -> int:
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        rate = result["failed"] / result["attempted"]
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        print(f"{name:16s} fail_rate {rate:.3g} fraction  " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{n}.{k}": m for n, r in rows for k, m in r["metrics"].items()},
    }))
    return 0


def pin_environment() -> None:
    """Fix the BLAS thread count before numpy loads, and keep the CLI cache off."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # the CLI's cache directory paths are not part of the benchmark
    os.environ.pop("ZPD_CACHE_DIR", None)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        if args.setup_probe is not None:
            setup_probe(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        record = run_workload(args)
    except (FileNotFoundError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
