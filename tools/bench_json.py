"""Summarize paired perfbench records of two commits into one compact JSON file.

    python3 tools/bench_json.py PARENT_OUT CHANGE_OUT > BENCH_N.json

PARENT_OUT and CHANGE_OUT are the ``perfbench/out`` directories of two
checkouts that ran ``perfbench/run.py --trace 0`` on the same workloads and
seeds; a record whose (workload, seed) the other directory lacks is an error
(exit 2, naming it), not a pair to drop.  For each workload the output
gives, per side, the median and quartiles over seeds of each run's ``job_s``
(median of its jobs), ``setup_s`` (median of its spawns) and
``peak_rss_mb``, the seeds, for each of the three the number of seeds on
which the change's value is lower (``change_<metric>_lower``, "k of n"), the
verdict on each of the three (``change_<metric>_verdict``), and each side's
fail rate; for ``cli-readme`` it adds the stdout sha256 digests per seed.
The machine and both commits come from the records' provenance.

A verdict is ``lower`` when the change reads lower on at least 9 in 10 pairs
(ties count for neither side) and its median lies below the parent's by more
than the parent's interquartile distance q3 - q1, and so below the parent's
q1 as well; ``higher`` is the mirror image, and anything else is
``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

METRICS = ("job_s", "setup_s", "peak_rss_mb")
MACHINE = ("cpu_model", "nproc", "cpus_usable", "python", "numpy", "scipy",
           "openblas_numpy", "blas_threads")


def load(out_dir: Path) -> dict:
    """(workload, seed) -> record, for the untraced records in a perfbench/out directory."""
    records = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        prov = rec["provenance"]
        records[(prov["workload"], prov["seed"])] = rec
    if not records:
        raise SystemExit(f"no perfbench records in {out_dir}")
    return records


def run_values(rec: dict) -> dict:
    return {
        "job_s": statistics.median(rec["job_s_samples"]),
        "setup_s": statistics.median(rec["setup_s_samples"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(lower: int, higher: int, n: int, parent: dict, change: dict) -> str:
    """'lower', 'higher' or 'unresolved' from the pairs won each way of n, and the spreads."""
    iqr = parent["q3"] - parent["q1"]
    shift = change["median"] - parent["median"]
    if 10 * lower >= 9 * n and -shift > iqr:
        return "lower"
    if 10 * higher >= 9 * n and shift > iqr:
        return "higher"
    return "unresolved"


def side(records: dict, keys: list) -> dict:
    runs = [run_values(records[k]) for k in keys]
    out = {m: spread([r[m] for r in runs]) for m in METRICS}
    attempted = sum(records[k]["result"]["attempted"] for k in keys)
    failed = sum(records[k]["result"]["failed"] for k in keys)
    out["fail_rate"] = failed / attempted
    return out


def commit(records: dict) -> dict:
    provs = [r["provenance"] for r in records.values()]
    return {"git_commit": sorted({p["git_commit"] for p in provs}, key=str),
            "src_sha256": sorted({p["src_sha256"] for p in provs})}


def unpaired(parent: dict, change: dict) -> list[str]:
    """One line per (workload, seed) that only one of the two directories holds."""
    return [f"{w} seed {s} only in {'PARENT_OUT' if (w, s) in parent else 'CHANGE_OUT'}"
            for w, s in sorted(parent.keys() ^ change.keys())]


def summarize(parent: dict, change: dict) -> dict:
    workloads = {}
    for name in sorted({w for w, _ in parent}):
        keys = sorted(k for k in parent if k[0] == name)
        pairs = [(run_values(parent[k]), run_values(change[k])) for k in keys]
        entry = {
            "seeds": [s for _, s in keys],
            "parent": side(parent, keys),
            "change": side(change, keys),
        }
        for m in METRICS:
            wins = sum(c[m] < p[m] for p, c in pairs)
            losses = sum(c[m] > p[m] for p, c in pairs)
            entry[f"change_{m}_lower"] = f"{wins} of {len(keys)}"
            entry[f"change_{m}_verdict"] = verdict(
                wins, losses, len(keys), entry["parent"][m], entry["change"][m])
        if name == "cli-readme":
            entry["stdout_sha256"] = {
                str(s): {"parent": parent[(name, s)].get("stdout_sha256"),
                         "change": change[(name, s)].get("stdout_sha256")}
                for _, s in keys
            }
        workloads[name] = entry
    prov = next(iter(change.values()))["provenance"]
    return {
        "seconds": prov["seconds"],
        "statistic": "per run: job_s median of its jobs, setup_s median of its "
                     "spawns; per side: median and inclusive quartiles over seeds",
        "machine": {k: prov[k] for k in MACHINE},
        "parent": commit(parent),
        "change": commit(change),
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    if missing := unpaired(parent, change):
        print("unpaired records:\n" + "\n".join(missing), file=sys.stderr)
        return 2
    print(json.dumps(summarize(parent, change), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
