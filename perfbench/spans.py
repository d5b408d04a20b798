"""Spans around the public functions of each zetapair module, kept in memory.

``Tracer.install`` replaces every public function of the layer modules (a
name without a leading underscore, defined in that module) with a wrapper,
both as a module attribute and wherever another zetapair module bound it with
``from .x import f``.  It also wraps the ``SieveTables`` bulk-table methods.
``Tracer.uninstall`` puts every original object back.

A wrapper records a span only while a job is open (``Tracer.job``), so the
correctness checks that run between jobs call the package untraced.  Private
helpers are not wrapped: their time counts in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

#: the package modules that are layers; ``config`` is argument and file
#: parsing, so its time counts under ``cli``
LAYERS = ("sieve", "special", "singular", "zeros", "paircorr", "identities", "inversion", "cli")

#: called once per root-finder iteration inside ``gram_point``; a span per
#: call would cost more than the function, so its time stays in its callers
UNWRAPPED = frozenset({"zeros.rs_theta"})

BULK_TABLES = ("mobius_table", "totient_table", "von_mangoldt_table")


def _size(value) -> int:
    return int(np.size(value))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: work counts taken at a span boundary: name -> fn(args, kwargs, result) -> dict
COUNTS = {
    "special.zeta_em": lambda a, k, r: {"points": _size(_arg(a, k, 0, "s"))},
    "zeros.zfunc": lambda a, k, r: {"points": _size(_arg(a, k, 0, "t"))},
    "zeros.compute_zeros": lambda a, k, r: {"zeros": len(r)},
    "paircorr.theory_curve": lambda a, k, r: {"points": _size(_arg(a, k, 1, "epsilons"))},
    "paircorr.empirical_r2": lambda a, k, r: {"pairs": r.pair_count},
    "inversion.windowed_inversion": lambda a, k, r: {
        "eps_nodes": r.diagnostics.get("eps_nodes", 0),
        "e_nodes": r.diagnostics.get("e_nodes", 0),
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers and collects spans; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.jobs: dict[int, tuple[float, float, float]] = {}  # id -> start, end, overhead
        self.job: int | None = None
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.job)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = t1 = perf_counter()
                tracer._stack.pop()
                tracer.overhead_s += t0 - t_in
            if count is not None:
                span.counts = count(args, kwargs, result)
            tracer.overhead_s += perf_counter() - t1
            return result

        return wrapper

    def targets(self) -> dict:
        """Original function -> span name, for every function the tracer wraps."""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"zetapair.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    out[obj] = name
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, fn) for fn, name in self.targets().items()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "zetapair" or key.startswith("zetapair.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        from zetapair.sieve import SieveTables

        for attr in BULK_TABLES:
            orig = SieveTables.__dict__[attr]
            self._restore.append((SieveTables, attr, orig))
            setattr(SieveTables, attr, self._wrap(f"sieve.{attr}", orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- jobs -------------------------------------------------------------------

    def run_job(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` as one traced job; returns its result."""
        overhead0 = self.overhead_s
        self.job = job_id
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.job = None
            self.jobs[job_id] = (start, end, self.overhead_s - overhead0)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# -- per-layer metrics ----------------------------------------------------------

#: dimensionless per-layer values; every other name is a time (``_s``) or a count
RATIOS = frozenset({"zeros.z_points_per_zero", "singular.series_err_max", "paircorr.ms_finite",
                    "inversion.quad_error_est_max", "inversion.ratio_2_4"})


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "1" if name in RATIOS else "count"


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct wrapped children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def job_profile(tracer: Tracer, job_id: int) -> dict:
    """Per-function self time, calls and counts for one traced job."""
    start, end, overhead = tracer.jobs[job_id]
    idx = [i for i, s in enumerate(tracer.spans) if s.job == job_id]
    spans = [tracer.spans[i] for i in idx]
    local = {i: n for n, i in enumerate(idx)}
    spans = [Span(s.name, s.start, s.end, local.get(s.parent), s.job, s.counts) for s in spans]
    selfs = self_times(spans)
    funcs: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        f = funcs.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        f["self_s"] += self_s
        f["calls"] += 1
        for key, v in s.counts.items():
            f[key] = f.get(key, 0) + v
    top = sum(s.end - s.start for s in spans if s.parent is None)
    return {
        "job_s": end - start,
        "unattributed_s": (end - start) - top,
        "overhead_s": overhead,
        "functions": funcs,
    }


def layer_metrics(profile: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one job profile."""
    funcs = profile["functions"]

    def get(name, key="self_s"):
        return funcs.get(name, {}).get(key, 0)

    def total(prefix, exclude=(), key="self_s"):
        return sum(f.get(key, 0) for n, f in funcs.items()
                   if n.startswith(prefix) and n not in exclude)

    n_zeros = get("zeros.compute_zeros", "zeros")
    z_points = get("zeros.zfunc", "points")
    return {
        "sieve.build_sieve.self_s": get("sieve.build_sieve"),
        "sieve.bulk_tables.self_s": sum(get(f"sieve.{m}") for m in BULK_TABLES),
        "singular.alpha_ramanujan.self_s": get("singular.alpha_ramanujan"),
        "singular.alpha_ramanujan.calls": get("singular.alpha_ramanujan", "calls"),
        "singular.other.self_s": total("singular.", exclude={"singular.alpha_ramanujan"}),
        "special.zeta_em.self_s": get("special.zeta_em"),
        "special.zeta_em.calls": get("special.zeta_em", "calls"),
        "special.zeta_em.points": get("special.zeta_em", "points"),
        "special.log_zeta_dd.self_s": get("special.log_zeta_dd"),
        "special.zeta_one_line.self_s": get("special.zeta_one_line"),
        "zeros.gram_point.self_s": get("zeros.gram_point"),
        "zeros.gram_point.calls": get("zeros.gram_point", "calls"),
        "zeros.zfunc.self_s": get("zeros.zfunc"),
        "zeros.zfunc.points": z_points,
        "zeros.compute_zeros.self_s": get("zeros.compute_zeros"),
        "zeros.z_points_per_zero": z_points / n_zeros if n_zeros else 0.0,
        "zeros.io.self_s": get("zeros.save_zeros") + get("zeros.load_zeros"),
        "paircorr.r2_diag_finite.self_s": get("paircorr.r2_diag_finite"),
        "paircorr.r2_off_finite.self_s": get("paircorr.r2_off_finite"),
        "paircorr.theory_curve.points": get("paircorr.theory_curve", "points"),
        "paircorr.empirical_r2.self_s": get("paircorr.empirical_r2"),
        "paircorr.empirical_r2.pairs": get("paircorr.empirical_r2", "pairs"),
        "paircorr.other.self_s": total("paircorr.", exclude={
            "paircorr.r2_diag_finite", "paircorr.r2_off_finite", "paircorr.empirical_r2"}),
        "inversion.windowed_inversion.self_s": get("inversion.windowed_inversion"),
        "inversion.eps_nodes": get("inversion.windowed_inversion", "eps_nodes"),
        "inversion.e_nodes": get("inversion.windowed_inversion", "e_nodes"),
        "identities.self_s": total("identities."),
        "cli.main.self_s": total("cli."),
        "trace.job_s": profile["job_s"],
        "trace.unattributed_s": profile["unattributed_s"],
        "trace.overhead_s": profile["overhead_s"],
    }
