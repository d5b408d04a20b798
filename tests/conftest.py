"""Shared fixtures: sieves, zero sets, and the pooled correlation experiment.

Everything expensive is session-scoped and lazy, so running a single test
module only pays for what it touches.
"""

from pathlib import Path

import numpy as np
import pytest

from zetapair.paircorr import compare, empirical_r2, pooled_windows, theory_on_bins
from zetapair.sieve import build_sieve
from zetapair.singular import twin_prime_constant
from zetapair.special import ZetaEvaluator
from zetapair.zeros import compute_zeros

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def zeta_cfg():
    return ZetaEvaluator()


@pytest.fixture(scope="session")
def tables_small():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def tables_1m():
    return build_sieve(1_000_000 + 16)


@pytest.fixture(scope="session")
def tables_big():
    # covers empirical alpha at N = 1e7 with shifts up to ~200
    return build_sieve(10_000_000 + 256)


@pytest.fixture(scope="session")
def c2_ref(tables_big):
    return twin_prime_constant(10_000_000, tables_big)


@pytest.fixture(scope="session")
def zeros_low():
    return compute_zeros(10.0, 1000.0)


@pytest.fixture(scope="session")
def zeros_high():
    return compute_zeros(2990.0, 12010.0)


@pytest.fixture(scope="session")
def zero_fixture_path():
    return DATA / "zeros_first_100.txt"


@pytest.fixture(scope="session")
def pooled_experiment(zeros_high, tables_1m, zeta_cfg):
    """Pooled empirical R2 over (3000, 12000) against the matched theory.

    Windows of 200 mean spacings, bins of width 0.05 up to eps = 3; each
    window's theory is unfolded at its center and pooled by ``compare``.
    """
    windows = pooled_windows(3000.0, 12000.0)
    ests = [empirical_r2(zeros_high, c, w, 0.05, 3.0) for c, w in windows]
    curves = [theory_on_bins(c, est.bin_edges, zeta_cfg, tables_1m, 20_000, 14)
              for (c, _), est in zip(windows, ests)]
    ords = zeros_high.ordinates
    n_zeros = sum(int(np.sum((ords >= c - w / 2) & (ords <= c + w / 2))) for c, w in windows)
    return {"report": compare(ests, curves), "n_zeros": n_zeros, "n_windows": len(windows)}
