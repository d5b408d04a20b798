"""Two-point statistics of zero ordinates and the matching theory curves.

The empirical side histograms unfolded ordinate differences over a height
window, normalized so a unit-density Poisson process gives 1 in every
bin.  The theory side assembles the height-dependent curve

    total(eps) = dbar(E)^2 + diag(eps) + offdiag(eps)

whose diagonal term combines the second log-derivative of zeta on the
1-line with a prime-power sum, and whose off-diagonal term is
|zeta(1+i eps)|^2 exp(-2 pi i eps dbar(E)) times an absolutely convergent
product over primes, plus the complex conjugate.  ``theory_curve`` is the
one way to these terms: with unfolded=False its ``diag`` and ``offdiag``
are the diagonal and off-diagonal terms in absolute units.  The curve
takes zeta(1+i eps) and the log-derivative from one Euler-Maclaurin
evaluation per node (``special.zeta_and_log_dd``).  In unfolded units the
curve tends to the random-matrix limit 1 - (sin(pi eps)/(pi eps))^2 as E
grows.
Both prime sums are Dirichlet polynomials in eps, summed as one stack by
one ``special.DirichletSum``, the nonuniform-FFT kernel: the power sum
over every prime, the product as exp of its log series over the primes
from 50 on, so their cost grows like (terms + points) log rather than
terms x points.  Each factor splits as (p - 2 + u)(p - u)/(p - 1)^2,
u = p^-i eps, so its log is a constant plus the closed-form series of
ln(1 + u/(p - 2)) + ln(1 - u/p).  The product factors of the primes below
50, where p = 3's vanishes at eps ln 3 = pi, are multiplied directly.

The kernel grids the terms onto a canonical tile: a power-of-two span of
its t-grid, centred on a multiple of half that span, which the band of
the eps alone selects, and a ``DirichletSum`` keeps the plan of the last
tile it read.  Each ``SieveTables`` carries, in a module-level weak
mapping keyed by the tables, the prime terms of the (prime cutoff, power
cutoff) pair it was last read at, the stack held as one
``DirichletSum``.  Evaluations whose eps fall in the tile it last read,
such as the windows of a pooled experiment, read its plan without
gridding again.
The cache is weak (an entry dies with its tables), bounded (one pair
per tables, one tile per pair) and answer-neutral: a tile is set by the
eps alone, so a cached read has the bits a cold evaluation gives,
whatever ran before.

Oscillatory theory is always bin-averaged (5-point Gauss-Legendre per
bin) before it is compared with a histogram, by ``compare``, for one window
or the 200-mean-spacing windows of ``pooled_windows``: it pools the
histograms and the windows' binned theory, weighted by their norms, and its
report scores the bins in ``SCORED_RANGE`` against the Poisson noise floor.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .sieve import SieveTables
from .special import (
    TWO_PI,
    DirichletSum,
    ZetaEvaluator,
    mean_density,
    zeta_and_log_dd,
)
from .zeros import ZeroList, unfold

__all__ = [
    "CorrelationEstimate",
    "TheoryCurve",
    "CompareReport",
    "InsufficientDataError",
    "GridMismatchError",
    "empirical_r2",
    "aggregate",
    "r2_diag_limit",
    "r2_off_limit",
    "gue_r2",
    "off_diagonal_product",
    "theory_curve",
    "theory_on_bins",
    "gue_on_bins",
    "bin_average",
    "compare",
    "pooled_windows",
]

DEFAULT_PRIME_CUTOFF = 100_000
DEFAULT_POWER_CUTOFF = 20
#: width of a ``pooled_windows`` window, in mean spacings at its start
WINDOW_SPACINGS = 200.0
#: the eps range, in mean spacings, over which ``CompareReport`` scores a
#: comparison: acceptance criteria 5 and 6 read it.  Below 0.1 the zeros'
#: repulsion leaves almost no pairs in a bin
SCORED_RANGE = (0.1, 3.0)


class InsufficientDataError(ValueError):
    pass


class GridMismatchError(ValueError):
    pass


# -- empirical side ----------------------------------------------------------

@dataclass(frozen=True)
class CorrelationEstimate:
    """Binned two-point density of unfolded ordinate differences.

    counts/norms hold the raw pair counts and the Poisson-calibrated
    denominators, so estimates from different windows can be pooled;
    values[b] = counts[b] / norms[b] estimates R2 on bin b in unfolded units.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    norms: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.counts / self.norms

    @property
    def pair_count(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _pair_differences(x: np.ndarray, max_diff: float) -> np.ndarray:
    """x[k] - x[i] over all i < k with x[k] <= x[i] + max_diff (x ascending).

    One neighbour shift j = k - i at a time; once no pair j apart is close
    enough, no pair further apart is either.
    """
    parts = []
    for j in range(1, len(x)):
        close = x[j:] <= x[:-j] + max_diff
        if not np.any(close):
            break
        parts.append(x[j:][close] - x[:-j][close])
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def empirical_r2(
    zl: ZeroList,
    e_center: float,
    width: float,
    bin_width: float,
    eps_max: float,
) -> CorrelationEstimate:
    """Histogram of unfolded differences over the window e_center +- width/2.

    Normalization: a Poisson process of unit (unfolded) density would give
    ~1 in every bin; both the measured point density and the window-edge
    deficit (pairs whose partner falls outside) are divided out.
    """
    if not (math.isfinite(eps_max) and 0 < bin_width < eps_max):
        raise ValueError(f"need finite 0 < bin_width < eps_max, got {bin_width}, {eps_max}")
    if not (math.isfinite(e_center) and math.isfinite(width) and width > 0):
        raise ValueError(
            f"window needs a finite centre and a finite positive width, got {e_center}, {width}"
        )
    lo, hi = e_center - width / 2.0, e_center + width / 2.0
    if lo < zl.range[0] or hi > zl.range[1]:
        raise ValueError("window extends beyond the zero list range")
    in_window = (zl.ordinates >= lo) & (zl.ordinates <= hi)
    if (n := int(np.count_nonzero(in_window))) < 100:
        raise InsufficientDataError(f"only {n} zeros in window, need at least 100")
    x = unfold(zl, e_center)[in_window]
    length = width * mean_density(e_center)
    lam = len(x) / length
    nbins = int(round(eps_max / bin_width))
    if nbins * bin_width > length:  # a bin past the window has a negative norm
        raise ValueError(f"bins reach past the window's unfolded length {length:g}")
    edges = np.linspace(0.0, nbins * bin_width, nbins + 1)
    diffs = _pair_differences(x, float(edges[-1]))
    counts = np.histogram(diffs, bins=edges)[0].astype(np.float64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    norms = lam * lam * bin_width * (length - centers)
    return CorrelationEstimate(edges, counts, norms)


def aggregate(estimates: list[CorrelationEstimate]) -> CorrelationEstimate:
    """Pool window estimates on a shared bin grid (counts and norms add)."""
    if not estimates:
        raise ValueError("nothing to aggregate")
    edges = estimates[0].bin_edges
    for est in estimates[1:]:
        if not np.array_equal(est.bin_edges, edges):
            raise GridMismatchError("estimates use different bin grids")
    counts = np.sum([e.counts for e in estimates], axis=0)
    norms = np.sum([e.norms for e in estimates], axis=0)
    return CorrelationEstimate(edges, counts, norms)


# -- limiting (unfolded) theory ----------------------------------------------

def _nonzero(eps) -> np.ndarray:
    arr = np.asarray(eps, dtype=np.float64)
    if np.any(arr == 0.0):
        raise ValueError("the limiting forms are singular at eps = 0")
    return arr


def r2_diag_limit(eps):
    """Unfolded diagonal limit: -1 / (2 pi^2 eps^2)."""
    arr = _nonzero(eps)
    out = -1.0 / (2.0 * np.pi**2 * arr**2)
    return float(out) if np.isscalar(eps) or arr.ndim == 0 else out


def r2_off_limit(eps):
    """Unfolded off-diagonal limit: cos(2 pi eps) / (2 pi^2 eps^2)."""
    arr = _nonzero(eps)
    out = np.cos(TWO_PI * arr) / (2.0 * np.pi**2 * arr**2)
    return float(out) if np.isscalar(eps) or arr.ndim == 0 else out


def gue_r2(eps):
    """Random-matrix pair correlation 1 - (sin(pi eps)/(pi eps))^2."""
    arr = np.asarray(eps, dtype=np.float64)
    out = 1.0 - np.sinc(arr) ** 2
    return float(out) if np.isscalar(eps) or arr.ndim == 0 else out


# -- finite-height theory ------------------------------------------------------

#: primes below this keep their product factor in the direct block over
#: u = p^-i eps: it can vanish (p = 3, u = -1), so it has no log series
_SMALL_PRIME = 50
#: the power sum keeps the terms with (k + 1) ln p <= 40, p^-(k+1) >= ~4e-18
_POWER_LOG_MAX = 40.0
#: bound on the dropped tail of each prime's series for ln(1 + u/(p - 2)) + ln(1 - u/p)
_LOG_SERIES_TOL = 1e-18


def _small_prime_product(ps: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """prod_p (1 - ((1 - u)/(p - 1))^2), u = p^-i eps, over the primes ps at each eps."""
    phase = np.multiply.outer(eps, np.log(ps))
    u = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=u.real)
    np.negative(np.sin(phase, out=phase), out=u.imag)
    ratio = np.subtract(1.0, u, out=u)
    ratio /= ps - 1.0
    ratio *= ratio
    return np.prod(np.subtract(1.0, ratio, out=ratio), axis=-1)


def _prime_sum_terms(ps: np.ndarray, n_small: int, k_cut: int):
    """Both sums over the primes ps as Dirichlet polynomials in eps.

    The nodes are x = m ln p, m = 1, 2, ..., for each p in turn.  Row 0 of
    the coefficients holds the power sum, k (ln p)^2 p^-(k+1) at m = k + 1,
    over every prime.  Row 1 holds, for the primes past the first n_small
    (those from _SMALL_PRIME on), the log of the product factor, which
    splits as 1 - w^2 = (p - 2 + u)(p - u)/(p - 1)^2, w = (1 - u)/(p - 1):

        ln(1 - w^2) = ln(1 - (p - 1)^-2) + ln(1 + u/(p - 2)) + ln(1 - u/p),

    so the coefficient of u^m is ((-1)^(m+1) (p - 2)^-m - p^-m) / m; the
    constants, summed over p, come back as a constant.  With a = 1/(p - 2)
    each |coefficient| is at most 2 a^m / m, so the series runs to the
    least M with the tail bound 2 a^(M+1) / ((M+1)(1 - a)) <= 1e-18.  The
    small primes have no series (M = 0): their product factors stay in the
    direct block.  Each row is zero at the nodes it does not use.  The nodes
    do not depend on k_cut: they run to m = M or to the last m with
    m ln p <= 40, whichever is larger, so the product row is the same
    whatever k_cut the power row is cut at.
    """
    log_p = np.log(ps)
    n_pow = np.floor(_POWER_LOG_MAX / log_p).astype(np.int64) - 1
    a = 1.0 / (ps[n_small:] - 2.0)
    n_m = np.ones(len(a), dtype=np.int64)
    while np.any(over := 2.0 * a ** (n_m + 1) / ((n_m + 1) * (1.0 - a)) > _LOG_SERIES_TOL):
        n_m += over
    n_series = np.concatenate([np.zeros(n_small, dtype=np.int64), n_m])
    m_max = np.maximum(n_pow + 1, n_series)
    prime = np.repeat(np.arange(len(ps)), m_max)
    m = np.arange(len(prime)) - np.repeat(np.cumsum(m_max) - m_max, m_max) + 1
    lp = log_p[prime]
    k = m - 1
    coef = np.zeros((2, len(prime)))
    in_power = (k >= 1) & (k <= np.minimum(n_pow[prime], k_cut))
    coef[0, in_power] = (k * lp**2 * np.exp(-(k + 1) * lp))[in_power]
    in_series = m <= n_series[prime]
    m_s, p_s = m[in_series], ps[prime[in_series]]
    coef[1, in_series] = (np.where(m_s % 2, 1.0, -1.0) * (p_s - 2.0) ** -m_s - p_s**-m_s) / m_s
    return m * lp, coef, float(np.sum(np.log1p(-1.0 / (ps[n_small:] - 1.0) ** 2)))


@dataclass(frozen=True)
class _PrimeTerms:
    """What the prime sums at one (p_cut, k_cut) reuse: the primes below 50,
    whose product factors are formed directly, and the stacked Dirichlet
    polynomial of both sums (``_prime_sum_terms``, the power row left out at
    k_cut = 0), which keeps the plan of the last tile it read."""

    small: np.ndarray
    sums: DirichletSum
    log_const: float


#: the prime terms of each SieveTables at the (p_cut, k_cut) it was last read
#: at, as {(p_cut, k_cut): terms}; an entry dies with its tables
_TERMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TERMS_LOCK = threading.Lock()


def _prime_terms(tables: SieveTables, p_cut: int, k_cut: int) -> _PrimeTerms:
    """The cached prime terms of (tables, p_cut, k_cut), built on first use."""
    if p_cut < 2:
        raise ValueError(f"prime cutoff must be >= 2, got {p_cut}")
    key = (p_cut, k_cut)
    with _TERMS_LOCK:
        terms = _TERMS.get(tables, {}).get(key)
        if terms is None:
            ps = tables.primes_upto(p_cut).astype(np.float64)
            n_small = int(np.count_nonzero(ps < _SMALL_PRIME))
            x, coef, log_const = _prime_sum_terms(ps, n_small, k_cut)
            terms = _PrimeTerms(
                ps[:n_small], DirichletSum(coef if k_cut else coef[1:], x), log_const
            )
            _TERMS[tables] = {key: terms}
        return terms


def _prime_phase_sums(tables: SieveTables, p_cut: int, k_cut: int, eps: np.ndarray):
    """Both prime sums of the finite-height curve at each eps:

        power   = sum_{p, 1 <= k <= k_cut} k (ln p)^2 p^-(k+1) u^(k+1),
        product = prod_p (1 - ((1 - u)/(p - 1))^2),   u = p^-i eps,

    over the primes p <= p_cut, and for the power sum the terms with
    (k+1) ln p <= 40.  Both sums are Dirichlet polynomials in eps, summed
    by one stacked ``DirichletSum``: the power sum over every prime at the
    nodes (k+1) ln p, and the product over the primes from 50 on as exp of
    its log series (see ``_prime_sum_terms``).  The product factors of the
    primes below 50 share one block of u, formed directly.  The
    ``DirichletSum`` is cached per tables (``_prime_terms``), and eps whose
    canonical tile is the one it last read reuse its plan, with the bits a
    fresh ``DirichletSum`` gives.  With k_cut = 0 the power sum is empty,
    reads 0 and stays out of the transform; with no series prime either
    (p_cut < 53) every coefficient is 0, the sums read 0 and no kernel
    runs.  The nodes do not depend on k_cut; where the sums read a plan, a
    row of the stack gives the bits it would alone, so there the product
    is the same, bit for bit, at every k_cut.  On the direct branch the
    product row also sums the zeros at the power row's nodes, so with and
    without the power sum it can differ in the last bits.
    """
    terms = _prime_terms(tables, p_cut, k_cut)
    eps = np.asarray(eps, dtype=np.float64)
    flat = eps.ravel()
    sums = terms.sums(flat)
    power = sums[:-1].sum(axis=0)
    product = _small_prime_product(terms.small, flat) * np.exp(terms.log_const + sums[-1])
    return power.reshape(eps.shape), product.reshape(eps.shape)


def _diag_term(log_dd: np.ndarray, power: np.ndarray) -> np.ndarray:
    return -np.real(log_dd + power) / (2.0 * np.pi**2)


def _check_power_cutoff(k_cut: int) -> None:
    # k_cut = 0 (no power sum) is internal to off_diagonal_product
    if k_cut < 1:
        raise ValueError(f"power cutoff must be >= 1, got {k_cut}")


def _check_height(e_height: float) -> None:
    if not (math.isfinite(e_height) and e_height > TWO_PI):
        raise ValueError(
            f"height must be finite and exceed 2 pi for a positive mean density, got {e_height}"
        )


def _off_term(
    z: np.ndarray, arr: np.ndarray, e_height: float, product: np.ndarray
) -> np.ndarray:
    mod2 = np.real(z * np.conj(z))
    phase = np.exp(-1j * TWO_PI * arr * mean_density(e_height))
    return 2.0 * np.real(mod2 * phase * product / (4.0 * np.pi**2))


def off_diagonal_product(tables: SieveTables, p_cut: int, eps: np.ndarray) -> np.ndarray:
    """prod_{p <= p_cut} (1 - ((1 - p^-i eps)/(p - 1))^2) at each eps (an array).

    The primes below 50 multiply directly; the rest give exp of one
    ``DirichletSum`` of their log series: ``_prime_phase_sums`` with no
    power sum, so the product is the one ``theory_curve`` uses.  The
    ``DirichletSum`` takes the direct sum or the transform per call, so a
    value can move in the last bits with the rest of the call: on the 1e6
    sieve at p_cut 4000 and 20000, 60 seeded eps in (0.1, 3) read one call,
    one eps per call and two halves within 2.5e-16 of each other; on
    (0.1, 3000), where each way takes the direct sum, bit for bit.
    """
    return _prime_phase_sums(tables, p_cut, 0, eps)[1]


@dataclass(frozen=True)
class TheoryCurve:
    """Pointwise theory curve; total = constant_term + diag + offdiag."""

    epsilons: np.ndarray
    constant_term: float
    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.constant_term + self.diag + self.offdiag


def theory_curve(
    e_height: float,
    epsilons,
    cfg: ZetaEvaluator,
    tables: SieveTables,
    p_cut: int = DEFAULT_PRIME_CUTOFF,
    k_cut: int = DEFAULT_POWER_CUTOFF,
    unfolded: bool = True,
) -> TheoryCurve:
    """Evaluate the finite-height curve on a grid; the one way to its terms.

    In absolute units (unfolded=False) the constant term is dbar(E)^2 and

        diag(eps)    = -(1/4 pi^2) [ d^2/dw^2 ln zeta(1+iw)|_eps
                         + sum_{p <= P, 1 <= k <= K} (ln p)^2 k p^-(1+i eps)(k+1) ] + c.c.,
        offdiag(eps) = (1/4 pi^2) |zeta(1+i eps)|^2 exp(-2 pi i eps dbar(E))
                         prod_{p <= P} (1 - ((1 - p^-i eps)/(p - 1))^2) + c.c.,

    both real; the k = 0 term carries a factor k and vanishes identically,
    so the power sum starts at k = 1.  With unfolded=True the grid is in
    mean-spacing units: arguments are rescaled by 1/dbar(E) and all terms
    divided by dbar(E)^2, so the constant term is exactly 1.
    """
    _check_height(e_height)
    _check_power_cutoff(k_cut)
    eps = np.asarray(epsilons, dtype=np.float64)
    dens = mean_density(e_height)
    if unfolded:
        args, scale, const = eps / dens, 1.0 / dens**2, 1.0
    else:
        args, scale, const = eps, 1.0, dens**2
    power, product = _prime_phase_sums(tables, p_cut, k_cut, args)
    z, log_dd = zeta_and_log_dd(cfg, args)
    diag = scale * _diag_term(log_dd, power)
    off = scale * _off_term(z, args, e_height, product)
    return TheoryCurve(eps, const, diag, off)


# -- bin-averaged comparison ---------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _bin_quadrature_nodes(edges: np.ndarray) -> np.ndarray:
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return (centers[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()


def theory_on_bins(
    e_height: float,
    edges: np.ndarray,
    cfg: ZetaEvaluator,
    tables: SieveTables,
    p_cut: int = DEFAULT_PRIME_CUTOFF,
    k_cut: int = DEFAULT_POWER_CUTOFF,
) -> TheoryCurve:
    """Unfolded theory evaluated on the 5-point quadrature grid of the bins."""
    return theory_curve(
        e_height, _bin_quadrature_nodes(np.asarray(edges)), cfg, tables, p_cut, k_cut
    )


def gue_on_bins(edges: np.ndarray) -> TheoryCurve:
    """The limit curve on the same quadrature layout (constant term 1)."""
    nodes = _bin_quadrature_nodes(np.asarray(edges))
    return TheoryCurve(nodes, 1.0, r2_diag_limit(nodes), r2_off_limit(nodes))


def _check_layout(curve: TheoryCurve, edges: np.ndarray) -> None:
    if not np.array_equal(curve.epsilons, _bin_quadrature_nodes(edges)):
        raise GridMismatchError(
            "theory grid is not the 5-node quadrature layout of these bins"
        )


def _bin_mean(values: np.ndarray) -> np.ndarray:
    """Per-bin 5-node Gauss-Legendre means of values on the node layout."""
    return values.reshape(-1, 5) @ (_GL_WEIGHTS / 2.0)


def bin_average(curve: TheoryCurve, edges: np.ndarray) -> np.ndarray:
    """Collapse a node-layout curve to per-bin averages."""
    _check_layout(curve, np.asarray(edges))
    return _bin_mean(curve.total)


def pooled_windows(lo: float, hi: float) -> list[tuple[float, float]]:
    """(centre, width) of consecutive windows from lo, each ``WINDOW_SPACINGS``
    mean spacings wide at its start, while the next one ends at or below hi."""
    _check_height(lo)
    _check_height(hi)
    windows, e = [], lo
    while e + (w := WINDOW_SPACINGS / mean_density(e)) <= hi:
        windows.append((e + w / 2.0, w))
        e += w
    return windows


@dataclass(frozen=True)
class CompareReport:
    """The pooled histogram; the pooled bin means of the theory and its
    terms; the bin means of the GUE curve.

    Every score reads the scored bins alone, those centred in
    ``SCORED_RANGE``.  The noise floor is the mean square that counting
    noise alone leaves: a Poisson count gives Var(value_b) = R2_b / norm_b,
    with the binned GUE curve as R2_b.  ``ms_residual`` and ``ms_gue`` are
    the mean squares of the histogram about the theory and about the GUE
    curve.  With no bin scored, each score is nan.
    """

    estimate: CorrelationEstimate
    theory: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    gue: np.ndarray

    @property
    def residuals(self) -> np.ndarray:
        return self.estimate.values - self.theory

    @property
    def scored(self) -> np.ndarray:
        """Mask of the bins whose centre lies in ``SCORED_RANGE``."""
        lo, hi = SCORED_RANGE
        centers = self.estimate.bin_centers
        return (centers > lo) & (centers <= hi)

    def _scored_mean(self, values: np.ndarray) -> float:
        scored = self.scored
        return float(np.mean(values[scored])) if scored.any() else math.nan

    @property
    def noise_floor(self) -> float:
        return self._scored_mean(self.gue / self.estimate.norms)

    @property
    def ms_residual(self) -> float:
        return self._scored_mean(self.residuals**2)

    @property
    def ms_gue(self) -> float:
        return self._scored_mean((self.estimate.values - self.gue) ** 2)


def compare(ests: list[CorrelationEstimate], curves: list[TheoryCurve]) -> CompareReport:
    """Pool the windows' histograms (``aggregate``) and bin-averaged theory
    curves, one per window, weighting each window's bin means by
    norms / norms.sum(axis=0): one window's weight is exactly 1."""
    if not ests or len(ests) != len(curves):
        raise ValueError(f"need one theory curve per estimate, got {len(curves)} for {len(ests)}")
    pooled = aggregate(ests)
    for curve in curves:
        _check_layout(curve, pooled.bin_edges)
    norms = np.array([est.norms for est in ests])
    weights = norms / norms.sum(axis=0)
    binned = np.array([[_bin_mean(v) for v in (c.total, c.diag, c.offdiag)] for c in curves])
    theory, diag, offdiag = (binned * weights[:, None]).sum(axis=0)
    gue = _bin_mean(gue_on_bins(pooled.bin_edges).total)
    return CompareReport(pooled, theory, diag, offdiag, gue)
