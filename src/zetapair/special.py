"""Special functions: zeta on the 1-line, mean zero density, Si, sinc, sgn.

The zeta evaluator uses Euler-Maclaurin summation with the truncation
point sized from the classical remainder bound (Backlund; see Rubinstein,
*Computational methods and experiments in analytic number theory*, 2005),
so one routine covers both the 1-line (singular series side) and the
critical line (Z-function side, see ``zeros``).
Everything here is pure and thread-safe; ``ZetaEvaluator`` is immutable
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

__all__ = [
    "EPS_MIN",
    "PoleProximityError",
    "ZetaEvaluator",
    "mean_density",
    "zeta_one_line",
    "log_zeta_dd",
    "sine_integral",
    "sgn",
    "triangle",
    "sinc",
    "triangle_ft",
]

TWO_PI = 2.0 * math.pi

#: pole guard: the 1-line evaluator refuses |eps| below this
EPS_MIN = 1e-6

# B_{2k} for k = 1..11 (the last one only enters the remainder bound)
_B2K = np.array([
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
    -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138,
])
_FACT2K = np.array([math.factorial(2 * k) for k in range(1, 12)], dtype=np.float64)

#: target for the Euler-Maclaurin remainder bound
_EM_TOL = 1e-14
#: truncation points are rounded up to 2^(j/8), eight steps per octave
_STEPS_PER_OCTAVE = 8


class PoleProximityError(ValueError):
    """Raised when an evaluation point sits inside the pole guard at s = 1."""


@dataclass(frozen=True)
class ZetaEvaluator:
    """Euler-Maclaurin configuration.

    series_cutoff is the floor of the direct-sum truncation point;
    correction_order is the number of Bernoulli correction terms (1..10).
    Above the floor the truncation point is the smallest N at which the
    remainder bound after correction_order terms is at most 1e-14, which
    with the default order is about 0.62 |Im s| on the 1-line.
    """

    series_cutoff: int = 64
    correction_order: int = 10

    def __post_init__(self):
        if self.series_cutoff < 10:
            raise ValueError("series_cutoff must be >= 10")
        if not 1 <= self.correction_order <= 10:
            raise ValueError("correction_order must be in 1..10")

    def truncation_point(self, s):
        """Smallest N >= series_cutoff whose remainder bound is <= 1e-14.

        With k = correction_order the bound on the remainder is

            |s + 2k + 1| / (sigma + 2k + 1) * |B_{2k+2} / (2k+2)! * (s)_{2k+1}|
                * N^(-sigma - 2k - 1),

        decreasing in N, so N solves for it in closed form; it depends on
        sigma = Re s as well as on Im s.  Vectorized: an array of s gives
        an int64 array.
        """
        arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
        if not np.all(np.isfinite(arr)):
            raise ValueError("zeta needs a finite argument")
        k = self.correction_order
        expo = arr.real + (2 * k + 1)
        if np.any(expo <= 0.0):
            raise ValueError(f"Euler-Maclaurin of order {k} needs Re s > {-(2 * k + 1)}")
        # ln(bound * N^(sigma+2k+1) / tol); s = -j makes it -inf (bound 0)
        with np.errstate(divide="ignore"):
            log_c = (
                np.log(np.abs(arr + (2 * k + 1))) - np.log(expo)
                + math.log(abs(_B2K[k]) / _FACT2K[k] / _EM_TOL)
                + np.log(np.abs(arr[..., None] + np.arange(2 * k + 1))).sum(axis=-1)
            )
        n = np.maximum(np.ceil(np.exp(log_c / expo)), self.series_cutoff)
        # the closed form can land a rounding error below the true root
        n += log_c > expo * np.log(n)
        out = n.astype(np.int64)
        return int(out[0]) if np.ndim(s) == 0 else out


def mean_density(e: float | np.ndarray):
    """Zeros per unit height at height e: ln(e / 2pi) / 2pi."""
    e_arr = np.asarray(e, dtype=np.float64)
    if np.any(e_arr <= 0):
        raise ValueError("height must be positive")
    out = np.log(e_arr / TWO_PI) / TWO_PI
    return float(out) if np.isscalar(e) or out.ndim == 0 else out


def _zeta_em_block(s: np.ndarray, n_cut: int, order: int) -> np.ndarray:
    """Euler-Maclaurin zeta for an array of s sharing one truncation point."""
    s = np.asarray(s, dtype=np.complex128)
    n = np.arange(1, n_cut + 1, dtype=np.float64)
    ln_n = np.log(n)
    out = np.zeros(s.shape, dtype=np.complex128)
    # direct sum, chunked so the outer product stays small
    chunk = max(1, (1 << 21) // max(1, s.size))
    for lo in range(0, n_cut, chunk):
        terms = np.multiply.outer(-s, ln_n[lo : lo + chunk])
        out += np.exp(terms, out=terms).sum(axis=-1)
    ln_big = math.log(n_cut)
    pow_ns = np.exp(-s * ln_big)           # N^-s
    out += pow_ns * n_cut / (s - 1.0)      # integral tail
    out -= 0.5 * pow_ns
    poch = s.copy()                        # (s)_1
    npow = pow_ns / n_cut                  # N^(-s-1)
    inv_n2 = 1.0 / (n_cut * n_cut)
    for k in range(1, order + 1):
        out += (_B2K[k - 1] / _FACT2K[k - 1]) * poch * npow
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        npow = npow * inv_n2
    return out


def zeta_em(s, cfg: ZetaEvaluator = ZetaEvaluator()):
    """zeta(s) by Euler-Maclaurin, vectorized; truncation sized per point.

    Each point's truncation point is rounded up to the grid 2^(j/8), which
    limits the number of distinct blocks at a cost of at most 9% more terms.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    cuts = cfg.truncation_point(arr)
    steps = np.ceil(_STEPS_PER_OCTAVE * np.log2(cuts))
    buckets = np.maximum(np.ceil(np.exp2(steps / _STEPS_PER_OCTAVE)), cuts)
    out = np.empty(arr.shape, dtype=np.complex128)
    for b in np.unique(buckets):
        m = buckets == b
        out[m] = _zeta_em_block(arr[m], int(b), cfg.correction_order)
    return complex(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


def _guard(w: np.ndarray):
    if np.any(np.abs(w) < EPS_MIN):
        raise PoleProximityError(
            f"|eps| < {EPS_MIN:g} is inside the pole guard at s = 1"
        )


def zeta_one_line(cfg: ZetaEvaluator, eps, sign: int = 1):
    """zeta(1 + i*sign*eps); rejects the pole neighbourhood |eps| < EPS_MIN."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w = np.asarray(eps, dtype=np.float64) * sign
    _guard(np.atleast_1d(w))
    return zeta_em(1.0 + 1j * w, cfg)


def log_zeta_dd(cfg: ZetaEvaluator, eps):
    """d^2/dw^2 ln zeta(1 + iw) at w = eps.

    The pole is split off analytically: ln zeta(1 + iw) = -ln(iw) + g(w)
    with g(w) = ln(iw zeta(1 + iw)) regular at w = 0, so the result is
    1/eps^2 + g''(eps).  g'' comes from central second differences with
    step 1e-3 * max(1, |eps|) and one Richardson step; only logs of
    ratios of nearby values are taken, which keeps the branch fixed.
    The step is capped at 0.02: ln zeta oscillates on O(1) scales however
    large eps gets, so a step proportional to eps stops converging.
    """
    w = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    _guard(w)
    h = np.minimum(1e-3 * np.maximum(1.0, np.abs(w)), 0.02)
    # never place a stencil point on the pole itself
    h = np.where(np.minimum(np.abs(w - h), np.abs(w - h / 2)) < 1e-9, h * 1.0000373, h)

    # the five distinct stencil points in one zeta_em call
    half = h / 2
    pts = np.concatenate([w, w + half, w - half, w + h, w - h])
    z0, z_half_p, z_half_m, z_p, z_m = zeta_em(1.0 + 1j * pts, cfg).reshape(5, -1)

    def d2(step: np.ndarray, zp: np.ndarray, zm: np.ndarray) -> np.ndarray:
        ratio = (zp * zm / z0**2) * ((w + step) * (w - step) / w**2)
        return np.log(ratio) / step**2

    out = 1.0 / w**2 + (4.0 * d2(half, z_half_p, z_half_m) - d2(h, z_p, z_m)) / 3.0
    scalar = np.isscalar(eps) or np.asarray(eps).ndim == 0
    return complex(out[0]) if scalar else out


# -- sine integral ---------------------------------------------------------

def sine_integral(x):
    """Si(x) = integral of sin t / t from 0 to x; odd, |error| <= 1e-15.

    Delegates to ``scipy.special.sici``; scalars in give floats out.
    """
    si = sici(x)[0]
    return float(si) if np.isscalar(x) or np.asarray(x).ndim == 0 else si


# -- elementary pieces of the smoothing analysis ----------------------------

def sgn(x):
    """Sign with sgn(0) = -1 (the convention used throughout)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.where(arr <= 0.0, -1.0, 1.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def triangle(x):
    """Unit triangle: 1 - |x| on [-1, 1], zero outside."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.where(np.abs(arr) <= 1.0, 1.0 - np.abs(arr), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sinc(x):
    """sin(x)/x with sinc(0) = 1."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.sinc(arr / np.pi)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def triangle_ft(k):
    """Fourier transform of the unit triangle: sinc(k/2)^2."""
    arr = np.asarray(k, dtype=np.float64)
    out = np.sinc(arr / (2.0 * np.pi)) ** 2
    return float(out) if np.isscalar(k) or arr.ndim == 0 else out
