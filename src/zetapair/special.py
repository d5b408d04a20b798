"""Special functions: zeta on the 1-line, mean zero density, Si, sinc, sgn.

The zeta evaluator uses Euler-Maclaurin summation with a truncation point
that grows with |Im s|, so one routine covers both the 1-line (singular
series side) and the critical line (Z-function side, see ``zeros``).
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

# B_{2k} for k = 1..10
_B2K = np.array([
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
    -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
])
_FACT2K = np.array([math.factorial(2 * k) for k in range(1, 11)], dtype=np.float64)


class PoleProximityError(ValueError):
    """Raised when an evaluation point sits inside the pole guard at s = 1."""


@dataclass(frozen=True)
class ZetaEvaluator:
    """Euler-Maclaurin configuration.

    series_cutoff is the floor of the direct-sum truncation point (the
    actual point grows like 1.4 |Im s|); correction_order is the number of
    Bernoulli correction terms (1..10).
    """

    series_cutoff: int = 64
    correction_order: int = 8

    def __post_init__(self):
        if self.series_cutoff < 10:
            raise ValueError("series_cutoff must be >= 10")
        if not 1 <= self.correction_order <= 10:
            raise ValueError("correction_order must be in 1..10")

    def truncation_point(self, im: float) -> int:
        return max(self.series_cutoff, int(1.4 * abs(im)) + 24)


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
        out += np.exp(-np.multiply.outer(s, ln_n[lo : lo + chunk])).sum(axis=-1)
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
    """zeta(s) by Euler-Maclaurin, vectorized; truncation adapts to Im s."""
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    cuts = np.array([cfg.truncation_point(v) for v in np.abs(arr.imag)])
    # bucket to limit the number of distinct truncation points
    buckets = np.array([1 << max(6, int(c - 1).bit_length()) for c in cuts])
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

    def d2(step: np.ndarray) -> np.ndarray:
        pts = np.concatenate([w, w + step, w - step])
        z = zeta_em(1.0 + 1j * pts, cfg).reshape(3, -1)
        ratio = (z[1] * z[2] / z[0] ** 2) * ((w + step) * (w - step) / w**2)
        return np.log(ratio) / step**2

    out = 1.0 / w**2 + (4.0 * d2(h / 2) - d2(h)) / 3.0
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
