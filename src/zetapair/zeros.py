"""Ordinates of nontrivial zeros: computation, ingestion, counting, unfolding.

Zeros are located as sign changes of the real Z-function on one grid per
Gram block: the m Gram intervals between consecutive good Gram points
hold m zeros, and the Gram intervals of every block still short of m sign
changes are halved together, one Z evaluation call per depth, which
resolves the blocks where Gram's law fails.  Each bracket then starts
from Z at both of its ends, already known, and is refined by vectorized
Illinois steps that keep the sign change.  That takes about 8 Z
evaluations per zero, and 9.2 to 9.3 with the Gram points and block grids
on (10, 1000), (2990, 6610), (2990, 12010) and (99000, 99500).  The Gram
points of a whole range come from one vectorized Newton iteration on
theta, started from the Lambert-W root of its leading terms; the index
range is padded so good Gram points anchor both ends.

Below t = 1000 the Z-function is evaluated through Euler-Maclaurin zeta
on the critical line (``special.zeta_em``, which has no settings: ten
Bernoulli corrections, and the direct sum truncated where the remainder
bound is 1e-14, at no fewer than 64 terms), and the ordinates are within 1e-12 of
mpmath's (at most 6.8e-13 over 16 sampled zeros, at the zero near
986.756, and 3.4e-13 at the others; the low zeros are also checked to
1e-6 against published tables).  Above, the main Riemann-Siegel sum with
the leading correction term takes over.  Its
error ~0.13 t^(-3/4) is orders of magnitude below the ~1e-2 scale of the
tightest sign margins at desk heights, so no zero is lost, but it limits
the ordinates: typically to about 1e-5 (6.1e-6, 1.3e-5 and 2.9e-6 at
t = 2990, 7705 and 12010), and at close pairs to a few 1e-4.  The worst
case measured is the pair whose mpmath roots are 4589.6434 and 4589.7488
(gap 0.105): it comes out 3.04e-4 low and 2.77e-4 high, so its spacing
is 5.8e-4 too wide.

All ordinates assume every zero sits on the critical line; no off-line
search is attempted.  Heights start at ``T_FLOOR`` = 10: the enumeration
and the smooth-count check both rest on the expansion of theta, which
holds from t ~ 7, and a table whose range starts lower fails the check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .special import TWO_PI, mean_density, zeta_em

__all__ = [
    "ZeroList",
    "ZeroTableFormatError",
    "IncompleteEnumerationError",
    "CountReport",
    "rs_theta",
    "gram_point",
    "zfunc",
    "compute_zeros",
    "load_zeros",
    "save_zeros",
    "smooth_count",
    "counting_check",
    "unfold",
]

#: below this height Z goes through Euler-Maclaurin zeta
Z_EM_SWITCH = 1000.0
#: lowest height that the enumeration and the smooth count accept
T_FLOOR = 10.0

_GRAM_FLOOR = -1  # theta(t) = n pi has no solution above 2 pi for n < -1
#: Newton on theta converges in about six steps at every n in the envelope
_NEWTON_STEPS = 50
_NEWTON_RTOL = 4.0 * np.finfo(np.float64).eps
#: Gram indices evaluated beyond each end of a range, so good Gram points
#: anchor both ends; the longest run of bad Gram points below t = 1e5 is 4
_ANCHOR_PAD = 8


class ZeroTableFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IncompleteEnumerationError(RuntimeError):
    """A Gram block refused to give up the expected number of sign changes."""

    def __init__(self, message: str, block: tuple[float, float] | None = None):
        self.block = block
        super().__init__(message)


@dataclass(frozen=True)
class ZeroList:
    """Ascending zero ordinates over a height range.

    claimed_complete means the list is believed to contain every zero in
    range (always asserted for computed lists, checked against the smooth
    count for ingested ones).
    """

    ordinates: np.ndarray
    range: tuple[float, float]
    claimed_complete: bool

    def __post_init__(self):
        object.__setattr__(
            self, "ordinates", np.ascontiguousarray(self.ordinates, dtype=np.float64)
        )
        self.ordinates.setflags(write=False)
        if not (np.all(np.isfinite(self.ordinates)) and np.all(np.isfinite(self.range))):
            raise ValueError("ordinates and range must be finite")
        if len(self.ordinates) > 1 and np.any(np.diff(self.ordinates) <= 0):
            raise ValueError("ordinates must be strictly ascending")
        if len(self.ordinates) and (
            self.ordinates[0] < self.range[0] or self.ordinates[-1] > self.range[1]
        ):
            raise ValueError("ordinates fall outside the declared range")

    def __len__(self) -> int:
        return len(self.ordinates)


def rs_theta(t):
    """Riemann-Siegel theta by its asymptotic expansion (t >= ~7)."""
    t = np.asarray(t, dtype=np.float64)
    out = (
        t / 2.0 * np.log(t / TWO_PI)
        - t / 2.0
        - np.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
        + 31.0 / (80640.0 * t**5)
        + 127.0 / (430080.0 * t**7)
    )
    return float(out) if out.ndim == 0 else out


def gram_point(n):
    """The Gram point g_n: theta(g_n) = n pi (defined for n >= -1).

    Takes an int or an int array and returns a float or an array.
    Newton's method on ``rs_theta`` with theta'(t) ~ ln(t/2pi)/2 runs on
    all n at once from t0 = 2pi exp(1 + W((8n+1)/(8e))), the root of the
    leading terms t/2 ln(t/2pi) - t/2 - pi/8 (W is Lambert's function),
    until each step is within a few ulp of t.
    """
    arr = np.asarray(n)
    if np.any(arr < _GRAM_FLOOR):
        raise ValueError("Gram points are defined for n >= -1")
    idx = np.atleast_1d(arr).astype(np.float64)
    if not np.all(np.isfinite(idx)):
        raise ValueError("a Gram point needs a finite index")
    target = idx * math.pi
    from scipy.special import lambertw

    t = TWO_PI * np.exp(1.0 + lambertw((8.0 * idx + 1.0) / (8.0 * math.e)).real)
    active = np.ones(t.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        step = (rs_theta(t) - target) / (0.5 * np.log(t / TWO_PI))
        t = np.where(active, t - step, t)
        # a point stops once its step is within a few ulp, so its value
        # does not depend on the other points of the call
        active &= np.abs(step) > _NEWTON_RTOL * t
        if not np.any(active):
            break
    return float(t[0]) if arr.ndim == 0 else t


def _psi_rs(p: np.ndarray) -> np.ndarray:
    """cos(2pi(p^2 - p - 1/16)) / cos(2pi p), de-singularized at p = 1/4, 3/4."""
    num_arg = TWO_PI * (p * p - p - 0.0625)
    den = np.cos(TWO_PI * p)
    near = np.abs(den) < 1e-7
    safe_den = np.where(near, 1.0, den)
    val = np.cos(num_arg) / safe_den
    # ratio of derivatives at the removable singularities
    lhop = (2.0 * p - 1.0) * np.sin(num_arg) / np.sin(TWO_PI * p)
    return np.where(near, lhop, val)


def _z_riemann_siegel(t: np.ndarray) -> np.ndarray:
    tau = np.sqrt(t / TWO_PI)
    nu = np.floor(tau).astype(np.int64)
    theta = rs_theta(t)
    out = np.empty(t.shape, dtype=np.float64)
    for v in np.unique(nu):
        m = nu == v
        n = np.arange(1, v + 1, dtype=np.float64)
        phase = theta[m, None] - np.multiply.outer(t[m], np.log(n))
        out[m] = 2.0 * (np.cos(phase) / np.sqrt(n)).sum(axis=1)
    corr = (-1.0) ** (nu - 1) * (t / TWO_PI) ** -0.25 * _psi_rs(tau - nu)
    return out + corr


def _z_euler_maclaurin(t: np.ndarray) -> np.ndarray:
    z = zeta_em(0.5 + 1j * t)
    return np.real(np.exp(1j * rs_theta(t)) * z)


def zfunc(t):
    """Hardy's Z(t): real, with Z(t) = 0 exactly at zero ordinates.

    At and above ``Z_EM_SWITCH`` (Riemann-Siegel) a value depends on its t
    alone, whatever else the call holds.  Below it the points of one call
    share one Euler-Maclaurin truncation, set where the remainder bound holds
    for all of them, so a value there can move in its last bits (by up to
    2.5e-13 measured) with the other points of the call, and an ordinate with
    the range asked for.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("Z evaluation needs a finite t")
    if np.any(arr < 2.0):
        raise ValueError("Z evaluation needs t >= 2")
    out = np.empty(arr.shape, dtype=np.float64)
    low = arr < Z_EM_SWITCH
    if np.any(low):
        out[low] = _z_euler_maclaurin(arr[low])
    if np.any(~low):
        out[~low] = _z_riemann_siegel(arr[~low])
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def smooth_count(t) -> float:
    """Average number of zeros with ordinate in (0, t]: theta(t)/pi + 1."""
    return rs_theta(t) / math.pi + 1.0


# -- enumeration -------------------------------------------------------------

_MAX_DEPTH = 6
#: a hard cap on refinement sweeps: every four sweeps at least halve a bracket,
#: and 50 halvings take the widest, (g_-1, g_0) of length 8.2, below its stop
#: width 4 eps t, so no bracket reaches the cap
_REFINE_SWEEPS = 4 * 50
_EPS = np.finfo(np.float64).eps


def _refine(a, b, fa, fb) -> np.ndarray:
    """One root of Z per bracket (a, b), given Z(a) = fa and Z(b) = fb of opposite sign.

    Each sweep takes one Illinois step on every open bracket (Dowell and
    Jarratt, BIT 11, 1971) and evaluates Z at all the new points in one
    ``zfunc`` call: the secant point, kept tol = 2 eps t inside the bracket
    as in Brent's zeroin, or the midpoint when the bracket has not halved
    in three sweeps.  The new point replaces the end whose Z has its sign, so
    the bracket always holds a sign change of the computed Z; an end kept
    twice in a row has its Z halved.  A bracket stops at width 2 tol, with
    its midpoint, or when Z vanishes at the new point, with that point.
    """
    a, b, fa, fb = (np.array(v, dtype=np.float64) for v in (a, b, fa, fb))
    root = 0.5 * (a + b)
    kept = np.zeros(a.shape, dtype=np.int8)  # -1: a kept last sweep, +1: b kept
    widths = np.full((3,) + a.shape, np.inf)  # the last three sweeps' widths, oldest first
    open_ = np.flatnonzero(b - a > 4.0 * _EPS * b)
    for _ in range(_REFINE_SWEEPS):
        if open_.size == 0:
            break
        ai, bi, fai, fbi = a[open_], b[open_], fa[open_], fb[open_]
        width = bi - ai
        tol = 2.0 * _EPS * bi
        x = bi - fbi * (width / (fbi - fai))
        x = np.minimum(np.maximum(x, ai + tol), bi - tol)
        x = np.where((width > 0.5 * widths[0, open_]) | np.isnan(x), 0.5 * (ai + bi), x)
        widths[:-1, open_] = widths[1:, open_]
        widths[-1, open_] = width
        fx = zfunc(x)
        move_a = np.signbit(fx) == np.signbit(fai)
        # Illinois: halve the Z of an end kept for the second sweep running
        fbi = np.where(move_a & (kept[open_] == 1), 0.5 * fbi, fbi)
        fai = np.where(~move_a & (kept[open_] == -1), 0.5 * fai, fai)
        kept[open_] = np.where(move_a, 1, -1)
        a[open_] = np.where(move_a, x, ai)
        fa[open_] = np.where(move_a, fx, fai)
        b[open_] = np.where(move_a, bi, x)
        fb[open_] = np.where(move_a, fbi, fx)
        hit = fx == 0.0
        root[open_] = np.where(hit, x, 0.5 * (a[open_] + b[open_]))
        done = hit | (b[open_] - a[open_] <= 4.0 * _EPS * b[open_])
        open_ = open_[~done]
    return root


def _bracket_blocks(g, zg, anchors):
    """Bracket the zeros of every Gram block between consecutive anchors.

    A block of m Gram intervals between good Gram points g[a] and g[a + m]
    holds m zeros.  At depth d each Gram interval of a still-open block is
    cut into 2^d equal pieces: depth 0 is the Gram points themselves, whose
    Z is ``zg``, and each further depth evaluates Z at the midpoints of the
    last grid of all open blocks in one ``zfunc`` call.  A block closes when
    its grid shows m sign changes.  Returns the brackets' ends and their Z.
    """
    def failure(j, what):
        lo, hi = float(g[anchors[j]]), float(g[anchors[j + 1]])
        return IncompleteEnumerationError(f"block ({lo:.6f}, {hi:.6f}) {what}", block=(lo, hi))

    m = np.diff(anchors)
    block = np.repeat(np.arange(len(m)), m)  # the block of each Gram interval
    k = np.arange(anchors[0], anchors[-1])
    t = np.stack([g[k], g[k + 1]], axis=1)  # one row per open Gram interval
    z = np.stack([zg[k], zg[k + 1]], axis=1)
    out = []
    for depth in range(_MAX_DEPTH + 1):
        if depth:
            mid = 0.5 * (t[:, :-1] + t[:, 1:])
            t = _interleave(t, mid)
            z = _interleave(z, zfunc(mid.ravel()).reshape(mid.shape))
        rows, cols = np.nonzero(np.signbit(z[:, 1:]) != np.signbit(z[:, :-1]))
        found = np.bincount(block[rows], minlength=len(m))
        over = np.flatnonzero(found > m)
        if over.size:
            j = over[0]
            raise failure(j, f"shows {found[j]} sign changes where {m[j]} zeros are expected")
        closed = found == m
        take = closed[block[rows]]
        r, c = rows[take], cols[take]
        out.append((t[r, c], t[r, c + 1], z[r, c], z[r, c + 1]))
        keep = ~closed[block]
        t, z, block = t[keep], z[keep], block[keep]
        if not block.size:
            return tuple(np.concatenate(col) for col in zip(*out))
    j = block[0]
    raise failure(j, f"still hides zeros after depth {_MAX_DEPTH}: found {found[j]} of {m[j]}")


def _interleave(coarse, fine):
    """The columns of coarse with those of fine between them."""
    out = np.empty((coarse.shape[0], coarse.shape[1] + fine.shape[1]))
    out[:, ::2] = coarse
    out[:, 1::2] = fine
    return out


def compute_zeros(t_min: float, t_max: float) -> ZeroList:
    """Enumerate every zero ordinate in (t_min, t_max].

    Works in Gram blocks: between consecutive good Gram points (where
    (-1)^n Z(g_n) > 0) exactly block-length zeros must appear.  Every
    block is bracketed on one path: its grid starts at its Gram points,
    and the Gram intervals of all blocks still short of sign changes are
    halved together (up to depth 6), one ``zfunc`` call per depth, which
    resolves the close pairs that violate Gram's law at these heights.  On
    (2990, 6610) that is 24 ``zfunc`` calls in all, refinement included,
    and 9.3 Z points per zero.  Each zero is refined to a bracket of width
    4 eps t around a sign change of the computed Z.  Against mpmath the
    ordinates are within 1e-12 below t = 1000 (6.8e-13 at worst over 16
    sampled zeros, near 986.756), and above it within about 1e-5
    typically and 3.04e-4 at worst (the close pair at 4589.64, gap
    0.105), where the Riemann-Siegel Z with its leading correction limits
    them.
    """
    if not (T_FLOOR <= t_min < t_max <= 1e5):
        raise ValueError(f"computation envelope is {T_FLOOR:g} <= t_min < t_max <= 1e5")

    n_lo = max(_GRAM_FLOOR, int(math.floor(rs_theta(t_min) / math.pi)) - 1)
    n_hi = int(math.ceil(rs_theta(t_max) / math.pi)) + 2

    idx = np.arange(max(_GRAM_FLOOR, n_lo - _ANCHOR_PAD), n_hi + _ANCHOR_PAD + 1)
    g = gram_point(idx)
    zg = zfunc(g)
    good = ((-1.0) ** idx * zg > 0) & (np.abs(zg) > 1e-14)

    # anchor on the nearest good Gram points at or beyond both ends
    anchors = np.nonzero(good)[0]
    below = anchors[anchors <= n_lo - idx[0]]
    above = anchors[anchors >= n_hi - idx[0]]
    if len(below) == 0:
        raise IncompleteEnumerationError("no good Gram anchor below the requested range")
    if len(above) == 0:
        raise IncompleteEnumerationError("no good Gram anchor above the requested range")
    anchors = anchors[(anchors >= below[-1]) & (anchors <= above[0])]
    zeros = np.sort(_refine(*_bracket_blocks(g, zg, anchors)))
    zeros = zeros[(zeros > t_min) & (zeros <= t_max)]
    return ZeroList(zeros, (float(t_min), float(t_max)), True)


# -- ingestion ---------------------------------------------------------------

def load_zeros(path: str | Path) -> ZeroList:
    """Read a plain-text zero table: one ascending ordinate per line.

    '#'-prefixed lines are comments; a '#offset <decimal>' line supplies a
    base height added to every subsequent ordinate (for tables stored
    relative to a block start).
    """
    path = Path(path)
    offset = 0.0
    vals: list[float] = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("offset"):
                    try:
                        offset = float(body.split()[1])
                    except (IndexError, ValueError):
                        raise ZeroTableFormatError("malformed #offset header", ln)
                    if not math.isfinite(offset):
                        raise ZeroTableFormatError(f"non-finite #offset {offset!r}", ln)
                continue
            try:
                v = offset + float(line)
            except ValueError:
                raise ZeroTableFormatError(f"unparsable ordinate {line!r}", ln)
            if not math.isfinite(v):
                raise ZeroTableFormatError(f"non-finite ordinate {line!r}", ln)
            if vals and v <= vals[-1]:
                raise ZeroTableFormatError(
                    f"ordinate {v!r} not above its predecessor", ln
                )
            vals.append(v)
    if not vals:
        raise ZeroTableFormatError(f"no ordinates in {path}")
    arr = np.array(vals)
    zl = ZeroList(arr, (float(arr[0]), float(arr[-1])), False)
    return replace(zl, claimed_complete=not counting_check(zl).flagged)


def save_zeros(zl: ZeroList, path: str | Path) -> Path:
    """Write a ZeroList in the same text format load_zeros reads.

    The table is written to a temporary file beside ``path`` and renamed
    over it, so a concurrent reader sees either no table or a whole one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# zero ordinates, range ({zl.range[0]:.6f}, {zl.range[1]:.6f})\n")
            for v in zl.ordinates:
                fh.write(f"{float(v)!r}\n")  # the shortest decimal that reads back exactly
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


# -- statistics --------------------------------------------------------------

@dataclass(frozen=True)
class CountReport:
    expected: float
    actual: int
    discrepancy: float
    flagged: bool


def counting_check(zl: ZeroList) -> CountReport:
    """Compare the ordinates in (lo, hi] with the smooth count over zl.range.

    N(hi) - N(lo) counts the zeros in (lo, hi], so an ordinate at lo itself
    is left out of ``actual``: an ingested table's range starts at its first
    ordinate, and counting that one would spend 1 of the tolerance of 2.
    A range that starts below ``T_FLOOR`` is outside the smooth count's
    domain: it is not evaluated there, expected reads nan, and the report
    is flagged, as is any discrepancy that is not finite.
    """
    lo, hi = zl.range
    if lo < T_FLOOR:
        expected = math.nan
    else:
        expected = smooth_count(hi) - smooth_count(lo) if hi > lo else 0.0
    actual = int(np.count_nonzero(zl.ordinates > lo))
    disc = actual - expected
    return CountReport(expected, actual, disc, not abs(disc) <= 2.0)


def unfold(zl: ZeroList, e_center: float) -> np.ndarray:
    """Rescale ordinates by the mean density at e_center (unit mean spacing)."""
    if len(zl) == 0:
        raise ValueError("cannot unfold an empty zero list")
    if not (zl.range[0] <= e_center <= zl.range[1]):
        raise ValueError("e_center outside the zero list range")
    return zl.ordinates * mean_density(e_center)
