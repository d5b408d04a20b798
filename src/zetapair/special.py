"""Special functions: zeta on the 1-line, mean zero density, Si, sgn, triangle.

The zeta evaluator uses Euler-Maclaurin summation with ten Bernoulli
corrections and the truncation point sized from the classical remainder
bound (Backlund; see Rubinstein, *Computational methods and experiments
in analytic number theory*, 2005), at least 64, so one routine with no
settings covers both the 1-line (singular series side) and the critical
line (Z-function side, see ``zeros``).  All points on one line
Re s = sigma share the largest truncation point any of them needs, and
their direct sum, the Dirichlet polynomial sum_n n^-sigma exp(-i t ln n),
is one call of a ``DirichletSum``: a nonuniform FFT in O((N + points) log)
work.  ``DirichletSum(c, x)`` is the only way into that kernel; it also
sums the inversion's E-side phases and the prime sums of ``paircorr``.  It
holds the terms, plans a canonical tile, a power-of-two span of the
t-grid set by the sum's band limit and the points' band alone, and reads
the points from it; it keeps the plan of the last tile, so an object that
is kept (``paircorr`` keeps one per sieve, at its last cutoff pair) reads
later points in the same tile without gridding the terms again.  Small sums
stay direct, with each block of phases formed once for all the rows of a
stack.

The second log-derivative on the 1-line is exact in form: one evaluation
stacks the rows n^-sigma (-ln n)^j, j = 0, 1, 2, differentiates the
Euler-Maclaurin tail term by term, and returns zeta, zeta' and zeta''.
``zeta_and_log_dd`` returns that zeta and d^2/dw^2 ln zeta(1 + iw) =
-[zeta''/zeta - (zeta'/zeta)^2], within 4e-13 relative of mpmath up to
eps = 150 and 3.5e-12 at eps = 2500, so a caller that needs both pays for
one evaluation.

Everything here is pure and thread-safe; ``ZetaEvaluator`` holds no
state, a plan is not changed by reading it, and a ``DirichletSum``
shared between threads gives each call the bits of a fresh one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS_MIN",
    "DirichletSum",
    "PoleProximityError",
    "ZetaEvaluator",
    "mean_density",
    "zeta_one_line",
    "zeta_and_log_dd",
    "sine_integral",
    "sgn",
    "triangle",
    "triangle_ft",
    "zeta_em",
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
#: floor of the Euler-Maclaurin truncation point, and its Bernoulli correction terms
_EM_FLOOR = 64
_EM_ORDER = 10

# Dirichlet-polynomial kernel: a t-grid oversampled _OVERSAMPLE times past the
# band limit max|x|, filled by Gaussian gridding onto a fine grid _FINE_RATIO
# times the t-grid with _SPREAD points per term, then read at the targets
# through _TAPS taps of a Gaussian-regularized sinc
_OVERSAMPLE = 4
_FINE_RATIO = 3
_SPREAD = 32
_TAPS = 60
#: the gridding of one term, _SPREAD weights in one sparse product, costs
#: about as much as 8 terms of the direct sum (measured)
_TERM_COST = 8
#: largest fine grid, and largest phase block of the direct sum
_MAX_GRID = 1 << 21
#: narrowest tile, in t-grid steps
_MIN_TILE = 16
#: 1/(2 pi) as a double-double
_INV_TWO_PI = 0.15915494309189535
_INV_TWO_PI_LO = -9.839338337591243e-18


class PoleProximityError(ValueError):
    """Raised when an evaluation point sits inside the pole guard at s = 1."""


@dataclass(frozen=True)
class ZetaEvaluator:
    """The Euler-Maclaurin zeta's configuration, which has no settings.

    Every evaluation takes ten Bernoulli correction terms and the
    smallest N >= 64 whose remainder bound is at most 1e-14, about
    0.62 |Im s| on the 1-line above the floor; the ``cfg`` parameters take it.
    """

    def truncation_point(self, s):
        """Smallest N >= 64 whose remainder bound is <= 1e-14.

        With k = 10 correction terms the bound on the remainder is

            |s + 2k + 1| / (sigma + 2k + 1) * |B_{2k+2} / (2k+2)! * (s)_{2k+1}|
                * N^(-sigma - 2k - 1),

        decreasing in N, so N solves for it in closed form; it depends on
        sigma = Re s as well as on Im s.  Vectorized: an array of s gives
        an int64 array.
        """
        arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
        if not np.all(np.isfinite(arr)):
            raise ValueError("zeta needs a finite argument")
        k = _EM_ORDER
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
        n = np.maximum(np.ceil(np.exp(log_c / expo)), _EM_FLOOR)
        # the closed form can land a rounding error below the true root
        n += log_c > expo * np.log(n)
        out = n.astype(np.int64)
        return int(out[0]) if np.ndim(s) == 0 else out


def mean_density(e: float | np.ndarray):
    """Zeros per unit height at height e: ln(e / 2pi) / 2pi."""
    e_arr = np.asarray(e, dtype=np.float64)
    if not np.all(np.isfinite(e_arr) & (e_arr > 0)):
        raise ValueError("height must be finite and positive")
    out = np.log(e_arr / TWO_PI) / TWO_PI
    return float(out) if np.isscalar(e) or out.ndim == 0 else out


def _direct_sum(c: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k c_k exp(-i t_j x_k) for each row of c, over the stack's nonzero columns.

    c is one row, shape (K,), or a stack, shape (R, K).  The columns where
    any row is nonzero are summed in chunks of at most 2^21 phases, added
    up per target; the phases of a chunk are formed once, and each row
    reduces over all of them.  A single row thus sums its nonzero terms
    alone; a row of a stack that is zero where another row is not also sums
    those zeros, which can move its last bits.
    """
    rows = np.atleast_2d(c)
    cols = np.flatnonzero(rows.any(axis=0))
    out = np.zeros((len(rows), t.size), dtype=np.complex128)
    minus_it = -1j * t
    chunk = max(1, _MAX_GRID // max(1, t.size))
    for lo in range(0, cols.size, chunk):
        part = cols[lo : lo + chunk]
        phases = np.multiply.outer(minus_it, x[part])
        np.exp(phases, out=phases)
        for acc, row in zip(out[:-1], rows[:-1]):
            acc += (phases * row[part]).sum(axis=-1)
        phases *= rows[-1, part]
        out[-1] += phases.sum(axis=-1)
    return out[0] if c.ndim == 1 else out


def _two_prod(a, b):
    """a * b as an unevaluated sum hi + lo, exactly (Dekker's product)."""
    hi = a * b
    a_split = 134217729.0 * a               # 2^27 + 1
    a_hi = a_split - (a_split - a)
    b_split = 134217729.0 * b
    b_hi = b_split - (b_split - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fine_size(half: int) -> int:
    """Length of the fine grid under the 2 half modes of a tile."""
    from scipy.fft import next_fast_len

    return next_fast_len(_FINE_RATIO * 2 * half, real=True)


def _canonical_tile(x: np.ndarray, t: np.ndarray):
    """(dt, n0, half) of the tile the transform reads the targets t from.

    dt = pi / (4 max|x|) rounded down to four significant bits, so dt n is
    exact for the grid points n and t / dt carries over into double-double.
    With the targets' band W wide in grid units, T is the least power of
    two, at least 16, with T >= W, and the centre n0 is the multiple of T/2
    nearest the band's centre; the modes n0 - half .. n0 + half - 1, with
    half = 3T/4 + 31, hold the 60 taps around every target.  A tile is
    thus set by (max|x|, t) alone, and every band that lands in it reads
    the same modes.  None where the direct sum costs less: K M below twice
    the transform's work, grid + 8 K + 60 M, or a grid past 2^21 points.
    """
    x_max = float(np.max(np.abs(x), initial=0.0))
    if x_max == 0.0 or t.size == 0:
        return None
    exp2 = math.frexp(math.pi / (_OVERSAMPLE * x_max))[1] - 4
    dt = math.ldexp(math.floor(math.ldexp(math.pi / (_OVERSAMPLE * x_max), -exp2)), exp2)
    u_lo, u_hi = float(np.min(t)) / dt, float(np.max(t)) / dt
    if not math.isfinite(u_hi - u_lo):
        raise ValueError("a Dirichlet sum needs finite targets")
    if u_hi - u_lo > _MAX_GRID:
        return None  # the fine grid is at least 4.5 T long
    width = _MIN_TILE
    while width < u_hi - u_lo:
        width *= 2
    n0 = round(0.5 * (u_lo + u_hi) / (width // 2)) * (width // 2)
    half = 3 * width // 4 + _TAPS // 2 + 1
    n_fine = _fine_size(half)
    work = n_fine + _TERM_COST * x.size + _TAPS * t.size
    if n_fine > _MAX_GRID or x.size * t.size < 2 * work:
        return None
    return dt, n0, half


class _Plan:
    """The t-grid of sum_k c_k exp(-i t x_k) on one canonical tile.

    Building it grids the terms, transforms and deconvolves: the mode
    spectrum g_m of t = (n0 + m) dt, m = -half .. half - 1, one row per row
    of c.  ``read`` interpolates g_m at targets inside the tile; it does no
    work that depends on the terms, so a plan built once serves every band
    that lands in its tile, with the bits a fresh plan would give.
    """

    def __init__(self, c: np.ndarray, x: np.ndarray, tile: tuple[float, int, int]):
        self.tile = tile
        dt, n0, half = tile
        # c_k exp(-i t0 x_k); t0 x_k / (2 pi) in double-double, whole turns dropped
        t0 = n0 * dt
        t0_turns, t0_turns_lo = _two_prod(t0, _INV_TWO_PI)
        t0_turns_lo += t0 * _INV_TWO_PI_LO
        turns, turns_lo = _two_prod(x, t0_turns)
        turns_lo += x * t0_turns_lo
        turns -= np.round(turns)
        rows = np.atleast_2d(c) * np.exp(1j * ((turns + turns_lo) * -TWO_PI))

        # type 1: G(m) = sum_k c_k exp(-i m y_k), y_k = x_k dt in [-pi/4, pi/4], from
        # a periodic Gaussian of width tau on the fine grid; positions in its units
        n_modes = 2 * half
        n_fine = _fine_size(half)
        ratio = n_fine / n_modes
        tau = math.pi * (_SPREAD // 2) / (n_modes**2 * ratio * (ratio - 0.5))
        to_fine, to_fine_lo = _two_prod(dt * n_fine, _INV_TWO_PI)
        to_fine_lo += dt * n_fine * _INV_TWO_PI_LO
        pos, pos_lo = _two_prod(x, to_fine)
        pos_lo += x * to_fine_lo
        base = np.floor(pos)
        dist = ((pos - base) + pos_lo)[:, None] - np.arange(1 - _SPREAD // 2, _SPREAD // 2 + 1)
        gauss = np.exp(dist * dist * -((TWO_PI / n_fine) ** 2 / (4.0 * tau)))
        # column k holds term k's weights on fine points first_k .. first_k + 31;
        # the 31 rows past the end wrap around
        first = (base.astype(np.int64) + (1 - _SPREAD // 2)) % n_fine
        import scipy.sparse

        spread = scipy.sparse.csc_matrix(
            (gauss.ravel(), (first[:, None] + np.arange(_SPREAD)).ravel(),
             np.arange(0, _SPREAD * x.size + 1, _SPREAD)),
            shape=(n_fine + _SPREAD - 1, x.size),
        )
        fine = spread @ np.concatenate([rows.real, rows.imag]).T
        fine[: _SPREAD - 1] += fine[n_fine:]
        grid = np.empty((len(rows), n_fine), dtype=np.complex128)
        grid.real = fine[:n_fine, : len(rows)].T
        grid.imag = fine[:n_fine, len(rows) :].T
        modes = np.arange(-half, half)
        spec = np.fft.fft(grid)[:, modes]
        self.g_m = spec * (
            np.exp(tau * modes.astype(np.float64) ** 2) * (math.sqrt(math.pi / tau) / n_fine)
        )

    def read(self, t: np.ndarray) -> np.ndarray:
        """The sums at targets t in the tile, shape (rows, M)."""
        dt, n0, half = self.tile
        u = t / dt
        prod, prod_lo = _two_prod(u, dt)
        base = np.floor(u)
        frac = (u - base) + ((t - prod) - prod_lo) / dt
        taps = np.arange(1 - _TAPS // 2, _TAPS // 2 + 1)
        d = frac[:, None] - taps
        var = (_TAPS // 2) / (math.pi * (1.0 - 1.0 / _OVERSAMPLE))
        # sinc(d) from one sine per target: sin(pi (f - l)) = (-1)^(l - n) sin(pi (f - n)),
        # with n the whole number nearest f; f - n is exact, so the sine keeps its
        # relative accuracy where f is near n
        near = np.round(frac)
        sine = np.sin(math.pi * (frac - near)) * np.where(near % 2, -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = sine[:, None] * np.where(taps % 2, -1.0, 1.0) / (math.pi * d)
        kern[d == 0.0] = 1.0  # the tap at f itself
        kern *= np.exp(d * d * (-0.5 / var))
        at = (base.astype(np.int64) - n0)[:, None] + (taps + half)
        # np.take keeps each row's taps contiguous, so each row sums as it would alone
        return (np.take(self.g_m, at, axis=1) * kern).sum(axis=-1)


class DirichletSum:
    """F(t_j) = sum_k c_k exp(-i t_j x_k) for real nodes x, read at real targets t.

    The one way into the kernel.  c is one row of coefficients, shape (K,),
    or a stack of R rows, shape (R, K), that share x; calling the object
    with the targets t, shape (M,), gives shape (M,) for one row and
    (R, M) for a stack, whose rows share the grid positions, the Gaussian
    weights and the interpolation taps.

    A type-3 nonuniform FFT (Odlyzko and Schoenhage, Trans. AMS 309, 1988),
    split into a plan and a read.  F is band-limited to max|x|; it is
    sampled on a t-grid of spacing dt = pi / (4 max|x|), rounded down to
    four significant bits (oversampling sigma of 4 to 4.5), over the
    canonical tile of the targets (``_canonical_tile``): a power-of-two
    span of grid steps, centred on a multiple of half that span, so the
    modes a target reads depend on (c, x, t) and on nothing that ran
    before.  The centre t0 = n0 dt is a whole number of steps, so t0 has
    few significant bits and t_j - t0 is exact in grid units;
    exp(-i t0 x_k) is folded into c_k, with the phase t0 x_k carried in
    double-double and reduced mod 2 pi.  The plan (``_Plan``) gets the grid
    values from Gaussian gridding of the terms onto a periodic grid three
    times as long, 32 points per term in one sparse matrix product, and
    one ``numpy.fft`` transform per row (Greengard and Lee, SIAM Review 46,
    2004).  The read is a 60-tap Gaussian-regularized sinc of variance
    W / (pi (1 - 1/sigma)) grid steps, W = 30 and sigma = 4, at the
    targets.  t_j / dt and each term's grid position are carried in
    double-double too, so no phase is rounded on the way.

    The object keeps the plan of the last tile it read: a call whose
    targets land in that tile reads it without gridding the terms again,
    with the bits a fresh plan gives.  A call reads ``plan`` once, so
    threads that share the object at worst replace each other's plan.

    Measured against sums with exactly rounded phases: at most 1.4e-16
    sum|c_k| over random sums (K, M < 1500, |x|, |t| < 1e3), 4e-17 sum|c_k|
    on bands up to 300 wide at |t| up to 1e4 (against 30-digit sums), and
    6.4e-15 for sum n^(-1-it) over n <= 4100 at 4000 points of
    t in [6000, 6600], where the direct sum, which rounds every t_j x_k, is
    off by 1.4e-12.

    Small sums (K M below twice the transform's work, grid + 8 K + 60 M)
    and sums whose grid would pass 2^21 points take the direct sum over
    the columns where any row is nonzero, chunked and added up per target,
    the phases of a chunk formed once for all the rows (``_direct_sum``).
    There F(-t) = conj F(t) holds exactly for real c, and a single row
    sums its nonzero terms alone; a row of a stack that is nonzero wherever
    another row is gives the bits it gives alone, and one that is zero
    where another row has a term can differ from them in the last bits.
    On the transform branch a row of a stack gives the bits of that row
    alone.  All-zero coefficients read 0 and run neither branch.
    """

    def __init__(self, c, x):
        self.c = np.asarray(c, dtype=np.complex128)
        self.x = np.asarray(x, dtype=np.float64)
        self.plan: _Plan | None = None

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if not self.c.any():
            out = np.zeros((len(np.atleast_2d(self.c)), t.size), dtype=np.complex128)
        else:
            tile = _canonical_tile(self.x, t)
            if tile is None:
                return _direct_sum(self.c, self.x, t)
            plan = self.plan
            if plan is None or plan.tile != tile:
                plan = self.plan = _Plan(self.c, self.x, tile)
            out = plan.read(t)
        return out[0] if self.c.ndim == 1 else out


def _zeta_em_block(s: np.ndarray, n_cut: int, n_rows: int = 1) -> np.ndarray:
    """Euler-Maclaurin zeta for an array of s sharing Re s and one truncation point.

    The direct sum takes the rows n^-sigma (-ln n)^j, j < n_rows, as one
    stack, and the tail is N^-s h(s),

        h(s) = N/(s - 1) - 1/2 + sum_k B_2k/(2k)! (s)_(2k-1) N^(1-2k),

    summed by one recurrence over k <= ``_EM_ORDER``.  n_rows is 1 or 3.  With 1 the result
    is zeta, shape (M,), and the recurrence carries h alone.  With 3 it
    stacks zeta, zeta' and zeta'' (d/ds), shape (3, M): the recurrence
    carries h, h' and h'' too, with the Pochhammer products built by the
    product rule.  Row 0 is the plain evaluation, with the same bits.
    """
    s = np.asarray(s, dtype=np.complex128)
    ln_n = np.log(np.arange(1, n_cut + 1, dtype=np.float64))
    # n^-sigma by the complex exp, so each direct-sum term keeps the bits of exp(-s ln n)
    coef = np.exp(ln_n * -s.real[0] + 0j).real
    out = DirichletSum(coef * (-ln_n) ** np.arange(n_rows)[:, None], ln_n)(s.imag)
    # h and its derivatives term by term; (s)_(2k+1) = (s)_(2k-1) q with
    # q = (s + 2k - 1)(s + 2k), and p_j the j-th derivative of (s)_(2k-1)
    inv = 1.0 / (s - 1.0)
    h0, p0 = n_cut * inv - 0.5, s.copy()
    if n_rows == 3:
        h1, h2 = -n_cut * inv * inv, 2.0 * n_cut * inv**3
        p1, p2 = np.ones_like(s), np.zeros_like(s)
    scale = 1.0 / n_cut
    inv_n2 = 1.0 / (n_cut * n_cut)
    for k in range(1, _EM_ORDER + 1):
        b = (_B2K[k - 1] / _FACT2K[k - 1]) * scale
        h0 = h0 + b * p0
        q0 = (s + (2 * k - 1)) * (s + 2 * k)
        if n_rows == 3:
            h1, h2 = h1 + b * p1, h2 + b * p2
            q1 = 2.0 * s + (4 * k - 1)
            p1, p2 = p1 * q0 + p0 * q1, p2 * q0 + 2.0 * p1 * q1 + 2.0 * p0
        p0 = p0 * q0
        scale *= inv_n2
    ln_big = math.log(n_cut)
    pow_ns = np.exp(-s * ln_big)  # N^-s
    out[0] += pow_ns * h0
    if n_rows == 1:
        return out[0]
    # d/ds N^-s = -ln N N^-s
    out[1] += pow_ns * (h1 - ln_big * h0)
    out[2] += pow_ns * (h2 - 2.0 * ln_big * h1 + ln_big**2 * h0)
    return out


def _zeta_em_rows(arr: np.ndarray, cfg: ZetaEvaluator, n_rows: int) -> np.ndarray:
    """``_zeta_em_block`` on the points of each Re s in arr, shape (n_rows,) + arr.shape."""
    cuts = cfg.truncation_point(arr)
    out = np.empty((n_rows,) + arr.shape, dtype=np.complex128)
    for sigma in np.unique(arr.real):
        m = arr.real == sigma
        out[:, m] = _zeta_em_block(arr[m], int(cuts[m].max()), n_rows)
    return out


def zeta_em(s):
    """zeta(s) by Euler-Maclaurin, vectorized.

    The points sharing one Re s share one truncation point, the largest
    that ``truncation_point`` asks of them (the remainder bound only falls
    as N grows), and their direct sums are one ``DirichletSum`` call.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    out = _zeta_em_rows(arr, ZetaEvaluator(), 1)[0]
    return complex(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


def _guard(w: np.ndarray):
    if np.any(np.abs(w) < EPS_MIN):
        raise PoleProximityError(
            f"|eps| < {EPS_MIN:g} is inside the pole guard at s = 1"
        )


def zeta_one_line(eps):
    """zeta(1 + i eps); rejects the pole neighbourhood |eps| < EPS_MIN.

    The points of a call share the largest Euler-Maclaurin truncation any
    of them needs (``zeta_em``).  Up to |eps| of about 100 every point needs
    only the floor N = 64, so there a value depends on eps alone: 60
    seeded eps in (0.1, 3) read the same bits in one call, one per call
    and in two halves.  Past it a value can move with the rest of the
    call: on (0.1, 3000) the three ways agree to 3.1e-14 relative to
    max(|zeta|, 1).
    """
    w = np.asarray(eps, dtype=np.float64)
    _guard(np.atleast_1d(w))
    return zeta_em(1.0 + 1j * w)


def zeta_and_log_dd(cfg: ZetaEvaluator, eps):
    """(zeta(1 + i eps), d^2/dw^2 ln zeta(1 + iw) at w = eps) from one evaluation.

    One Euler-Maclaurin evaluation gives zeta, zeta' and zeta'' at
    s = 1 + i eps (``_zeta_em_block``), and with ds/dw = i the second
    log-derivative has the exact form

        d^2/dw^2 ln zeta(1 + iw) = -[zeta''/zeta - (zeta'/zeta)^2]:

    no difference quotient, so no step to choose and no pole to dodge near
    w = 0, where it follows the 1/w^2 of the pole.  Measured against
    mpmath's zeta(s, derivative=1|2) at 40 digits: at most 1.1e-13
    relative for eps in [0.01, 3], 3.9e-13 up to eps = 150, 7.6e-13 at 700
    and 3.5e-12 (5.8e-12 absolute) at 2500, where the double phase t ln n
    limits it.  The zeta is ``zeta_one_line(eps)`` bit for bit: row 0 of
    the stack is nonzero at every n.  Scalars in give complex scalars out.
    """
    w = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    _guard(w)
    z, d1, d2 = _zeta_em_rows(1.0 + 1j * w, cfg, 3)
    ratio = d1 / z
    dd = ratio * ratio - d2 / z
    if np.isscalar(eps) or np.asarray(eps).ndim == 0:
        return complex(z[0]), complex(dd[0])
    return z, dd


# -- sine integral ---------------------------------------------------------

def sine_integral(x):
    """Si(x) = integral of sin t / t from 0 to x; odd, |error| <= 1e-15.

    Delegates to ``scipy.special.sici``; scalars in give floats out.
    """
    from scipy.special import sici

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


def triangle_ft(k):
    """Fourier transform of the unit triangle: sinc(k/2)^2."""
    arr = np.asarray(k, dtype=np.float64)
    out = np.sinc(arr / (2.0 * np.pi)) ** 2
    return float(out) if np.isscalar(k) or arr.ndim == 0 else out
