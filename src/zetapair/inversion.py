"""Windowed Fourier inversion of the off-diagonal correlation curve.

EXPERIMENTAL.  The exact inversion that recovers the singular series
alpha(h) pairs e^{ihE} against the off-diagonal curve over unbounded
epsilon and E.  A finite realization has to choose tapers, and the choice
is forced by where the signal lives: writing the curve's oscillation as
exp(-i eps ln(E/2pi)), the phase h E - eps ln(E/2pi) is stationary in
(eps, E) only along eps = h E.  Every Fourier atom of the curve (they sit
at heights E = 2 pi l/n, l coprime to n, carrying the Ramanujan phases
e^{2 pi i h l / n}) therefore contributes to the h-coefficient exactly
with weight w_eps(h E); an epsilon window that stops below h*E_lo returns
pure quadrature noise.  The epsilon taper here is a smooth plateau over
the resonance band [h E_lo, h E_hi]; ``eps_cutoff`` is the excision
radius around the 1-line pole (the curve's 1/eps^2 mass), kept well below
the band.

The absolute constant in front of the recovered series is taper
convention (the half-mass delta bookkeeping of the exact derivation is
absorbed here); only ratios across h are meaningful.  The estimate is
normalized by 2 pi / integral(w_E), which happens to land near the
singular-series scale itself.

The double integral uses one nested panel rule in both directions,
Gauss-Kronrod G10/K21: the estimate is the K21 value, and the embedded
10-point Gauss rule on a subset of the same nodes gives the coarse value,
so zeta and the Euler product are evaluated once.  The inner sums over
eps, sum_eps coef(eps) exp(-i eps ln(E/2pi)) at every E node, are
Dirichlet polynomials in ln(E/2pi); both rules' rows go through one call
of the nonuniform-FFT kernel of ``special`` that also sums zeta's n^-s
and the Euler product, in O((eps nodes + E nodes) log) work instead of a
full phase matrix, on the canonical tile of the band of ln(E/2pi).
``quad_error_est`` is |K21 - G10| times the normalization, about 1e-5 on
the documented windows: it tracks the coarse rule's error, which makes
it a conservative figure for the K21 estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .paircorr import off_diagonal_product
from .sieve import SieveTables
from .special import TWO_PI, ZetaEvaluator, _dirichlet_sum, zeta_one_line

__all__ = ["TaperSpec", "InversionResult", "windowed_inversion"]


@dataclass(frozen=True)
class TaperSpec:
    """Smooth-bump parameters; None fields are derived from (h, E range)."""

    eps_outer: float | None = None  # outer support edge of the eps taper
    eps_roll: float | None = None   # eps roll-off width (both edges)
    e_roll: float | None = None     # E roll-off width (both edges)

    def __post_init__(self):
        for name in ("eps_roll", "e_roll"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.eps_outer is not None and not math.isfinite(self.eps_outer):
            raise ValueError(f"eps_outer must be finite, got {self.eps_outer}")


@dataclass(frozen=True)
class InversionResult:
    h: int
    estimate: float
    ok: bool
    diagnostics: dict = field(repr=False)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _bump(x: np.ndarray, lo: float, hi: float, roll: float) -> np.ndarray:
    up = _smoothstep((x - lo) / roll)
    down = _smoothstep((hi - x) / roll)
    return up * down


# Gauss-Kronrod G10/K21 (QUADPACK qk21): the nonnegative Kronrod abscissae,
# largest first, and their weights; the odd positions hold the 10-point
# Gauss abscissae, whose weights are _G10_W.
_K21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_K21_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G10_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
#: nodes per panel of the nested rule
_GK_ORDER = 21


def _gk_rule():
    """The 21 K21 nodes on [-1, 1] with Kronrod weights and embedded G10 weights."""
    gauss = np.zeros(11)
    gauss[1::2] = _G10_W
    mirror = slice(-2, None, -1)
    return (
        np.concatenate([-_K21_X, _K21_X[mirror]]),
        np.concatenate([_K21_W, _K21_W[mirror]]),
        np.concatenate([gauss, gauss[mirror]]),
    )


def _gk_panels(lo: float, hi: float, panel: float):
    """Composite G10/K21 on [lo, hi] in panels of width <= panel.

    Returns the nodes, the K21 weights and the G10 weights (zero on the
    Kronrod-only nodes), so one set of function values gives both rules.
    """
    nodes, w_fine, w_coarse = _gk_rule()
    n_panels = max(1, int(math.ceil((hi - lo) / panel)))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)[:, None]
    x = (mid[:, None] + half * nodes).ravel()
    return x, (half * w_fine).ravel(), (half * w_coarse).ravel()


def _raw_integral(h, e_lo, e_hi, s_lo, s_hi, eps_roll, e_roll, cfg, tables, p_cut):
    """The tapered double integral by the fine (K21) and embedded (G10) rules.

    zeta and the Euler product are evaluated once, on the K21 nodes, and
    the G10 estimate reads the subset; the E-side sums
    sum_eps coef(eps) exp(-i eps ln(E/2pi)) of both rules are one
    Dirichlet-polynomial kernel call with two rows.
    """
    l_hi = math.log(e_hi / TWO_PI)
    eps_x, eps_fine, eps_coarse = _gk_panels(s_lo, s_hi, 0.7 * _GK_ORDER / (l_hi + 4.0))
    w_eps = _bump(eps_x, s_lo, s_hi, eps_roll)

    zeta = zeta_one_line(cfg, eps_x)
    x_val = (
        np.real(zeta * np.conj(zeta))
        * off_diagonal_product(tables, p_cut, eps_x)
        / (4.0 * np.pi**2)
    )
    coef = np.stack([eps_fine, eps_coarse]) * (w_eps * x_val)

    e_panel = 0.7 * _GK_ORDER / (abs(h) + s_hi / e_lo)
    e_x, e_fine, e_coarse = _gk_panels(e_lo, e_hi, e_panel)
    w_e = _bump(e_x, e_lo, e_hi, e_roll)
    log_e = np.log(e_x / TWO_PI)
    f_of_e = _dirichlet_sum(coef, eps_x, log_e)
    kernel = w_e * np.exp(1j * h * e_x) * 2.0 * np.real(f_of_e)
    fine = np.sum(e_fine * kernel[0])
    coarse = np.sum(e_coarse * kernel[1])
    return complex(fine), complex(coarse), float(np.sum(e_fine * w_e)), len(eps_x), len(e_x)


def windowed_inversion(
    h: int,
    e_range: tuple[float, float],
    eps_cutoff: float = 25.0,
    taper: TaperSpec = TaperSpec(),
    cfg: ZetaEvaluator = ZetaEvaluator(),
    tables: SieveTables | None = None,
    p_cut: int = 4000,
) -> InversionResult:
    """Estimate the h-Fourier content of the tapered off-diagonal curve.

    Returns a normalized estimate plus resolution diagnostics; a window
    too narrow to hold the oscillation (or otherwise degenerate) reports
    a diagnostic failure instead of raising.
    """
    h = int(h)
    if h == 0:
        raise ValueError("h = 0 is excluded")
    if tables is None:
        raise ValueError("a SieveTables instance is required")
    if not 0.0 < eps_cutoff <= 50.0:
        raise ValueError("eps_cutoff must lie in (0, 50]")
    e_lo, e_hi = float(e_range[0]), float(e_range[1])
    if not (1e3 <= e_lo <= 1e7 and e_hi <= 1e7):
        raise ValueError("E range must lie within [1e3, 1e7]")

    def failure(msg: str) -> InversionResult:
        return InversionResult(h, math.nan, False, {"error": msg, "e_range": (e_lo, e_hi)})

    if not e_lo < e_hi:
        return failure("degenerate E window")
    width = e_hi - e_lo
    if width < 8.0 * TWO_PI:
        return failure(
            f"E window of width {width:.3g} holds too few oscillation periods"
        )

    ah = abs(h)
    band = (ah * e_lo, ah * e_hi)
    eps_roll = taper.eps_roll if taper.eps_roll is not None else 0.05 * (band[1] - band[0])
    e_roll = taper.e_roll if taper.e_roll is not None else 0.12 * width
    s_hi = taper.eps_outer if taper.eps_outer is not None else band[1] + 2.0 * eps_roll
    s_lo = max(eps_cutoff, band[0] - 2.0 * eps_roll)
    if s_hi <= s_lo + 2.0 * eps_roll:
        return failure("eps taper support is empty")

    raw, coarse, w_e_mass, n_eps, n_e = _raw_integral(
        h, e_lo, e_hi, s_lo, s_hi, eps_roll, e_roll, cfg, tables, p_cut
    )
    norm = TWO_PI / w_e_mass
    estimate = raw.real * norm
    quad_err = abs(raw - coarse) * norm
    imag_frac = abs(raw.imag) * norm
    # plateau coverage of the resonance band (1 at the plateau, <1 on rolls)
    cov_lo = max(band[0], s_lo + eps_roll)
    cov_hi = min(band[1], s_hi - eps_roll)
    leakage = 1.0 - max(0.0, cov_hi - cov_lo) / (band[1] - band[0])
    ok = quad_err <= 0.05 * max(abs(estimate), 0.3)
    diag = {
        "e_range": (e_lo, e_hi),
        "eps_cutoff": eps_cutoff,
        "eps_support": (s_lo, s_hi),
        "eps_roll": eps_roll,
        "e_roll": e_roll,
        "resonance_band": band,
        "band_leakage": leakage,
        "eps_nodes": n_eps,
        "e_nodes": n_e,
        "prime_cutoff": p_cut,
        "quad_error_est": quad_err,
        "imag_fraction": imag_frac,
        "normalization": "2 pi / integral(w_E)",
    }
    if not ok:
        diag["error"] = "quadrature estimate did not stabilize"
    return InversionResult(h, estimate, ok, diag)
