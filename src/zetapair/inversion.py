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
pure quadrature noise.  The tapers are therefore derived, not chosen: the
epsilon taper is a smooth plateau over the resonance band
[h E_lo, h E_hi], rolling off over 5% of the band's width on each side,
and the E taper rolls off over 12% of the window's width; ``eps_cutoff``
is the excision radius around the 1-line pole (the curve's 1/eps^2 mass),
kept well below the band.

The estimate is normalized by 2 pi / integral(w_E), and so normalized it
is alpha(h) itself: the singular series of the primes up to ``p_cut``,
over which the Euler product runs.  With p_cut = 4000 on E in
(1000, 1500), against ``singular.alpha_product`` with C2 cut at 4000,
est/alpha - 1 reads -2.9e-4, -2.2e-4 and -6.2e-6 at h = 2, 4 and 6, and
the odd shifts read -1.7e-5 (h = 1) and 2.6e-7 (h = 3).  A window holds
finitely many Fourier atoms, and the error follows its width and height
together, with no simple law.  On windows (E, E + width), the same
cutoff gives est/alpha - 1 at h = 2:

    width   E = 1000   E = 2000   E = 4000   E = 8000
    100     -1.1e-2    -5.4e-2    -1.6e-1    -4.1e-1
    300     +1.5e-2    +2.2e-2    +1.5e-2    -8.7e-3
    500     -2.9e-4    +7.3e-3    +2.0e-2    +2.0e-2
    900     -6.0e-5    -4.3e-4    -2.1e-4    +1.1e-2

The largest |est| at h = 1 and 3 falls with width at every height
measured: 1.2e-2 at width 100, 1.6e-4 at 300, 3.3e-5 at 500 and 1.1e-6
at 900.  On (1000, 1100), h = 6 is off by +2.0%.

The double integral uses one nested panel rule in both directions,
Gauss-Kronrod G10/K21: the estimate is the K21 value, and the embedded
10-point Gauss rule on a subset of the same nodes gives the coarse value,
so zeta (``special.zeta_one_line``, with its one Euler-Maclaurin
configuration) and the Euler product are evaluated once.  The inner sums
over eps, sum_eps coef(eps) exp(-i eps ln(E/2pi)) at every E node, are
Dirichlet polynomials in ln(E/2pi); both rules' rows are one stacked
``special.DirichletSum``, the nonuniform-FFT kernel that also sums zeta's
n^-s and the Euler product, read in O((eps nodes + E nodes) log) work
instead of a full phase matrix, on the canonical tile of the band of
ln(E/2pi).
``quad_error_est`` is |K21 - G10| times the normalization, about 1e-5 on
the documented windows: it tracks the coarse rule's error, which makes
it a conservative figure for the K21 estimate.  ``ok`` is False when it
exceeds 5% of max(|estimate|, 0.3), that is when the quadrature did not
stabilize.  A window narrower than 8 x 2pi raises ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .paircorr import off_diagonal_product
from .sieve import SieveTables
from .special import TWO_PI, DirichletSum, zeta_one_line

__all__ = ["InversionResult", "windowed_inversion"]

DEFAULT_EPS_CUTOFF = 25.0
DEFAULT_PRIME_CUTOFF = 4000


@dataclass(frozen=True)
class InversionResult:
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
#: most quadrature nodes on either axis, checked before anything is allocated
_MAX_NODES = 1 << 20


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


def _panel_counts(h: int, e_lo: float, e_hi: float, s_lo: float, s_hi: float):
    """The numbers of G10/K21 panels on the eps support and on the E window.

    A panel spans at most 0.7 x 21 radians of the integrand's phase, which
    turns ln(E_hi/2pi) + 4 radians per unit of eps and |h| + s_hi/E_lo per
    unit of E.
    """
    eps_panel = 0.7 * _GK_ORDER / (math.log(e_hi / TWO_PI) + 4.0)
    e_panel = 0.7 * _GK_ORDER / (abs(h) + s_hi / e_lo)
    return (max(1, math.ceil((s_hi - s_lo) / eps_panel)),
            max(1, math.ceil((e_hi - e_lo) / e_panel)))


def _gk_panels(lo: float, hi: float, n_panels: int):
    """Composite G10/K21 on [lo, hi] in n_panels equal panels.

    Returns the nodes, the K21 weights and the G10 weights (zero on the
    Kronrod-only nodes), so one set of function values gives both rules.
    """
    nodes, w_fine, w_coarse = _gk_rule()
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)[:, None]
    x = (mid[:, None] + half * nodes).ravel()
    return x, (half * w_fine).ravel(), (half * w_coarse).ravel()


def _raw_integral(h, e_lo, e_hi, s_lo, s_hi, eps_roll, e_roll, panels, tables, p_cut):
    """The tapered double integral by the fine (K21) and embedded (G10) rules.

    zeta and the Euler product are evaluated once, on the K21 nodes, and
    the G10 estimate reads the subset; the E-side sums
    sum_eps coef(eps) exp(-i eps ln(E/2pi)) of both rules are one
    ``DirichletSum`` with two rows.
    """
    eps_x, eps_fine, eps_coarse = _gk_panels(s_lo, s_hi, panels[0])
    w_eps = _bump(eps_x, s_lo, s_hi, eps_roll)

    zeta = zeta_one_line(eps_x)
    x_val = (
        np.real(zeta * np.conj(zeta))
        * off_diagonal_product(tables, p_cut, eps_x)
        / (4.0 * np.pi**2)
    )
    coef = np.stack([eps_fine, eps_coarse]) * (w_eps * x_val)

    e_x, e_fine, e_coarse = _gk_panels(e_lo, e_hi, panels[1])
    w_e = _bump(e_x, e_lo, e_hi, e_roll)
    log_e = np.log(e_x / TWO_PI)
    f_of_e = DirichletSum(coef, eps_x)(log_e)
    kernel = w_e * np.exp(1j * h * e_x) * 2.0 * np.real(f_of_e)
    fine = np.sum(e_fine * kernel[0])
    coarse = np.sum(e_coarse * kernel[1])
    return complex(fine), complex(coarse), float(np.sum(e_fine * w_e))


def windowed_inversion(
    h: int,
    e_range: tuple[float, float],
    eps_cutoff: float = DEFAULT_EPS_CUTOFF,
    *,
    tables: SieveTables,
    p_cut: int = DEFAULT_PRIME_CUTOFF,
) -> InversionResult:
    """Estimate the h-Fourier content of the tapered off-diagonal curve.

    The tapers come from (h, E range): the eps plateau covers the
    resonance band [|h| E_lo, |h| E_hi] and rolls off over 5% of its width
    on each side (no lower than ``eps_cutoff``), the E plateau rolls off
    over 12% of the window's width.  Returns the estimate of alpha(h), cut
    at ``p_cut``, plus resolution diagnostics.  ``ok`` is False when the
    quadrature did not stabilize: the K21 and G10 estimates differ by more
    than 5% of max(|estimate|, 0.3).  ``tables`` is a required keyword: the
    sieve whose primes up to ``p_cut`` give the Euler product.

    A window narrower than 8 x 2pi (reversed and empty ones included) holds
    too few oscillation periods and raises ``ValueError``.  So does a call
    needing more than 2^20 quadrature nodes on either axis, before anything
    is evaluated (h = 2 on (1000, 1e7) would need 5.7e8 eps and 3.1e11 E
    nodes).  This bounds memory, not time: past |h| (E_hi - E_lo) of about
    3800 the prime sums take the direct sum.
    """
    h = operator.index(h)
    if h == 0:
        raise ValueError("h = 0 is excluded")
    if not 0.0 < eps_cutoff <= 50.0:
        raise ValueError("eps_cutoff must lie in (0, 50]")
    e_lo, e_hi = float(e_range[0]), float(e_range[1])
    if not (1e3 <= e_lo <= 1e7 and e_hi <= 1e7):
        raise ValueError("E range must lie within [1e3, 1e7]")
    width = e_hi - e_lo
    if width < 8.0 * TWO_PI:
        raise ValueError(f"E window ({e_lo:g}, {e_hi:g}) of width {width:.3g} holds too few "
                         f"oscillation periods; it must be at least 8 x 2pi = {8.0 * TWO_PI:.3g}")

    ah = abs(h)
    band = (ah * e_lo, ah * e_hi)
    eps_roll = 0.05 * (band[1] - band[0])
    e_roll = 0.12 * width
    # the plateau's top, s_hi - eps_roll, lies past |h| E_hi, above eps_cutoff and
    # |h| E_lo, so the support never empties
    s_hi = band[1] + 2.0 * eps_roll
    s_lo = max(eps_cutoff, band[0] - 2.0 * eps_roll)
    panels = _panel_counts(h, e_lo, e_hi, s_lo, s_hi)
    n_eps, n_e = (_GK_ORDER * n for n in panels)
    if max(n_eps, n_e) > _MAX_NODES:
        raise ValueError(f"h = {h} on E in ({e_lo:g}, {e_hi:g}) needs {n_eps} eps and {n_e} "
                         f"E nodes; the quadrature takes at most {_MAX_NODES} per axis")

    raw, coarse, w_e_mass = _raw_integral(
        h, e_lo, e_hi, s_lo, s_hi, eps_roll, e_roll, panels, tables, p_cut
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
        "band_leakage": leakage,
        "eps_nodes": n_eps,
        "e_nodes": n_e,
        "quad_error_est": quad_err,
        "imag_fraction": imag_frac,
    }
    return InversionResult(estimate, ok, diag)
