"""Both sides of the prime-pair / zero-correlation equivalence, at desk scale.

Modules by role: ``sieve`` (multiplicative arithmetic), ``special``
(zeta on the 1-line and the critical line, the ``DirichletSum`` kernel,
Si, window functions), ``singular`` (the prime-pair singular series in
three forms), ``zeros`` (Gram-block enumeration, with Z by
Euler-Maclaurin below t = 1000 and by Riemann-Siegel above, and table
ingestion), ``paircorr`` (empirical and theoretical two-point
statistics), ``identities`` (stepwise checks of the derivation chain),
``inversion`` (the experimental windowed Fourier inversion), ``cli``.
Each scipy submodule is imported by the function that calls it, so
importing the package loads numpy alone.
"""

from .identities import (
    IdentityReport,
    averaged_alpha_recovery,
    ft_one_over_xsq_check,
    identity_suite,
    local_factor_chain_check,
    local_factor_chain_sample,
    mobius_indicator_check,
    ramanujan_closure_check,
    triangle_relation_check,
)
from .inversion import InversionResult, windowed_inversion
from .paircorr import (
    CorrelationEstimate,
    TheoryCurve,
    aggregate,
    compare,
    empirical_r2,
    gue_r2,
    r2_diag_limit,
    r2_off_limit,
    theory_curve,
)
from .sieve import SieveTables, build_sieve
from .singular import (
    AlphaResult,
    TwinPrimeConstant,
    alpha_empirical,
    alpha_product,
    alpha_ramanujan,
    smoothed_average,
    twin_prime_constant,
)
from .special import (
    ZetaEvaluator,
    mean_density,
    sine_integral,
    triangle,
    triangle_ft,
    sgn,
    zeta_and_log_dd,
    zeta_one_line,
)
from .zeros import (
    ZeroList,
    compute_zeros,
    counting_check,
    load_zeros,
    save_zeros,
    unfold,
)

__version__ = "0.1.0"
