"""Both sides of the prime-pair / zero-correlation equivalence, at desk scale.

Modules by role: ``sieve`` (multiplicative arithmetic), ``special``
(zeta on the 1-line and the critical line, the ``DirichletSum`` kernel,
Si, window functions), ``singular`` (the prime-pair singular series in
three forms), ``zeros`` (Gram-block enumeration, with Z by
Euler-Maclaurin below t = 1000 and by Riemann-Siegel above, and table
ingestion), ``paircorr`` (empirical and theoretical two-point
statistics), ``identities`` (stepwise checks of the derivation chain),
``inversion`` (the experimental windowed Fourier inversion), ``cli``.
Each public name is reached through its module's ``__all__``; the package
imports none of them, so a module loads numpy and the package modules it
imports, and scipy submodules load in the functions that call them.
"""

__version__ = "0.1.0"
