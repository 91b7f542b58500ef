"""Power-kernel helpers for fractional-derivative weights.

The weakly singular kernel of the Caputo derivative is built from the
power family omega_beta(t) = t^(beta-1) / Gamma(beta).  Everything here
is vectorised over t and safe for the negative beta values that show up
in higher derivatives of the kernel.
"""

from __future__ import annotations

import math

import numpy as np


def _rgamma(beta: float) -> float:
    """1/Gamma(beta) for any real beta, 0 at the poles 0, -1, -2, ..."""
    if beta <= 0.0 and beta == math.floor(beta):
        return 0.0
    try:
        return 1.0 / math.gamma(beta)
    except OverflowError:      # as scipy.special.rgamma: 0 for beta > 171.6, beta for |beta| < 6e-309
        return 0.0 if beta > 1.0 else beta


def omega(beta: float, t):
    """Evaluate t^(beta-1) / Gamma(beta) for t > 0 (any real beta)."""
    t = np.asarray(t, dtype=float)
    return t ** (beta - 1.0) * _rgamma(beta)


def saturating_power(base: float, exponent: float) -> float:
    """The float base**exponent, saturated to inf where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def omega_diff(beta: float, lo, gap):
    """Stable omega_beta(lo + gap) - omega_beta(lo) for lo > 0, gap > 0, beta > 0.

    The naive difference cancels catastrophically when gap << lo; expm1/log1p
    keeps full relative accuracy for every gap size.
    """
    lo = np.asarray(lo, dtype=float)
    gap = np.asarray(gap, dtype=float)
    return lo ** (beta - 1.0) * np.expm1((beta - 1.0) * np.log1p(gap / lo)) * _rgamma(beta)
