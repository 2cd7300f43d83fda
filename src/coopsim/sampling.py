"""Seeded samplers for non-negative quantities (compute times, losses).

All stochastic quantities in the simulator are drawn from normal
distributions truncated at zero.  Plain truncation shifts the mean upward,
which would make calibrated tables (for example per-RF loss means) drift away
from their stated values, so the parent location is solved such that the
post-truncation mean equals the requested one.  The parent scale is kept at
the requested sd; the realized sd is therefore slightly smaller whenever the
bound is active.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from .errors import CalibrationError

__all__ = ["TruncatedNormal"]


def _truncated_mean(loc: float, scale: float) -> float:
    a = -loc / scale
    if a > 20.0:
        # asymptotic inverse Mills ratio; the direct form underflows to 0/0
        return scale / a
    # lambda(a) = phi(a) / (1 - Phi(a)), the inverse Mills ratio
    lam = norm.pdf(a) / norm.sf(a)
    return loc + scale * lam


class TruncatedNormal:
    """Normal truncated at zero whose realized mean equals ``mean``."""

    _cache: dict = {}

    @classmethod
    def cached(cls, mean: float, sd: float) -> "TruncatedNormal":
        """Memoized constructor; solving for the parent location costs a root find."""
        key = (float(mean), float(sd))
        if key not in cls._cache:
            cls._cache[key] = cls(mean, sd)
        return cls._cache[key]

    def __init__(self, mean: float, sd: float):
        if sd <= 0:
            raise CalibrationError(f"sd {sd} not above zero")
        self.mean = float(mean)
        self.sd = float(sd)
        if mean <= 0:
            raise CalibrationError(f"target mean {mean} not above zero")
        hi = float(mean)
        if _truncated_mean(hi, sd) <= mean:
            self._loc = hi  # bound inactive to machine precision
        else:
            lo = mean - 2.0 * sd
            while _truncated_mean(lo, sd) > mean:
                lo -= 2.0 * sd
            self._loc = brentq(lambda m: _truncated_mean(m, sd) - mean, lo, hi)
        # CDF mass below zero, for inverse-CDF sampling
        self._tail0 = float(ndtr(-self._loc / sd))

    def ppf(self, u):
        """Inverse CDF, the only way to draw: pass uniforms in [0, 1)."""
        q = self._tail0 + np.asarray(u, dtype=float) * (1.0 - self._tail0)
        out = self._loc + self.sd * ndtri(q)
        return out if out.shape else float(out)
