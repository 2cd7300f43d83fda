"""Seeded samplers: keyed uniforms, and non-negative quantities (compute
times, losses).

``keyed_uniforms`` draws uniforms as a pure function of integer keys and a
counter, so a whole table of (vehicle, object) pairs draws in one array
expression, and each pair's draws do not depend on which other pairs share
the call or in what order.  It is a counter-based generator (Salmon et al.
2011, "Parallel random numbers: as easy as 1, 2, 3") built on the SplitMix64
finalizer (Steele, Lea & Flood 2014): the keys fold into one 64-bit state,
and counter i gives the finalized state + (i + 1) * golden gamma, as
SplitMix64 seeded by that state would.

Non-negative stochastic quantities are drawn from normal
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

__all__ = ["TruncatedNormal", "keyed_uniforms"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's golden-ratio increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def keyed_uniforms(*keys, n: int) -> np.ndarray:
    """``n`` uniforms in the open interval (0, 1) per element of the
    broadcast keys, shape (*broadcast shape, n).

    Keys are non-negative integers or integer arrays, folded in the order
    given.  The top 52 bits of each 64-bit output map to (k + 0.5) / 2**52,
    which float64 holds exactly, so no draw is 0 or 1 and ``ndtri`` of any
    draw is finite.
    """
    with np.errstate(over="ignore"):  # uint64 products wrap by design
        state = np.uint64(0)
        for key in keys:
            state = _finalize((state ^ np.asarray(key).astype(np.uint64)) + _GAMMA)
        steps = _GAMMA * np.arange(1, n + 1, dtype=np.uint64)
        z = _finalize(state[..., None] + steps)
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


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
