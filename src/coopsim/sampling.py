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

import contextlib
import math

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import CalibrationError

__all__ = ["TruncatedNormal", "keyed_uniforms"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's golden-ratio increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SQRT_2PI = np.sqrt(2 * np.pi)
# scipy.optimize.brentq's default tolerances and iteration cap
_XTOL, _RTOL, _MAXITER = 2e-12, 4 * np.finfo(float).eps, 100


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
    # lambda(a) = phi(a) / (1 - Phi(a)), the inverse Mills ratio, on a
    # one-element array as scipy.stats.norm's pdf and sf evaluate it, bit for bit
    x = np.array([a])
    lam = np.exp(-x**2 / 2.0) / _SQRT_2PI / ndtr(-x)
    return loc + scale * float(lam[0])


def _brentq(f, xpre: float, xcur: float) -> float:
    """Root of ``f`` between ``xpre`` (f <= 0) and ``xcur`` (f > 0): SciPy's
    Brent solver (scipy/optimize/Zeros/brentq.c) step for step, so that it
    returns the float ``scipy.optimize.brentq`` returns."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the short-step test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # a zero divisor keeps the inf, as C's inf or NaN bisects there
            with contextlib.suppress(ZeroDivisionError):
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise CalibrationError(f"no root found in {_MAXITER} iterations, last {xcur}")


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
        # Python floats: a zero divisor in the root find raises, not warns
        mean, sd = float(mean), float(sd)
        if sd <= 0:
            raise CalibrationError(f"sd {sd} not above zero")
        self.sd = sd
        if mean <= 0:
            raise CalibrationError(f"target mean {mean} not above zero")
        if _truncated_mean(mean, sd) <= mean:
            self._loc = mean  # bound inactive to machine precision
        else:
            lo = mean - 2.0 * sd
            while _truncated_mean(lo, sd) > mean:
                lo -= 2.0 * sd
            self._loc = _brentq(lambda m: _truncated_mean(m, sd) - mean, lo, mean)
        # CDF mass below zero, for inverse-CDF sampling
        self._tail0 = float(ndtr(-self._loc / sd))

    def ppf(self, u):
        """Inverse CDF, the only way to draw: pass uniforms in [0, 1)."""
        q = self._tail0 + np.asarray(u, dtype=float) * (1.0 - self._tail0)
        out = self._loc + self.sd * ndtri(q)
        return out if out.shape else float(out)
