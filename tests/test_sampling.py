import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import kstest

from coopsim import netsim, sampling, tracking
from coopsim.codec import DEFAULT_LOSS_CALIBRATION, DEFAULT_TIME_MS
from coopsim.errors import CalibrationError
from coopsim.sampling import TruncatedNormal, keyed_uniforms
from coopsim.simpipe import RunConfig, generate_trace, run_simulation
from oracles import brentq_location, truncated_mean


@pytest.mark.parametrize("mean, sd", [
    (1.0, 0.0),  # no parent distribution to solve for
    (1.0, -0.5),
    (0.0, 1.0),  # a distribution truncated at zero has a mean above zero
    (-1.0, 1.0),
])
def test_bad_calibration_raises(mean, sd):
    with pytest.raises(CalibrationError):
        TruncatedNormal(mean, sd)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def test_truncated_mean_matches_scipy_stats_bit_for_bit():
    """On both sides of the a > 20 asymptotic branch, down to where the
    bound is inactive, at scales that are and are not powers of two."""
    a = np.concatenate([np.linspace(-40.0, 25.0, 6501),
                        np.nextafter(20.0, [-np.inf, np.inf]), [20.0]])
    for scale in (1.0, 0.53, 4.73):
        for loc in (-a * scale).tolist():
            assert _bits(sampling._truncated_mean(loc, scale)) == _bits(truncated_mean(loc, scale))


PACKAGE_TRUNCATED_NORMALS = sorted({
    *DEFAULT_LOSS_CALIBRATION.values(),
    DEFAULT_TIME_MS,
    *netsim.MODULE_TIMES_MS.values(),
    (tracking.DET_TIME_MEAN_MS, tracking.DET_TIME_SD_MS),
    (tracking.TRK_TIME_MEAN_MS, tracking.TRK_TIME_SD_MS),
})


@pytest.mark.parametrize("mean, sd", PACKAGE_TRUNCATED_NORMALS)
def test_package_truncated_normals_match_scipy_stats_calibration(monkeypatch, mean, sd):
    """Each location and tail mass the package solves for equals, bit for
    bit, the one solved over the scipy.stats form of the truncated mean."""
    tn = TruncatedNormal(mean, sd)
    monkeypatch.setattr(sampling, "_truncated_mean", truncated_mean)
    ref = TruncatedNormal(mean, sd)
    assert (_bits(tn._loc), _bits(tn._tail0)) == (_bits(ref._loc), _bits(ref._tail0))


def test_locations_match_scipy_brentq_bit_for_bit():
    """The in-package Brent solve returns scipy.optimize.brentq's root, bit
    for bit: every package calibration, 300 random (mean, sd) pairs with
    both from 1e-3 to 1e3, log-uniform, and pairs whose bound is inactive."""
    rng = np.random.default_rng(0)
    pairs = [*PACKAGE_TRUNCATED_NORMALS, (10.0, 1.0), (1e3, 1e-3),
             *(10.0 ** rng.uniform(-3.0, 3.0, (300, 2))).tolist()]
    inactive = 0
    for mean, sd in pairs:
        loc = TruncatedNormal(mean, sd)._loc
        assert _bits(loc) == _bits(brentq_location(mean, sd)), (mean, sd)
        inactive += loc == mean
    assert 2 <= inactive < len(pairs) - len(PACKAGE_TRUNCATED_NORMALS)


def test_brent_port_bisects_where_c_divides_by_zero():
    """On a function of size 1e-160 the extrapolation's divisor, a product
    of three such differences, underflows to 0.  SciPy's C code divides by
    it and bisects on the inf or NaN; the port meets ZeroDivisionError and
    bisects too, so both return the same float."""
    for c in np.linspace(-3.0, 3.0, 41).tolist():
        def f(x):
            return 1e-160 * ((x - c) ** 3 + (x - c))
        assert _bits(sampling._brentq(f, c - 7.5, c + 2.25)) == _bits(brentq(f, c - 7.5, c + 2.25))


def test_runs_build_only_the_listed_truncated_normals(monkeypatch):
    """The list above is every truncated normal a surrogate or codec run builds."""
    monkeypatch.setattr(TruncatedNormal, "_cache", {})
    trace = generate_trace(6, 2, seed=1)
    run_simulation(trace, RunConfig(policy="adamap", seed=1))
    run_simulation(trace, RunConfig(policy="adamap", seed=1, dataset_mode="codec"))
    assert set(TruncatedNormal._cache) <= set(PACKAGE_TRUNCATED_NORMALS)
    assert len(TruncatedNormal._cache) == len(PACKAGE_TRUNCATED_NORMALS)


# ---------------------------------------------------------------------------
# keyed uniforms


def test_keyed_uniforms_are_uniform_and_uncorrelated():
    """Over 1e5 keys that differ by one, in the last key or the first:
    KS against U(0, 1) at p ~ 0.001, and the correlation between
    neighbouring keys and between neighbouring counters within 5 sd of 0."""
    for keys in [(0, 3, np.arange(100_000), 0), (np.arange(100_000), 7, 11)]:
        u = keyed_uniforms(*keys, n=6)
        assert u.shape == (100_000, 6)
        for j in range(6):
            assert kstest(u[:, j], "uniform").statistic < 0.0062
        bound = 5.0 / np.sqrt(len(u))
        assert abs(np.corrcoef(u[:-1, 0], u[1:, 0])[0, 1]) < bound
        for j in range(5):
            assert abs(np.corrcoef(u[:, j], u[:, j + 1])[0, 1]) < bound


def test_keyed_uniforms_are_a_function_of_each_key_alone():
    """A key's draws do not depend on the order of the keys in the call, on
    which other keys share it, or on how the scalar keys broadcast."""
    rng = np.random.default_rng(0)
    cav = rng.integers(0, 2**40, size=500)
    obj = rng.integers(0, 2**62, size=500)
    u = keyed_uniforms(5, 9, cav, obj, 0, n=6)
    perm = rng.permutation(500)
    assert np.array_equal(keyed_uniforms(5, 9, cav[perm], obj[perm], 0, n=6), u[perm])
    assert np.array_equal(keyed_uniforms(5, 9, cav[7:9], obj[7:9], 0, n=6), u[7:9])
    assert np.array_equal(keyed_uniforms(5, 9, int(cav[3]), int(obj[3]), 0, n=6), u[3])
    assert np.array_equal(keyed_uniforms(5, 9, cav, obj, 0, n=2), u[:, :2])
    # the keys are folded in order, and each one counts
    assert not np.array_equal(keyed_uniforms(9, 5, cav, obj, 0, n=6), u)
    assert not np.array_equal(keyed_uniforms(5, 9, cav, obj, 1, n=6), u)


def test_keyed_uniforms_stay_inside_the_open_interval():
    u = keyed_uniforms(np.arange(200_000), n=4)
    assert 0.0 < u.min() and u.max() < 1.0
    assert np.isfinite(ndtri(u)).all()


def test_keyed_uniforms_scalar_keys_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = keyed_uniforms(2**63, 2**64 - 1, 0, n=3)
        keyed_uniforms(n=2)
    assert u.shape == (3,)
