import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from coopsim.errors import CalibrationError
from coopsim.sampling import TruncatedNormal, keyed_uniforms


@pytest.mark.parametrize("mean, sd", [
    (1.0, 0.0),  # no parent distribution to solve for
    (1.0, -0.5),
    (0.0, 1.0),  # a distribution truncated at zero has a mean above zero
    (-1.0, 1.0),
])
def test_bad_calibration_raises(mean, sd):
    with pytest.raises(CalibrationError):
        TruncatedNormal(mean, sd)


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
