import pytest

from coopsim.errors import CalibrationError
from coopsim.sampling import TruncatedNormal


@pytest.mark.parametrize("mean, sd", [
    (1.0, 0.0),  # no parent distribution to solve for
    (1.0, -0.5),
    (0.0, 1.0),  # a distribution truncated at zero has a mean above zero
    (-1.0, 1.0),
])
def test_bad_calibration_raises(mean, sd):
    with pytest.raises(CalibrationError):
        TruncatedNormal(mean, sd)
