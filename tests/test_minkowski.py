import numpy as np
import pytest

from polaray.errors import InvalidInput
from polaray.minkowski import (
    InvalidPoint,
    PhaseSpacePoint,
    as_point4,
    raise_index,
    spatial_momentum,
)


def test_raise_twice_is_exact_identity(rng):
    for _ in range(50):
        k = rng.uniform(-10, 10, 4)
        assert np.array_equal(raise_index(raise_index(k)), k)


def test_spatial_momentum_is_upper_index():
    # lower k3 = -1 means the disturbance moves along +z
    assert np.array_equal(spatial_momentum([1, 0, 0, -1]), [0, 0, 1])


def test_point_validation():
    with pytest.raises(ValueError):
        as_point4([1, 2, 3])
    with pytest.raises(ValueError):
        as_point4([1, 2, 3, np.inf])
    with pytest.raises(ValueError):
        PhaseSpacePoint([0, 0, 0, 0], [0, 0, 0, 0])
    pt = PhaseSpacePoint(np.arange(4.0), np.array([1.0, 0, 0, -1]))
    assert pt.k[0] == 1.0


def test_bad_points_raise_invalid_point():
    for bad in ([1, 2, 3], [1, 2, 3, np.nan], ["a", 0, 0, 0], [[1, 2], [3, 4]]):
        with pytest.raises(InvalidPoint):
            as_point4(bad, "x")
    with pytest.raises(InvalidPoint, match="nonzero"):
        PhaseSpacePoint(np.zeros(4), np.zeros(4))
    assert issubclass(InvalidPoint, InvalidInput) and issubclass(InvalidPoint, ValueError)
