import numpy as np
import pytest

from insiderlab._csvio import format_cell


@pytest.mark.parametrize("value", [1.5, 0.1, -2.5e-300, 7, True, False])
def test_numpy_scalars_format_as_their_python_values(value):
    # np.float64 is a float subclass whose repr is np.float64(...): a numpy
    # scalar is written as the Python value it holds, which reads back equal
    scalar = np.asarray(value)[()]
    assert isinstance(scalar, np.generic)
    assert format_cell(scalar) == format_cell(value)
    if isinstance(value, float):
        assert float(format_cell(scalar)) == value
