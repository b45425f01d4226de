import numpy as np
import pytest

from crackscope.errors import InvalidShape
from crackscope.tensor import as_nchw


def test_as_nchw_requires_four_dims():
    with pytest.raises(InvalidShape):
        as_nchw(np.zeros((2, 3)))
    out = as_nchw(np.zeros((1, 1, 1, 1), dtype=np.float32))
    assert out.dtype == np.float64
