"""Dense 4-D tensors in batch/channel/height/width (NCHW) order.

Tensors are plain ``numpy.float64`` arrays; this module provides the shape
validation shared by all kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShape

__all__ = ["as_nchw"]


def as_nchw(x, name: str = "tensor") -> np.ndarray:
    """Validate and return ``x`` as a float64 NCHW array.

    Accepts anything ``np.asarray`` does but insists on 4 dimensions.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 4:
        raise InvalidShape(f"{name} must be 4-D (N, C, H, W), got shape {arr.shape}")
    return arr
