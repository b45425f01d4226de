"""Numerical core for attention-based crack inspection pipelines.

Subpackages by concern:

* :mod:`crackscope.tensor`, :mod:`crackscope.ops`, :mod:`crackscope.gradcheck`
  -- NCHW kernels with hand-written vector-Jacobian products and
  finite-difference verification.
* :mod:`crackscope.attention` -- channel/spatial attention blocks and fast
  pyramid pooling.
* :mod:`crackscope.boxes` -- IoU, the complete-IoU loss with analytic
  gradient, anchor-free decoding.
* :mod:`crackscope.maskgeom` -- crack-mask components, exact distance
  transform, thinning, width metrology.
* :mod:`crackscope.metrics` -- instance matching, PR curves, average
  precision, pixel confusion.
* :mod:`crackscope.dataio` -- label and prediction records (one polygon
  check for both), graymap format, rasterization and the pinned-PRNG
  dataset split.
* :mod:`crackscope.cli` -- the ``crackscope`` command.

Importing the package loads no submodule; import the one you need.  Only
:mod:`crackscope.maskgeom` loads scipy.
"""

from .errors import CrackscopeError

__version__ = "0.1.0"

__all__ = ["CrackscopeError", "__version__"]
