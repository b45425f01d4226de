"""Exception types shared across the library.

Everything derives from :class:`CrackscopeError` so callers (and the CLI)
can catch validation failures with a single handler.
"""


class CrackscopeError(Exception):
    """Base class for all library errors."""


class InvalidShape(CrackscopeError):
    """Array extents violate an operation's shape contract."""


class InvalidKernel(CrackscopeError):
    """Convolution kernel has invalid extents (e.g. even 1-D length)."""


class NotDifferentiable(CrackscopeError):
    """No vector-Jacobian product is registered for the requested op."""


class InvalidBox(CrackscopeError):
    """Bounding box has non-positive width or height."""


class InvalidPrediction(CrackscopeError):
    """Raw detector output contains non-finite values."""


class InvalidImage(CrackscopeError):
    """Image is empty or otherwise unusable."""


class DegenerateComponent(CrackscopeError):
    """Foreground component has no skeleton pixels to measure."""


class UnsupportedFormat(CrackscopeError):
    """Input file is not in a supported format."""


class UnsupportedMode(CrackscopeError):
    """A mode argument names no supported mode."""


class CorruptImage(CrackscopeError):
    """Image file header parsed but the pixel data is incomplete."""


class MalformedLabel(CrackscopeError):
    """Label line cannot be parsed into a polygon record."""


class MalformedPrediction(CrackscopeError):
    """Prediction line cannot be parsed into a detection record."""


class OutOfRange(CrackscopeError):
    """A coordinate or score lies outside its allowed interval."""


class InvalidSplit(CrackscopeError):
    """Requested split sizes are incompatible with the item count."""


class UndefinedMetric(CrackscopeError):
    """Metric denominator is zero; the value does not exist."""
