"""Forward kernels and their hand-written vector-Jacobian products.

Every operation needed by the attention blocks lives here: pooling,
convolution, activations, broadcasting and the channel-wise reductions.
Tensors are plain ``numpy.float64`` arrays in batch/channel/height/width
(NCHW) order, and all arithmetic runs in double precision.  Every windowed
op has stride 1 and "same" padding derived from its odd window: a window of
``k`` pads each side by ``k // 2``, so the output keeps the input's extent,
and an even window is :class:`InvalidKernel`.  Convolution is
cross-correlation (no kernel flip) with zero padding; max pooling pads with
``-inf`` so padding never wins; where a max has tied arguments the gradient
flows to the first (lowest row-major index) maximal element.

Each op has one body, ``<op>_vjp(*inputs) -> (out, pullback)``, the
closure idiom of ``jax.vjp``: it validates the inputs and computes its one
array output once, and ``pullback(upstream)`` takes one upstream of the
output's shape and returns the exact gradients with respect to every
*array* input, one per input and of its shape, as a tuple in positional
order (structural arguments such as pooling sizes get no gradient).  The
pullback reuses what the forward saved (convolution windows, padded arrays,
sigmoid values, argmax inputs, max pooling's row-segment maxima) and writes
into none of it, so it may be called any number of times; the caller in
turn must not write into the inputs or the output while it holds the
pullback.  ``<op>(...)`` is ``<op>_vjp(...)[0]`` and ``vjp(op, inputs,
upstream)`` dispatches by name and raises :class:`InvalidShape` unless the
upstream has the output's shape (pullbacks called directly trust their
caller).  There is no autodiff graph: composite blocks chain the pullbacks
by hand in reverse order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidKernel, InvalidShape, NotDifferentiable

__all__ = [
    "as_nchw",
    "global_avg_pool",
    "global_avg_pool_vjp",
    "global_max_pool",
    "global_max_pool_vjp",
    "conv1d_channels",
    "conv1d_channels_vjp",
    "conv2d",
    "conv2d_vjp",
    "maxpool2d",
    "maxpool2d_vjp",
    "sigmoid",
    "sigmoid_vjp",
    "relu",
    "relu_vjp",
    "broadcast_mul",
    "broadcast_mul_vjp",
    "channel_stats",
    "channel_stats_vjp",
    "vjp",
    "VJP_OPS",
]


def as_nchw(x, name: str = "tensor") -> np.ndarray:
    """``x`` as a float64 array; anything but 4 dimensions is :class:`InvalidShape`."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 4:
        raise InvalidShape(f"{name} must be 4-D (N, C, H, W), got shape {arr.shape}")
    return arr


def _same_padding(x, name: str, *window: int) -> tuple[int, ...]:
    """Each side's padding, ``k // 2``, for the odd window sizes over ``x``'s
    two spatial axes; ``x`` must have a nonempty spatial extent."""
    if any(k < 1 or k % 2 == 0 for k in window):
        raise InvalidKernel(f"{name} window must be odd, got {'x'.join(map(str, window))}")
    if x.shape[2] * x.shape[3] == 0:
        raise InvalidShape(f"{name} needs a nonempty spatial extent, got {x.shape}")
    return tuple(k // 2 for k in window)


# ---------------------------------------------------------------------------
# pooling


def global_avg_pool_vjp(x):
    x = as_nchw(x, "x")
    n, c, h, w = x.shape
    if h * w == 0:
        raise InvalidShape("global_avg_pool needs a nonempty spatial extent")

    def pullback(up):
        return (np.broadcast_to(np.reshape(up, (n, c, 1, 1)) / (h * w), x.shape).copy(),)

    return x.mean(axis=(2, 3), keepdims=True), pullback


def global_avg_pool(x) -> np.ndarray:
    """Mean over the spatial extent of each channel -> ``[N, C, 1, 1]``."""
    return global_avg_pool_vjp(x)[0]


def global_max_pool_vjp(x):
    x = as_nchw(x, "x")
    n, c, h, w = x.shape
    if h * w == 0:
        raise InvalidShape("global_max_pool needs a nonempty spatial extent")

    def pullback(up):
        flat = x.reshape(n, c, h * w)
        winner = flat.argmax(axis=2)  # first maximal element wins at ties
        grad = np.zeros_like(flat)
        np.put_along_axis(grad, winner[:, :, None], np.reshape(up, (n, c, 1)), axis=2)
        return (grad.reshape(x.shape),)

    return x.max(axis=(2, 3), keepdims=True), pullback


def global_max_pool(x) -> np.ndarray:
    """Max over the spatial extent of each channel -> ``[N, C, 1, 1]``."""
    return global_max_pool_vjp(x)[0]


def _shifted(a, axis: int, k: int, count: int):
    """The ``k`` views of ``a`` shifted by 0..k-1 along ``axis``, each
    ``count`` long."""
    index = [slice(None)] * a.ndim
    for d in range(k):
        index[axis] = slice(d, d + count)
        yield a[tuple(index)]


def maxpool2d_vjp(x, k: int):
    """Separable shifted maxima: a running max over ``k`` columns, then over
    ``k`` rows (van Herk 1992; Gil & Werman 1993).  The pullback finds each
    window's first row-major maximum in two O(k) passes, over the padded
    input and its row-segment maxima, and routes the upstream to it with one
    ``np.bincount``."""
    x = as_nchw(x, "x")
    (pad,) = _same_padding(x, "pooling", k)
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad

    def running_max(a, axis, count):
        views = _shifted(a, axis, k, count)
        best = next(views).copy()
        for view in views:
            np.maximum(best, view, out=best)
        return best

    def first_max(a, best, axis, count):
        # offset 0..k-1 of the first shifted view equal to best, NaN counting
        # as maximal (as argmax does); best is one of the k views' values, so
        # offset k-1 wins where none of the first k-1 views match
        first = np.full(best.shape, k - 1, dtype=np.min_scalar_type(k))
        for d, view in reversed(list(enumerate(_shifted(a, axis, k - 1, count)))):
            hit = (view == best) | np.isnan(view)
            first -= hit * (first - d)  # first = d at hits; a masked store is slower
        return first

    padded = np.full((n, c, hp, wp), -np.inf, dtype=np.float64)
    padded[:, :, pad : pad + h, pad : pad + w] = x
    row_max = running_max(padded, 3, w)  # max of each row segment, [n, c, hp, w]
    out = running_max(row_max, 2, h)

    def pullback(up):
        col = first_max(padded, row_max, 3, w)  # winner's offset in each row segment
        # each window's winning row, counted in the [n * c * hp, wp] stack of rows
        rows = first_max(row_max, out, 2, h) + np.arange(h)[:, None]
        rows += hp * np.arange(n * c).reshape(n, c, 1, 1)
        starts = np.arange(w)
        # flat padded-frame index of each window's winner, in output row-major
        # order, so bincount adds in the order a sequential scatter-add would
        dest = col.reshape(-1, w)[rows, starts] + starts
        rows *= wp
        dest += rows
        grad = np.bincount(dest.ravel(), weights=np.ravel(up), minlength=n * c * hp * wp)
        return (grad.reshape(n, c, hp, wp)[:, :, pad : pad + h, pad : pad + w],)

    return out, pullback


def maxpool2d(x, k: int) -> np.ndarray:
    """Max over each odd ``k`` x ``k`` window, ``-inf`` padded to keep the extent."""
    return maxpool2d_vjp(x, k)[0]


# ---------------------------------------------------------------------------
# convolution


def conv1d_channels_vjp(w, kernel):
    w = as_nchw(w, "w")
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size % 2 == 0 or kernel.size < 1:
        raise InvalidKernel(f"kernel must be a 1-D odd-length vector, got shape {kernel.shape}")
    n, c, h, wid = w.shape
    if c < 1:
        raise InvalidShape("conv1d_channels needs at least one channel")
    if (h, wid) != (1, 1):
        raise InvalidShape(f"expected pooled [N, C, 1, 1] input, got {w.shape}")
    half = kernel.size // 2
    w_pad = np.pad(w[:, :, 0, 0], ((0, 0), (half, half)))
    windows = sliding_window_view(w_pad, kernel.size, axis=1)

    def pullback(up):
        up = np.reshape(up, (n, c))
        up_windows = sliding_window_view(np.pad(up, ((0, 0), (half, half))), kernel.size, axis=1)
        dw = (up_windows @ kernel[::-1]).reshape(w.shape)
        return dw, np.einsum("ncm,nc->m", windows, up)

    return (windows @ kernel).reshape(n, c, 1, 1), pullback


def conv1d_channels(w, kernel) -> np.ndarray:
    """Odd-length 1-D convolution across the channel axis with zero padding.

    ``w`` is a pooled ``[N, C, 1, 1]`` tensor; the kernel slides over the
    channel dimension (local cross-channel interaction).
    """
    return conv1d_channels_vjp(w, kernel)[0]


def conv2d_vjp(x, kernel, bias):
    """The pullback returns ``(dx, dkernel, dbias)``."""
    x = as_nchw(x, "x")
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise InvalidShape(f"kernel must be [Cout, Cin, kh, kw], got shape {kernel.shape}")
    cout, cin, kh, kw = kernel.shape
    ph, pw = _same_padding(x, "convolution", kh, kw)
    n, c, h, w = x.shape
    if c != cin:
        raise InvalidShape(f"input has {c} channels, kernel expects {cin}")
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (cout,):
        raise InvalidShape(f"bias must have length {cout}, got shape {bias.shape}")
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))
    out = np.einsum("nchwij,ocij->nohw", windows, kernel, optimize=True)

    def pullback(up):
        dkernel = np.einsum("nchwij,nohw->ocij", windows, up, optimize=True)
        up_pad = np.pad(up, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        up_windows = sliding_window_view(up_pad, (kh, kw), axis=(2, 3))
        dx_pad = np.einsum(
            "nohwij,ocij->nchw", up_windows, kernel[:, :, ::-1, ::-1], optimize=True
        )
        return dx_pad[:, :, ph : ph + h, pw : pw + w], dkernel, up.sum(axis=(0, 2, 3))

    return out + bias[None, :, None, None], pullback


def conv2d(x, kernel, bias) -> np.ndarray:
    """Stride-1 cross-correlation, zero padded to keep the input's extent.

    ``kernel`` is ``[Cout, Cin, kh, kw]`` with ``kh`` and ``kw`` odd.
    """
    return conv2d_vjp(x, kernel, bias)[0]


# ---------------------------------------------------------------------------
# activations


def sigmoid_vjp(x):
    x = np.asarray(x, dtype=np.float64)
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    s[~pos] = expx / (1.0 + expx)
    return s, lambda up: (up * s * (1.0 - s),)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise on any array."""
    return sigmoid_vjp(x)[0]


def relu_vjp(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0), lambda up: (up * (x > 0.0),)


def relu(x) -> np.ndarray:
    return relu_vjp(x)[0]


# ---------------------------------------------------------------------------
# broadcasting / channel reductions


def broadcast_mul_vjp(x, w):
    x = as_nchw(x, "x")
    w = as_nchw(w, "w")
    n, c, h, wd = x.shape
    channel = w.shape == (n, c, 1, 1)
    if not channel and w.shape != (n, 1, h, wd):
        raise InvalidShape(
            f"weights {w.shape} are neither channel [N, C, 1, 1] nor spatial"
            f" [N, 1, H, W] broadcast of input {x.shape}"
        )

    def pullback(up):
        dw = (up * x).sum(axis=(2, 3) if channel else 1, keepdims=True)
        return up * w, dw

    return x * w, pullback


def broadcast_mul(x, w) -> np.ndarray:
    """Multiply ``x`` by channel weights ``[N, C, 1, 1]`` or a spatial map ``[N, 1, H, W]``."""
    return broadcast_mul_vjp(x, w)[0]


def channel_stats_vjp(x):
    """The pullback takes one ``[N, 2, H, W]`` upstream, max channel first."""
    x = as_nchw(x, "x")
    c = x.shape[1]
    if c < 1:
        raise InvalidShape("channel_stats needs at least one channel")

    def pullback(up):
        winner = x.argmax(axis=1, keepdims=True)  # first maximal channel at ties
        scatter = np.zeros_like(x)
        np.put_along_axis(scatter, winner, up[:, :1], axis=1)
        return (up[:, 1:] / c + scatter,)

    out = np.concatenate([x.max(axis=1, keepdims=True), x.mean(axis=1, keepdims=True)], axis=1)
    return out, pullback


def channel_stats(x) -> np.ndarray:
    """Per-pixel max and mean across channels, stacked as ``[N, 2, H, W]``:
    channel 0 is the max, channel 1 the mean (CBAM's spatial descriptor)."""
    return channel_stats_vjp(x)[0]


# ---------------------------------------------------------------------------
# VJP dispatch

VJP_OPS = {
    "global_avg_pool": global_avg_pool_vjp,
    "global_max_pool": global_max_pool_vjp,
    "conv1d_channels": conv1d_channels_vjp,
    "conv2d": conv2d_vjp,
    "maxpool2d": maxpool2d_vjp,
    "sigmoid": sigmoid_vjp,
    "relu": relu_vjp,
    "broadcast_mul": broadcast_mul_vjp,
    "channel_stats": channel_stats_vjp,
}


def vjp(op: str, inputs, upstream):
    """Vector-Jacobian product of ``op`` at ``inputs`` for a given upstream gradient.

    ``inputs`` are the op's positional arguments; the return value is the
    tuple of gradients that ``VJP_OPS[op](*inputs)[1](upstream)`` gives.
    """
    try:
        body = VJP_OPS[op]
    except KeyError:
        raise NotDifferentiable(f"no vector-Jacobian product registered for {op!r}") from None
    out, pullback = body(*inputs)
    if np.shape(upstream) != out.shape:
        raise InvalidShape(
            f"{op}: upstream shape {np.shape(upstream)} differs from the output's {out.shape}"
        )
    return pullback(upstream)
