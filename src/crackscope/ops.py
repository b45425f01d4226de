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
order (structural arguments such as pooling sizes get no gradient;
``conv2d_vjp(..., input_only=True)`` returns ``(dx,)`` alone and keeps no
im2col columns).  The pullback reuses what the forward saved (im2col
columns, padded arrays, sigmoid values, argmax inputs; max pooling saves
only its output and recomputes its row-segment maxima from the input) and
writes into none of it, so it may be called any number of times; the caller
in turn must not write into the inputs or the output while it holds the
pullback.  ``<op>(...)`` is ``<op>_vjp(...)[0]``, and :data:`VJP_OPS` maps
each op's name to its body.  A pullback trusts its caller to pass an
upstream of the output's shape.  There is no autodiff graph: composite
blocks chain the pullbacks by hand in reverse order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidKernel, InvalidShape

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


# padded elements in one slab of max pooling's planes: the slab's frame, its
# column maxima and its row maxima, 8 bytes each, fit a 2 MB L2 cache together
_SLAB_ELEMENTS = 2**15


def maxpool2d_vjp(x, k: int):
    """Separable running maxima over ``k`` columns, then ``k`` rows (van Herk
    1992; Gil & Werman 1993), one slab of about ``_SLAB_ELEMENTS`` padded
    elements at a time.  A slab lays its ``-inf`` padded planes out flat with
    a ``-inf`` tail, so every column or row shift is one contiguous 1-D slice
    and the passes run in cache.  The forward keeps only its output.  The
    pullback rebuilds each slab's frame and column maxima from ``x``, finds
    each window's first row-major maximum in two O(k) passes, one per axis,
    and routes the upstream to it with one ``np.bincount`` per slab."""
    x = as_nchw(x, "x")
    (pad,) = _same_padding(x, "pooling", k)
    n, c, h, w = x.shape
    planes, hp, wp = n * c, h + 2 * pad, w + 2 * pad
    # whole planes, at least one and at most all of them
    per_slab = max(1, min(_SLAB_ELEMENTS // (hp * wp), planes))
    size = per_slab * hp * wp

    def running_max(a, step, count, out):
        # out[i] = max over d < k of a[i + d * step], folded in order of d
        out = out[:count]
        np.copyto(out, a[:count])
        for d in range(1, k):
            np.maximum(out, a[d * step : d * step + count], out=out)
        return out

    def slabs():
        """``(start, count, frame, cols)`` per slab of ``count`` planes from
        ``start``: the padded planes flat, then the tail, and each flat
        position's maximum over ``k`` columns."""
        frame = np.full(size + k - 1, -np.inf)
        interior = frame[:size].reshape(per_slab, hp, wp)[:, pad : pad + h, pad : pad + w]
        cols = np.empty(size)
        xs = x.reshape(planes, h, w)
        for start in range(0, planes, per_slab):
            count = min(per_slab, planes - start)
            # the previous slab wrote only interiors, so the padding and the
            # tail (the next plane's top padding row) still hold -inf
            interior[:count] = xs[start : start + count]
            yield start, count, frame, running_max(frame, 1, count * hp * wp, cols)

    def first_max(a, best, step, count, nan):
        # offset d < k of the first a[i + d * step] equal to best[i], NaN
        # counting as maximal (as argmax does), as the number of offsets
        # that miss before it; best is one of those k values, so offset k-1
        # wins where none of the first k-1 match
        first = np.zeros(count, dtype=np.min_scalar_type(k))
        missed = np.ones(count, dtype=bool)  # every offset so far missed
        miss = np.empty(count, dtype=bool)
        for d in range(k - 1):
            view = a[d * step : d * step + count]
            missed &= np.not_equal(view, best[:count], out=miss)
            if nan:
                missed &= np.equal(view, view, out=miss)
            first += missed  # a masked store is slower
        return first

    out = np.empty((planes, h, w))
    rows = np.empty(size)
    for start, count, _, cols in slabs():
        running_max(cols, wp, len(cols) - (k - 1) * wp, rows)
        out[start : start + count] = rows.reshape(per_slab, hp, wp)[:count, :h, :w]

    def pullback(up):
        up = np.reshape(up, (planes, h * w))
        grad = np.empty((planes, h, w))
        # each window's top-left corner in the flat frame, in output row-major order
        corner = np.arange(per_slab)[:, None, None] * (hp * wp)
        corner = (corner + np.arange(h)[:, None] * wp + np.arange(w)).ravel()
        winner = np.empty_like(corner)
        # the slab's output at its corners, -inf elsewhere
        best = np.full(size, -np.inf)
        for start, count, frame, cols in slabs():
            length, windows = len(cols), count * h * w
            window_max = out[start : start + count]
            nan = bool(np.isnan(window_max).any())  # a NaN in a window is its max
            best.reshape(per_slab, hp, wp)[:count, :h, :w] = window_max
            col = first_max(frame, cols, 1, length, nan)  # winner's column in its row
            row = first_max(cols, best, wp, length - (k - 1) * wp, nan)  # winner's row
            # each window's winning row segment, then the winner in it
            at = np.multiply(row[corner[:windows]], wp, out=winner[:windows], dtype=winner.dtype)
            at += corner[:windows]
            at += col[at]
            # bincount adds in output row-major order, as a sequential scatter-add would
            weights = up[start : start + count].ravel()
            slab = np.bincount(at, weights=weights, minlength=length).reshape(count, hp, wp)
            grad[start : start + count] = slab[:, pad : pad + h, pad : pad + w]
        return (grad.reshape(x.shape),)

    return out.reshape(x.shape), pullback


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


def conv2d_vjp(x, kernel, bias, *, input_only=False):
    """One GEMM, ``kernel.reshape(Cout, -1) @ cols``, over im2col columns
    ``cols`` ``[N, Cin*kh*kw, H*W]``, each output pixel's zero-padded window
    (Chellapilla et al. 2006); a 1x1 kernel's columns are ``x`` reshaped.
    The pullback returns ``(dx, dkernel, dbias)``: ``dkernel`` contracts the
    upstream with ``cols``, and ``dx`` is col2im of ``kernelᵀ @ upstream``,
    whose taps are single products ``kernel[0, :, i, j] * upstream`` when
    Cout = 1.  ``input_only=True`` drops ``cols`` (a 1x1 kernel's hold on
    ``x``) after the GEMM, and the pullback returns ``(dx,)``."""
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
    matrix = kernel.reshape(cout, cin * kh * kw)
    if kh * kw == 1:
        cols = x.reshape(n, cin, h * w)
    else:
        padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))
        cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, cin * kh * kw, h * w)
    out = matrix @ cols
    out += bias[:, None]
    if input_only:
        del cols  # only dkernel reads the columns

    def pullback(up):
        rows = np.reshape(up, (n, cout, h * w))
        if kh * kw == 1:
            dx = (matrix.T @ rows).reshape(n, cin, h, w)
        else:
            if cout > 1:  # one GEMM: a GEMM per tap would round differently
                dcols = (matrix.T @ rows).reshape(n, cin, kh, kw, h, w)
            dx = np.zeros((n, cin, h + 2 * ph, w + 2 * pw))
            for i, j in np.ndindex(kh, kw):
                tap = dcols[:, :, i, j] if cout > 1 else kernel[0, :, i, j, None, None] * up
                dx[:, :, i : i + h, j : j + w] += tap
            dx = dx[:, :, ph : ph + h, pw : pw + w]
        if input_only:
            return (dx,)
        dkernel = np.tensordot(rows, cols, axes=((0, 2), (0, 2))).reshape(kernel.shape)
        return dx, dkernel, up.sum(axis=(0, 2, 3))

    return out.reshape(n, cout, h, w), pullback


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
        scatter += up[:, 1:] / c
        return (scatter,)

    out = np.concatenate([x.max(axis=1, keepdims=True), x.mean(axis=1, keepdims=True)], axis=1)
    return out, pullback


def channel_stats(x) -> np.ndarray:
    """Per-pixel max and mean across channels, stacked as ``[N, 2, H, W]``:
    channel 0 is the max, channel 1 the mean (CBAM's spatial descriptor)."""
    return channel_stats_vjp(x)[0]


# ---------------------------------------------------------------------------
# every op's body by name

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
