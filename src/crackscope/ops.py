"""Forward kernels and their hand-written vector-Jacobian products.

Every operation needed by the attention blocks lives here: pooling,
convolution, activations, broadcasting and the channel-wise reductions.
All arithmetic runs in double precision; convolution is cross-correlation
(no kernel flip) with stride fixed at 1; max pooling pads with ``-inf`` so
padding never wins; where a max has tied arguments the gradient flows to
the first (lowest row-major index) maximal element.

Each op has one body, ``<op>_vjp(*inputs) -> (out, pullback)``, the
closure idiom of ``jax.vjp``: it validates the inputs and computes the
output once, and ``pullback(upstream)`` returns the exact gradients with
respect to every *array* input, as a tuple in positional order (structural
arguments such as pooling sizes get no gradient).  The pullback reuses what
the forward saved (windows, padded arrays, sigmoid values, argmax inputs)
and writes into none of it, so it may be called any number of times; the
caller in turn must not write into the inputs or the output while it holds
the pullback.  ``<op>(...)`` is ``<op>_vjp(...)[0]`` and
``vjp(op, inputs, upstream)`` dispatches by name and raises
:class:`InvalidShape` unless the upstream has the output's shape (pullbacks
called directly trust their caller).  There is no autodiff
graph: composite blocks chain the pullbacks by hand in reverse order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidKernel, InvalidShape, NotDifferentiable
from .tensor import as_nchw

__all__ = [
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
    "concat_channels",
    "concat_channels_vjp",
    "channel_stats",
    "channel_stats_vjp",
    "vjp",
    "VJP_OPS",
]


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


def maxpool2d_vjp(x, k: int, stride: int = 1, pad: int = 0):
    x = as_nchw(x, "x")
    if k < 1:
        raise InvalidShape(f"pooling window must be >= 1, got {k}")
    if stride < 1:
        raise InvalidShape(f"stride must be >= 1, got {stride}")
    if not 0 <= pad <= k // 2:
        # larger padding would yield windows of pure -inf filler
        raise InvalidShape(f"padding must be in [0, k//2] = [0, {k // 2}], got {pad}")
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if k > hp or k > wp:
        raise InvalidShape(f"window {k} exceeds padded input {hp}x{wp}")
    padded = np.full((n, c, hp, wp), -np.inf, dtype=np.float64)
    padded[:, :, pad : pad + h, pad : pad + w] = x
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = windows.shape[2], windows.shape[3]

    def pullback(up):
        winner = windows.reshape(n, c, ho, wo, k * k).argmax(axis=4)
        grad_pad = np.zeros((n, c, hp, wp), dtype=np.float64)
        ni, ci, oi, oj = np.indices((n, c, ho, wo))
        rows = oi * stride + winner // k
        cols = oj * stride + winner % k
        np.add.at(grad_pad, (ni, ci, rows, cols), np.reshape(up, (n, c, ho, wo)))
        return (grad_pad[:, :, pad : pad + h, pad : pad + w],)

    return windows.max(axis=(4, 5)), pullback


def maxpool2d(x, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Window max with ``-inf`` padding semantics."""
    return maxpool2d_vjp(x, k, stride, pad)[0]


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


def conv2d_vjp(x, kernel, bias=None, pad: int = 0):
    """The pullback returns ``(dx, dkernel)``, plus ``dbias`` when a bias is given."""
    x = as_nchw(x, "x")
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise InvalidShape(f"kernel must be [Cout, Cin, kh, kw], got shape {kernel.shape}")
    cout, cin, kh, kw = kernel.shape
    if pad < 0:
        raise InvalidShape(f"padding must be >= 0, got {pad}")
    n, c, h, w = x.shape
    if c != cin:
        raise InvalidShape(f"input has {c} channels, kernel expects {cin}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise InvalidShape(f"kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    has_bias = bias is not None
    bias = np.asarray(bias, dtype=np.float64) if has_bias else np.zeros(cout)
    if bias.shape != (cout,):
        raise InvalidShape(f"bias must have length {cout}, got shape {bias.shape}")
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))
    out = np.einsum("nchwij,ocij->nohw", windows, kernel, optimize=True)

    def pullback(up):
        dkernel = np.einsum("nchwij,nohw->ocij", windows, up, optimize=True)
        up_pad = np.pad(up, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        up_windows = sliding_window_view(up_pad, (kh, kw), axis=(2, 3))
        dx_pad = np.einsum(
            "nohwij,ocij->nchw", up_windows, kernel[:, :, ::-1, ::-1], optimize=True
        )
        dx = dx_pad[:, :, pad : pad + h, pad : pad + w]
        if has_bias:
            return dx, dkernel, up.sum(axis=(0, 2, 3))
        return dx, dkernel

    return out + bias[None, :, None, None], pullback


def conv2d(x, kernel, bias=None, pad: int = 0) -> np.ndarray:
    """Stride-1 cross-correlation with zero padding.

    ``kernel`` is ``[Cout, Cin, kh, kw]``; output spatial extent is
    ``H + 2*pad - kh + 1`` by ``W + 2*pad - kw + 1``.
    """
    return conv2d_vjp(x, kernel, bias, pad)[0]


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


def concat_channels_vjp(a, b):
    a = as_nchw(a, "a")
    b = as_nchw(b, "b")
    if (a.shape[0], a.shape[2], a.shape[3]) != (b.shape[0], b.shape[2], b.shape[3]):
        raise InvalidShape(f"cannot concat {a.shape} with {b.shape}")
    ca = a.shape[1]
    return np.concatenate([a, b], axis=1), lambda up: (up[:, :ca].copy(), up[:, ca:].copy())


def concat_channels(a, b) -> np.ndarray:
    """Stack the channels of ``a`` then ``b``; N, H, W must match."""
    return concat_channels_vjp(a, b)[0]


def channel_stats_vjp(x):
    """The pullback takes its upstream as a ``(max_map, mean_map)`` pair."""
    x = as_nchw(x, "x")
    c = x.shape[1]
    if c < 1:
        raise InvalidShape("channel_stats needs at least one channel")

    def pullback(up):
        up_max, up_mean = up
        winner = x.argmax(axis=1, keepdims=True)  # first maximal channel at ties
        scatter = np.zeros_like(x)
        np.put_along_axis(scatter, winner, up_max, axis=1)
        return (up_mean / c + scatter,)

    return (x.max(axis=1, keepdims=True), x.mean(axis=1, keepdims=True)), pullback


def channel_stats(x):
    """Per-pixel max and mean across channels -> two ``[N, 1, H, W]`` maps."""
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
    "concat_channels": concat_channels_vjp,
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
    # channel_stats has a pair of outputs, and takes a pair of upstreams
    pieces, ups = (out, tuple(upstream)) if isinstance(out, tuple) else ((out,), (upstream,))
    want = [piece.shape for piece in pieces]
    got = [np.shape(up) for up in ups]
    if got != want:
        raise InvalidShape(f"{op}: upstream shape {got} differs from the output's {want}")
    return pullback(upstream)
