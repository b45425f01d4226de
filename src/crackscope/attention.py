"""Channel and spatial attention blocks plus the fast pyramid-pooling block.

Four parameterized blocks built from the kernels in :mod:`crackscope.ops`:

* ``eca``  -- channel reweighting: global average pool, odd-size 1-D
  convolution across channels, sigmoid, channel-wise scale.
* ``cam``  -- channel attention from avg- and max-pooled vectors pushed
  through one shared two-layer MLP, summed, squashed by sigmoid.
* ``sam``  -- spatial attention: the per-pixel channel max and mean, one
  ``[N, 2, H, W]`` map, convolved with a 7x7 kernel.
* ``cbam`` -- ``cam`` followed by ``sam``.
* ``sppf`` -- 1x1 reduce convolution, three chained 5x5 max pools, channel
  concat, 1x1 expand convolution.

Every window is stride 1 with "same" padding, so each block keeps the
input's spatial extent, and each block takes the rest of its shape from its
weights: ECA's kernel length, CBAM's hidden width (``max(C // 16, 1)`` as
drawn by :func:`init_cam`) and SPPF's widths.  The ops check the weights at
the forward; a container checks only what no op does.

Each block has one body, ``<block>_vjp(x, *params) -> (out, pullback)``,
that chains the op-level pullbacks of :mod:`crackscope.ops`;
``pullback(upstream)`` returns the exact input gradient as ``(dx,)`` from
what the forward saved, and ``<block>_forward`` is ``<block>_vjp(...)[0]``;
block parameters get no gradient, so every convolution asks ``conv2d_vjp``
for ``dx`` alone.  There is no autodiff graph.  Parameter containers are
frozen dataclasses, safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape
from .ops import (
    as_nchw,
    broadcast_mul_vjp,
    channel_stats_vjp,
    conv1d_channels_vjp,
    conv2d_vjp,
    global_avg_pool_vjp,
    global_max_pool_vjp,
    maxpool2d_vjp,
    relu_vjp,
    sigmoid_vjp,
)

__all__ = [
    "EcaParams",
    "CamParams",
    "SamParams",
    "SppfParams",
    "PipelineParams",
    "eca_kernel_size",
    "eca_weights",
    "eca_vjp",
    "eca_forward",
    "cam_weights",
    "cam_vjp",
    "cam_forward",
    "sam_map",
    "sam_vjp",
    "sam_forward",
    "cbam_vjp",
    "cbam_forward",
    "sppf_vjp",
    "sppf_forward",
    "pipeline_vjp",
    "demo_pipeline",
    "pipeline_input_grad",
    "init_eca",
    "init_cam",
    "init_sam",
    "init_sppf",
    "init_pipeline",
]


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True, eq=False)
class EcaParams:
    """Odd-length channel-convolution kernel."""

    kernel: np.ndarray


@dataclass(frozen=True, eq=False)
class CamParams:
    """Shared two-layer MLP applied to both pooled channel vectors."""

    w1: np.ndarray  # [hidden, C]
    b1: np.ndarray  # [hidden]
    w2: np.ndarray  # [C, hidden]
    b2: np.ndarray  # [C]

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        if w1.ndim != 2 or w2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
            raise InvalidShape("MLP parameters must be matrix/vector/matrix/vector")
        hidden, channels = w1.shape
        if w2.shape != (channels, hidden) or b1.shape != (hidden,) or b2.shape != (channels,):
            raise InvalidShape(
                f"inconsistent MLP shapes: w1 {w1.shape}, b1 {b1.shape},"
                f" w2 {w2.shape}, b2 {b2.shape}"
            )
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            object.__setattr__(self, name, arr)

    @property
    def channels(self) -> int:
        return self.w1.shape[1]


@dataclass(frozen=True, eq=False)
class SamParams:
    """7x7 convolution over the ``[N, 2, H, W]`` channel-max/channel-mean map."""

    kernel: np.ndarray  # [1, 2, 7, 7]
    bias: float = 0.0


@dataclass(frozen=True, eq=False)
class SppfParams:
    """1x1 reduce/expand convolutions around three chained 5x5 max pools."""

    reduce_kernel: np.ndarray  # [Cmid, Cin, 1, 1]
    reduce_bias: np.ndarray  # [Cmid]
    expand_kernel: np.ndarray  # [Cout, 4*Cmid, 1, 1]
    expand_bias: np.ndarray  # [Cout]

    POOL = 5


@dataclass(frozen=True, eq=False)
class PipelineParams:
    """Front 3x3 convolution plus one of each block, for the demo composition."""

    conv_kernel: np.ndarray  # [C, Cin, 3, 3]
    conv_bias: np.ndarray  # [C]
    eca: EcaParams
    cam: CamParams
    sam: SamParams
    sppf: SppfParams


# ---------------------------------------------------------------------------
# gating: eca, cam and sam all scale x by weights computed from x


def _gate_vjp(x, weights_vjp, p):
    """``x * w`` with ``w, weights_pullback = weights_vjp(x, p)``.

    The input gradient is the direct term plus the term through the
    weights, which ``weights_pullback(dw)`` returns as one array.
    """
    x = as_nchw(x, "x")
    w, weights_pullback = weights_vjp(x, p)
    out, mul_pullback = broadcast_mul_vjp(x, w)

    def pullback(up):
        dx, dw = mul_pullback(up)
        dx += weights_pullback(dw)
        return (dx,)

    return out, pullback


# ---------------------------------------------------------------------------
# channel attention (1-D convolution flavour)


def eca_kernel_size(channels: int) -> int:
    """Adaptive channel-kernel size: smallest odd integer not below
    ``|log2(C)/gamma + b/gamma|`` with ECA-Net's gamma = 2 and b = 1,
    floored at 3."""
    if channels < 1:
        raise InvalidShape(f"channel count must be >= 1, got {channels}")
    target = abs(math.log2(channels) / 2 + 1 / 2)
    k = math.ceil(target)
    if k % 2 == 0:
        k += 1
    return max(k, 3)


def _eca_weights_vjp(x, p: EcaParams):
    c = x.shape[1]
    if np.size(p.kernel) > 2 * c - 1:
        raise InvalidShape(f"kernel length {np.size(p.kernel)} exceeds 2*C-1 = {2 * c - 1}")
    pooled, pool_pullback = global_avg_pool_vjp(x)
    z, conv_pullback = conv1d_channels_vjp(pooled, p.kernel)
    w, sigmoid_pullback = sigmoid_vjp(z)

    def pullback(dw):
        (dz,) = sigmoid_pullback(dw)
        return pool_pullback(conv_pullback(dz)[0])[0]

    return w, pullback


def eca_weights(x, p: EcaParams) -> np.ndarray:
    """Channel weights ``[N, C, 1, 1]``, each strictly inside (0, 1)."""
    return _eca_weights_vjp(as_nchw(x, "x"), p)[0]


def eca_vjp(x, p: EcaParams):
    return _gate_vjp(x, _eca_weights_vjp, p)


def eca_forward(x, p: EcaParams) -> np.ndarray:
    return eca_vjp(x, p)[0]


# ---------------------------------------------------------------------------
# channel attention (shared-MLP flavour)


def _cam_weights_vjp(x, p: CamParams):
    n, c = x.shape[:2]
    if c != p.channels:
        raise InvalidShape(f"input has {c} channels, parameters expect {p.channels}")
    avg, avg_pullback = global_avg_pool_vjp(x)
    mx, max_pullback = global_max_pool_vjp(x)
    # one pass of the shared MLP over both pooled vectors, stacked [2, N, C]
    hidden, relu_pullback = relu_vjp(np.stack([avg, mx])[..., 0, 0] @ p.w1.T + p.b1)
    branch_logits = hidden @ p.w2.T + p.b2
    w, sigmoid_pullback = sigmoid_vjp(branch_logits[0] + branch_logits[1])

    def pullback(dw):
        (dlogits,) = sigmoid_pullback(dw[:, :, 0, 0])
        (dpre,) = relu_pullback(dlogits @ p.w2)
        davg, dmax = dpre @ p.w1
        (g,) = max_pullback(dmax)
        g += avg_pullback(davg)[0]
        return g

    return w.reshape(n, c, 1, 1), pullback


def cam_weights(x, p: CamParams) -> np.ndarray:
    """Channel weights ``[N, C, 1, 1]`` from the summed avg/max MLP logits."""
    return _cam_weights_vjp(as_nchw(x, "x"), p)[0]


def cam_vjp(x, p: CamParams):
    return _gate_vjp(x, _cam_weights_vjp, p)


def cam_forward(x, p: CamParams) -> np.ndarray:
    return cam_vjp(x, p)[0]


# ---------------------------------------------------------------------------
# spatial attention


def _sam_map_vjp(x, p: SamParams):
    stats, stats_pullback = channel_stats_vjp(x)
    z, conv_pullback = conv2d_vjp(stats, p.kernel, [p.bias], input_only=True)
    m, sigmoid_pullback = sigmoid_vjp(z)

    def pullback(dm):
        (dz,) = sigmoid_pullback(dm)
        return stats_pullback(conv_pullback(dz)[0])[0]

    return m, pullback


def sam_map(x, p: SamParams) -> np.ndarray:
    """Spatial weight map ``[N, 1, H, W]``, values strictly inside (0, 1)."""
    return _sam_map_vjp(as_nchw(x, "x"), p)[0]


def sam_vjp(x, p: SamParams):
    return _gate_vjp(x, _sam_map_vjp, p)


def sam_forward(x, p: SamParams) -> np.ndarray:
    return sam_vjp(x, p)[0]


# ---------------------------------------------------------------------------
# composite block and pyramid pooling


def cbam_vjp(x, cam: CamParams, sam: SamParams):
    """Channel attention first, spatial attention on its output."""
    y, cam_pullback = cam_vjp(x, cam)
    out, sam_pullback = sam_vjp(y, sam)
    return out, lambda up: cam_pullback(*sam_pullback(up))


def cbam_forward(x, cam: CamParams, sam: SamParams) -> np.ndarray:
    return cbam_vjp(x, cam, sam)[0]


def sppf_vjp(x, p: SppfParams):
    """Reduce, pool three times, concat the four stages, expand."""
    y0, reduce_pullback = conv2d_vjp(x, p.reduce_kernel, p.reduce_bias, input_only=True)
    y1, pool1_pullback = maxpool2d_vjp(y0, p.POOL)
    y2, pool2_pullback = maxpool2d_vjp(y1, p.POOL)
    y3, pool3_pullback = maxpool2d_vjp(y2, p.POOL)
    stacked = np.concatenate([y0, y1, y2, y3], axis=1)
    out, expand_pullback = conv2d_vjp(stacked, p.expand_kernel, p.expand_bias, input_only=True)

    def pullback(up):
        # views of the expand pullback's fresh dx, each finished in place
        d0, d1, d2, d3 = np.split(expand_pullback(up)[0], 4, axis=1)
        d2 += pool3_pullback(d3)[0]
        d1 += pool2_pullback(d2)[0]
        d0 += pool1_pullback(d1)[0]
        return reduce_pullback(d0)

    return out, pullback


def sppf_forward(x, p: SppfParams) -> np.ndarray:
    return sppf_vjp(x, p)[0]


def pipeline_vjp(x, p: PipelineParams):
    """Smoke-test composition: 3x3 conv, then eca, cbam and sppf in order."""
    y0, conv_pullback = conv2d_vjp(x, p.conv_kernel, p.conv_bias, input_only=True)
    y1, eca_pullback = eca_vjp(y0, p.eca)
    y2, cbam_pullback = cbam_vjp(y1, p.cam, p.sam)
    out, sppf_pullback = sppf_vjp(y2, p.sppf)

    def pullback(up):
        return conv_pullback(*eca_pullback(*cbam_pullback(*sppf_pullback(up))))

    return out, pullback


def demo_pipeline(x, p: PipelineParams) -> np.ndarray:
    return pipeline_vjp(x, p)[0]


def pipeline_input_grad(x, p: PipelineParams, upstream) -> np.ndarray:
    """Exact gradient of ``sum(upstream * demo_pipeline(x, p))`` w.r.t. ``x``."""
    return pipeline_vjp(x, p)[1](upstream)[0]


# ---------------------------------------------------------------------------
# initialization (deterministic seeded uniform; zeros for identity checks)


def _uniform(rng, shape):
    return rng.uniform(-0.5, 0.5, shape)


def init_eca(channels: int, seed: int = 0, zero: bool = False) -> EcaParams:
    k = min(eca_kernel_size(channels), 2 * channels - 1)  # longer kernels only hit zero padding
    kernel = np.zeros(k) if zero else _uniform(np.random.default_rng(seed), k)
    return EcaParams(kernel)


def init_cam(channels: int, seed: int = 0, zero: bool = False) -> CamParams:
    """CBAM's MLP with reduction ratio 16: ``max(channels // 16, 1)`` hidden units."""
    hidden = max(channels // 16, 1)
    if zero:
        return CamParams(
            np.zeros((hidden, channels)), np.zeros(hidden),
            np.zeros((channels, hidden)), np.zeros(channels),
        )
    rng = np.random.default_rng(seed)
    return CamParams(
        _uniform(rng, (hidden, channels)),
        _uniform(rng, hidden),
        _uniform(rng, (channels, hidden)),
        _uniform(rng, channels),
    )


def init_sam(seed: int = 0, zero: bool = False) -> SamParams:
    if zero:
        return SamParams(np.zeros((1, 2, 7, 7)), 0.0)
    rng = np.random.default_rng(seed)
    return SamParams(_uniform(rng, (1, 2, 7, 7)), float(rng.uniform(-0.5, 0.5)))


def init_sppf(cin: int, cmid: int, cout: int, seed: int = 0) -> SppfParams:
    rng = np.random.default_rng(seed)
    return SppfParams(
        _uniform(rng, (cmid, cin, 1, 1)),
        _uniform(rng, cmid),
        _uniform(rng, (cout, 4 * cmid, 1, 1)),
        _uniform(rng, cout),
    )


def init_pipeline(
    cin: int, channels: int, cmid: int, cout: int, seed: int = 0, zero_attention: bool = False
) -> PipelineParams:
    rng = np.random.default_rng(seed)
    return PipelineParams(
        conv_kernel=_uniform(rng, (channels, cin, 3, 3)),
        conv_bias=_uniform(rng, channels),
        eca=init_eca(channels, seed=seed + 1, zero=zero_attention),
        cam=init_cam(channels, seed=seed + 2, zero=zero_attention),
        sam=init_sam(seed=seed + 3, zero=zero_attention),
        sppf=init_sppf(channels, cmid, cout, seed=seed + 4),
    )
