"""Walk through the attention blocks on a small feature map.

Shows the zero-parameter identities (attention gates open halfway), the
permutation invariances that characterize channel vs spatial attention, the
pyramid-pooling equivalence, and a finite-difference check of one block's
hand-written pullback.

Run: ``python demos/attention_blocks.py``
"""

import numpy as np

from crackscope import attention, ops
from crackscope.gradcheck import gradcheck_fn

rng = np.random.default_rng(7)
x = rng.uniform(-1, 1, (1, 8, 10, 10))
print(f"feature map: shape {x.shape}, range [{x.min():.2f}, {x.max():.2f}]")

# --- zero-initialized parameters gate every channel/pixel by sigmoid(0) = 0.5
print("\n== zero-parameter identities ==")
eca0 = attention.init_eca(8, zero=True)
cam0 = attention.init_cam(8, zero=True)
sam0 = attention.init_sam(zero=True)
for name, out, factor in [
    ("eca", attention.eca_forward(x, eca0), 0.5),
    ("cam", attention.cam_forward(x, cam0), 0.5),
    ("sam", attention.sam_forward(x, sam0), 0.5),
    ("cbam", attention.cbam_forward(x, cam0, sam0), 0.25),
]:
    residual = np.abs(out - factor * x).max()
    print(f"  {name:4s} -> {factor} * x, residual {residual:.2e}")

# --- trained-looking (random) parameters: inspect the attention weights
print("\n== seeded random parameters ==")
eca = attention.init_eca(8, seed=1)
cam = attention.init_cam(8, seed=2)
sam = attention.init_sam(seed=3)
w_eca = attention.eca_weights(x, eca).ravel()
w_cam = attention.cam_weights(x, cam).ravel()
m_sam = attention.sam_map(x, sam)
print(f"  eca channel weights: {np.array2string(w_eca, precision=3)}")
print(f"  cam channel weights: {np.array2string(w_cam, precision=3)}")
print(f"  sam spatial map: shape {m_sam.shape}, mean {m_sam.mean():.3f}")

# --- what makes channel attention 'channel': spatial shuffles do not move it
print("\n== permutation invariances ==")
perm = rng.permutation(100)
shuffled = x.reshape(1, 8, 100)[:, :, perm].reshape(x.shape)
print(
    "  eca weights after spatial shuffle, max change:",
    f"{np.abs(attention.eca_weights(shuffled, eca) - w_eca.reshape(1, 8, 1, 1)).max():.2e}",
)
chan_perm = rng.permutation(8)
print(
    "  sam map after channel shuffle, max change:",
    f"{np.abs(attention.sam_map(x[:, chan_perm], sam) - m_sam).max():.2e}",
)

# --- sppf: three chained 5-pools see the same window as one 13-pool
print("\n== pyramid pooling equivalence ==")
y = rng.uniform(-1, 1, (1, 4, 12, 12))
chained = ops.maxpool2d(ops.maxpool2d(ops.maxpool2d(y, 5), 5), 5)
single = ops.maxpool2d(y, 13)
print(f"  maxpool5^3 == maxpool13 exactly: {np.array_equal(chained, single)}")
sppf = attention.init_sppf(8, 4, 8, seed=4)
print(f"  sppf output shape: {attention.sppf_forward(x, sppf).shape} (spatial preserved)")

# --- every block's input gradient is exact; verify one against differences
print("\n== gradient verification (cbam) ==")
small = rng.uniform(-1, 1, (1, 4, 5, 5))
cam4 = attention.init_cam(4, seed=5)
sam4 = attention.init_sam(seed=6)
report = gradcheck_fn("cbam", attention.cbam_vjp, (small, cam4, sam4))
print(f"  {report}")
