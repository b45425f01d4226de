"""Finite-difference verification of every hand-written gradient.

The checker projects an op's output onto a random upstream tensor, giving a
scalar whose exact gradient is the op's vector-Jacobian product.  Central
differences ``(f(x+eps) - f(x-eps)) / (2*eps)`` on each input element are
compared elementwise against the VJP; the reported error is
``|analytic - numeric| / max(1, |analytic|, |numeric|)``.

Inputs for max-based ops (and relu) are drawn from a shuffled evenly spaced
grid so no two values lie within the probe distance of each other, nor of
relu's kink at 0: the winning element never changes under the perturbation,
which is exactly the tie-free regime where the subgradient convention is
differentiable.  sppf pools the outputs of a 1x1 convolution, which can land
close together however spaced its inputs are, so its cases are redrawn until
those outputs are spaced too.

``run_gradient_suite`` sweeps all ops, all attention blocks (input
gradients) and the box-regression loss over many seeded random cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attention, boxes, ops
from .errors import CrackscopeError, NotDifferentiable

__all__ = ["GradCheckReport", "gradcheck", "gradcheck_fn", "random_op_case", "run_gradient_suite"]


@dataclass(frozen=True)
class GradCheckReport:
    op: str
    max_rel_error: float
    per_input_errors: tuple[float, ...]
    tolerance: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.op}: max_rel_error={self.max_rel_error:.3e} tol={self.tolerance:.1e} {status}"


def gradcheck_fn(name, fn, inputs, eps=1e-5, tol=1e-4, seed=0) -> GradCheckReport:
    """Check the pullback of ``fn(*inputs) -> (out, pullback)`` against
    central differences of ``out``.

    ``pullback(upstream)`` must return one gradient per array input, in
    positional order.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    inputs = list(inputs)
    out, pullback = fn(*inputs)
    multi = isinstance(out, tuple)
    if multi:
        upstream = tuple(rng.standard_normal(np.shape(o)) for o in out)
    else:
        upstream = rng.standard_normal(np.shape(out))

    def objective():
        result = fn(*inputs)[0]
        if multi:
            return sum(float(np.sum(u * r)) for u, r in zip(upstream, result))
        return float(np.sum(upstream * result))

    analytic = pullback(upstream)
    array_positions = [i for i, a in enumerate(inputs) if isinstance(a, np.ndarray)]
    if len(analytic) != len(array_positions):
        raise NotDifferentiable(
            f"{name}: got {len(analytic)} gradients for {len(array_positions)} array inputs"
        )

    errors = []
    for pos, grad in zip(array_positions, analytic):
        work = np.array(inputs[pos], dtype=np.float64)
        inputs[pos] = work
        numeric = np.zeros_like(work)
        flat = work.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = objective()
            flat[j] = orig - eps
            lo = objective()
            flat[j] = orig
            numeric.ravel()[j] = (hi - lo) / (2.0 * eps)
        grad = np.asarray(grad, dtype=np.float64)
        scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        gap = np.abs(grad - numeric) / scale
        errors.append(float(gap.max()) if gap.size else 0.0)

    worst = max(errors) if errors else 0.0
    return GradCheckReport(name, worst, tuple(errors), tol, worst <= tol)


def gradcheck(op: str, inputs, eps=1e-5, tol=1e-4, seed=0) -> GradCheckReport:
    """Finite-difference check of one registered op at the given inputs."""
    try:
        fn = ops.VJP_OPS[op]
    except KeyError:
        raise NotDifferentiable(f"no vector-Jacobian product registered for {op!r}") from None
    return gradcheck_fn(op, fn, inputs, eps=eps, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# random case generation


def _spaced(rng, shape, gap=0.02):
    """Shuffled evenly spaced values: pairwise separation ``gap`` and at least
    ``gap/4`` away from 0, so max selections and relu's kink are stable
    under +-eps probes."""
    size = int(np.prod(shape))
    # odd multiples of gap/2, then one shared jitter of at most gap/4
    values = (np.arange(size, dtype=np.float64) - size // 2 + 0.5) * gap
    values = values + rng.uniform(-gap / 4.0, gap / 4.0)
    return rng.permutation(values).reshape(shape)


def _rand_shape(rng):
    return (
        int(rng.integers(1, 3)),
        int(rng.integers(1, 4)),
        int(rng.integers(3, 6)),
        int(rng.integers(3, 6)),
    )


def random_op_case(op: str, rng) -> tuple:
    """Random small inputs exercising ``op``; tie-free where max ops need it."""
    n, c, h, w = _rand_shape(rng)
    if op in ("global_avg_pool", "sigmoid"):
        return (rng.uniform(-1, 1, (n, c, h, w)),)
    if op in ("global_max_pool", "relu"):
        return (_spaced(rng, (n, c, h, w)),)
    if op == "channel_stats":
        return (_spaced(rng, (n, c, h, w)),)
    if op == "maxpool2d":
        k = int(rng.integers(1, min(h, w) + 1))
        pad = int(rng.integers(0, k // 2 + 1))
        stride = int(rng.integers(1, 3))
        return (_spaced(rng, (n, c, h, w)), k, stride, pad)
    if op == "conv1d_channels":
        k = int(rng.choice([1, 3, 5]))
        return (rng.uniform(-1, 1, (n, c, 1, 1)), rng.uniform(-1, 1, k))
    if op == "conv2d":
        cout = int(rng.integers(1, 4))
        kh = int(rng.choice([1, 3]))
        kw = int(rng.choice([1, 3]))
        pad = int(rng.integers(0, 2))
        return (
            rng.uniform(-1, 1, (n, c, h, w)),
            rng.uniform(-1, 1, (cout, c, kh, kw)),
            rng.uniform(-1, 1, cout),
            pad,
        )
    if op == "broadcast_mul":
        if rng.integers(0, 2):
            weights = rng.uniform(-1, 1, (n, c, 1, 1))
        else:
            weights = rng.uniform(-1, 1, (n, 1, h, w))
        return (rng.uniform(-1, 1, (n, c, h, w)), weights)
    if op == "concat_channels":
        cb = int(rng.integers(0, 4))
        return (rng.uniform(-1, 1, (n, c, h, w)), rng.uniform(-1, 1, (n, cb, h, w)))
    raise NotDifferentiable(f"no random case builder for {op!r}")


# blocks checked through their input gradients; params drawn per case
_BLOCKS = {
    "eca": attention.eca_vjp,
    "cam": attention.cam_vjp,
    "sam": attention.sam_vjp,
    "cbam": attention.cbam_vjp,
    "sppf": attention.sppf_vjp,
    "pipeline": attention.pipeline_vjp,
}


def _pools_tie_free(x, p, eps) -> bool:
    """Whether every ``[n, m]`` plane of sppf's 1x1 reduce output keeps its
    values pairwise more than ``2 * eps * sum_c |reduce_kernel[m, c]|`` apart.

    The pools pick among exactly these values, and a probe of one input
    element moves one value of each plane by at most ``eps * max_c |k[m, c]|``,
    so no probe can reorder a plane and cross a max kink."""
    reduced = ops.conv2d(x, p.reduce_kernel, p.reduce_bias)
    n, m = reduced.shape[:2]
    planes = np.sort(reduced.reshape(n, m, -1), axis=2)
    bound = 2.0 * eps * np.abs(p.reduce_kernel).sum(axis=(1, 2, 3))
    return bool(np.all(np.diff(planes, axis=2) > bound[:, None]))


# the inputs are 0.02 apart, so an eps near 0.01 leaves no tie-free sppf
# case; at eps=1e-3 the suite needs at most a few dozen draws
_SPPF_DRAWS = 1000


def _random_block_case(block: str, rng, eps=1e-5) -> tuple:
    """Random small inputs ``(x, *params)`` for ``_BLOCKS[block]``; sppf cases
    are redrawn until ``_pools_tie_free`` holds at probe size ``eps``, and
    raise :class:`CrackscopeError` after ``_SPPF_DRAWS`` failed draws."""
    seed = int(rng.integers(0, 2**31))
    n = int(rng.integers(1, 3))
    c = int(rng.integers(2, 5))
    h = int(rng.integers(3, 6))
    w = int(rng.integers(3, 6))
    x = _spaced(rng, (n, c, h, w))
    if block == "eca":
        return x, attention.init_eca(c, seed=seed)
    if block == "cam":
        return x, attention.init_cam(c, seed=seed)
    if block == "sam":
        return x, attention.init_sam(seed=seed)
    if block == "cbam":
        return x, attention.init_cam(c, seed=seed), attention.init_sam(seed=seed + 1)
    if block == "sppf":
        cmid = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 4))
        for _ in range(_SPPF_DRAWS):
            p = attention.init_sppf(c, cmid, cout, seed=seed)
            if _pools_tie_free(x, p, eps):
                return x, p
            seed = int(rng.integers(0, 2**31))
            x = _spaced(rng, (n, c, h, w))
        raise CrackscopeError(
            f"sppf: no case of shape {(n, c, h, w)} in {_SPPF_DRAWS} draws keeps its "
            f"pooled values apart at eps={eps:g}; use a smaller eps"
        )
    if block == "pipeline":
        cin = int(rng.integers(1, 3))
        x = _spaced(rng, (n, cin, h, w))
        return x, attention.init_pipeline(cin, c, 2, 3, seed=seed)
    raise NotDifferentiable(f"unknown block {block!r}")


def _check_block(block: str, rng, eps, tol) -> GradCheckReport:
    inputs = _random_block_case(block, rng, eps)
    return gradcheck_fn(
        block, _BLOCKS[block], inputs, eps=eps, tol=tol, seed=int(rng.integers(0, 2**31))
    )


def _check_ciou(rng, eps, tol) -> GradCheckReport:
    while True:
        pred = boxes.BBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3, 2))
        gt = boxes.BBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3, 2))
        analytic, at_kink = boxes.ciou_grad(pred, gt)
        if not at_kink:
            break
    # the analytic gradient holds alpha constant; the probe objective must too
    alpha = boxes.ciou_terms(pred, gt)[3]

    def loss_vjp(vec):
        overlap, center_term, v, _ = boxes.ciou_terms(boxes.BBox(*vec), gt)
        loss = np.array([(1.0 - overlap) + center_term + alpha * v])
        # the checker takes the pullback only at vec == pred
        return loss, lambda up: (analytic * up[0],)

    vec = np.array([pred.cx, pred.cy, pred.w, pred.h])
    return gradcheck_fn(
        "ciou",
        loss_vjp,
        (vec,),
        eps=eps,
        tol=tol,
        seed=int(rng.integers(0, 2**31)),
    )


def run_gradient_suite(seed=0, eps=1e-5, tol=1e-4, cases=100) -> list[GradCheckReport]:
    """Check every op, every block and the box loss over ``cases`` random
    draws each; returns one aggregated report per subject (worst case)."""
    if seed < 0:
        raise CrackscopeError(f"seed must be >= 0, got {seed}")
    if cases < 1:
        raise CrackscopeError(f"cases must be >= 1, got {cases}")
    if not (math.isfinite(eps) and eps > 0):
        raise CrackscopeError(f"eps must be finite and > 0, got {eps}")
    if not (math.isfinite(tol) and tol >= 0):
        raise CrackscopeError(f"tol must be finite and >= 0, got {tol}")
    reports = []
    for index, op in enumerate(ops.VJP_OPS):
        rng = np.random.default_rng(seed + 1000 * (index + 1))
        worst = None
        for i in range(cases):
            r = gradcheck(op, random_op_case(op, rng), eps=eps, tol=tol, seed=seed + i)
            if worst is None or r.max_rel_error > worst.max_rel_error:
                worst = r
        reports.append(worst)
    for block in _BLOCKS:
        rng = np.random.default_rng(seed + 7919)
        worst = None
        for _ in range(cases):
            r = _check_block(block, rng, eps, tol)
            if worst is None or r.max_rel_error > worst.max_rel_error:
                worst = r
        reports.append(worst)
    rng = np.random.default_rng(seed + 104729)
    worst = None
    for _ in range(cases):
        r = _check_ciou(rng, eps, tol)
        if worst is None or r.max_rel_error > worst.max_rel_error:
            worst = r
    reports.append(worst)
    return reports
