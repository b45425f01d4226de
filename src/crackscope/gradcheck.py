"""Finite-difference verification of every hand-written gradient.

The checker projects an op's output onto a random upstream tensor, giving a
scalar whose exact gradient is the op's vector-Jacobian product.  Central
differences ``(f(x+eps) - f(x-eps)) / (2*eps)`` on each input element are
compared elementwise against the VJP; the reported error is
``|analytic - numeric| / max(1, |analytic|, |numeric|)``.

Max selections and relu are differentiable only away from their kinks, and
a probe that straddles one measures a blend of two slopes.  The checker
spots this from the evaluations it already makes: next to the central
difference it forms the one-sided slopes ``(f(x+eps) - f(x)) / eps`` and
``(f(x) - f(x-eps)) / eps``.  At a kink the pullback takes the slope of one
side, so its error is about half the gap between the two slopes, and the
gap is a step that does not shrink with ``eps``.  A failing probe whose
slope gap exceeds ``eps`` and whose error lies within a quarter of that gap
of half of it marks the report ``at_kink``.  Curvature parts the slopes by
about ``eps * f''`` but leaves a right pullback at their mean, and a wrong
pullback in a smooth region errs by far more than they part.  Only near an
inflection point, where ``f''`` is about ``eps * f''' / 3``, does curvature
take the kink's signature, and there the slopes part by only about
``eps**2 * f''' / 3``, below ``eps``; rounding parts them by less still at
any ``eps`` above about 1e-7.  So the mark does not depend on ``tol``, and
the pass bound does not depend on the mark.

``run_gradient_suite`` sweeps all ops, all attention blocks (input
gradients) and the three terms of the box-regression loss (each with its
own random upstream weight, like every op's output) over many seeded
random cases, and redraws a case that lands on a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import attention, boxes, ops
from .errors import CrackscopeError, NotDifferentiable

__all__ = ["GradCheckReport", "gradcheck_fn", "random_op_case", "run_gradient_suite"]


@dataclass(frozen=True)
class GradCheckReport:
    op: str
    max_rel_error: float
    per_input_errors: tuple[float, ...]
    tolerance: float
    passed: bool
    at_kink: bool = False  # a failing probe straddled a kink
    case: int | None = None  # index of the suite case reported
    shapes: tuple[tuple[int, ...], ...] = ()  # of the array inputs

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        line = f"{self.op}: max_rel_error={self.max_rel_error:.3e} tol={self.tolerance:.1e} {status}"
        if self.passed:
            return line
        if self.case is not None:
            line += f" case={self.case}"
        line += " shapes=" + ",".join("x".join(map(str, s)) for s in self.shapes)
        if self.at_kink:
            line += " (a probe straddles a kink; lower --eps)"
        return line


def gradcheck_fn(name, fn, inputs, eps=1e-5, tol=1e-4, seed=0) -> GradCheckReport:
    """Check the pullback of ``fn(*inputs) -> (out, pullback)`` against
    central differences of ``out``.

    ``pullback(upstream)`` must return one gradient per array input, in
    positional order.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    inputs = list(inputs)
    out, pullback = fn(*inputs)
    upstream = rng.standard_normal(np.shape(out))

    def project(result):
        return float(np.sum(upstream * result))

    centre = project(out)
    analytic = pullback(upstream)
    array_positions = [i for i, a in enumerate(inputs) if isinstance(a, np.ndarray)]
    if len(analytic) != len(array_positions):
        raise NotDifferentiable(
            f"{name}: got {len(analytic)} gradients for {len(array_positions)} array inputs"
        )
    shapes = tuple(inputs[pos].shape for pos in array_positions)

    errors = []
    at_kink = False
    for pos, grad in zip(array_positions, analytic):
        work = np.array(inputs[pos], dtype=np.float64)
        inputs[pos] = work
        hi = np.zeros_like(work)
        lo = np.zeros_like(work)
        flat = work.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi.ravel()[j] = project(fn(*inputs)[0])
            flat[j] = orig - eps
            lo.ravel()[j] = project(fn(*inputs)[0])
            flat[j] = orig
        numeric = (hi - lo) / (2.0 * eps)
        grad = np.asarray(grad, dtype=np.float64)
        scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        gap = np.abs(grad - numeric) / scale
        slope_gap = np.abs((hi - centre) - (centre - lo)) / eps / scale
        errors.append(float(gap.max()) if gap.size else 0.0)
        one_side = (slope_gap > eps) & (np.abs(gap - slope_gap / 2) < slope_gap / 4)
        at_kink = at_kink or bool(np.any((gap > tol) & one_side))

    worst = max(errors) if errors else 0.0
    return GradCheckReport(
        name, worst, tuple(errors), tol, worst <= tol, at_kink=at_kink, shapes=shapes
    )


# ---------------------------------------------------------------------------
# random case generation


def _rand_shape(rng):
    return (
        int(rng.integers(1, 3)),
        int(rng.integers(1, 4)),
        int(rng.integers(3, 6)),
        int(rng.integers(3, 6)),
    )


def random_op_case(op: str, rng) -> tuple:
    """Random small inputs exercising ``op``."""
    n, c, h, w = _rand_shape(rng)
    if op in ("global_avg_pool", "global_max_pool", "sigmoid", "relu", "channel_stats"):
        return (rng.uniform(-1, 1, (n, c, h, w)),)
    if op == "maxpool2d":
        return (rng.uniform(-1, 1, (n, c, h, w)), int(rng.choice([1, 3, 5])))
    if op == "conv1d_channels":
        k = int(rng.choice([1, 3, 5]))
        return (rng.uniform(-1, 1, (n, c, 1, 1)), rng.uniform(-1, 1, k))
    if op == "conv2d":
        cout = int(rng.integers(1, 4))
        kh = int(rng.choice([1, 3, 5]))
        kw = int(rng.choice([1, 3, 5]))
        return (
            rng.uniform(-1, 1, (n, c, h, w)),
            rng.uniform(-1, 1, (cout, c, kh, kw)),
            rng.uniform(-1, 1, cout),
        )
    if op == "broadcast_mul":
        if rng.integers(0, 2):
            weights = rng.uniform(-1, 1, (n, c, 1, 1))
        else:
            weights = rng.uniform(-1, 1, (n, 1, h, w))
        return (rng.uniform(-1, 1, (n, c, h, w)), weights)
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


def _random_block_case(block: str, rng) -> tuple:
    """Random small inputs ``(x, *params)`` for ``_BLOCKS[block]``."""
    seed = int(rng.integers(0, 2**31))
    n = int(rng.integers(1, 3))
    c = int(rng.integers(2, 5))
    h = int(rng.integers(3, 6))
    w = int(rng.integers(3, 6))
    if block == "pipeline":
        x = rng.uniform(-1, 1, (n, int(rng.integers(1, 3)), h, w))
        return x, attention.init_pipeline(x.shape[1], c, 2, 3, seed=seed)
    x = rng.uniform(-1, 1, (n, c, h, w))
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
        return x, attention.init_sppf(c, cmid, cout, seed=seed)
    raise NotDifferentiable(f"unknown block {block!r}")


def _ciou_case(rng) -> tuple:
    """The CIoU terms of a random predicted ``(cx, cy, w, h)`` against a
    random gt box, as a function of that vector, and the vector."""
    pred = np.concatenate((rng.uniform(-2, 2, 2), rng.uniform(0.5, 3, 2)))
    gt = boxes.BBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3, 2))
    return (lambda vec: boxes.ciou_vjp(boxes.BBox(*vec), gt)), (pred,)


# draws of one case before a report at a kink stands as drawn
_KINK_DRAWS = 10


def run_gradient_suite(seed=0, eps=1e-5, tol=1e-4, cases=100) -> list[GradCheckReport]:
    """Check every op, every block and the box-loss terms over ``cases`` random
    draws each; returns one aggregated report per subject (worst case).

    Each subject draws from its own stream, so ``cases=i+1`` replays every
    case up to ``i``.  A case whose report is ``at_kink`` is redrawn, up to
    ``_KINK_DRAWS`` draws in all."""
    if seed < 0:
        raise CrackscopeError(f"seed must be >= 0, got {seed}")
    if cases < 1:
        raise CrackscopeError(f"cases must be >= 1, got {cases}")
    if not 0 < eps < 0.5:
        raise CrackscopeError(
            f"eps must lie in (0, 0.5): ciou box sides start at 0.5 and a probe "
            f"subtracts eps, got {eps}"
        )
    if not (math.isfinite(tol) and tol >= 0):
        raise CrackscopeError(f"tol must be finite and >= 0, got {tol}")
    # (name, stream seed, draw: rng -> (fn, inputs))
    subjects = [
        (op, seed + 1000 * (i + 1), lambda rng, op=op: (ops.VJP_OPS[op], random_op_case(op, rng)))
        for i, op in enumerate(ops.VJP_OPS)
    ]
    subjects += [
        (block, seed + 7919, lambda rng, b=block: (_BLOCKS[b], _random_block_case(b, rng)))
        for block in _BLOCKS
    ]
    subjects.append(("ciou", seed + 104729, _ciou_case))
    reports = []
    for name, stream, draw in subjects:
        rng = np.random.default_rng(stream)
        worst = None
        for case in range(cases):
            for _ in range(_KINK_DRAWS):
                fn, inputs = draw(rng)
                r = gradcheck_fn(name, fn, inputs, eps, tol, seed=int(rng.integers(0, 2**31)))
                if not r.at_kink:
                    break
            if worst is None or r.max_rel_error > worst.max_rel_error:
                worst = replace(r, case=case)
        reports.append(worst)
    return reports
