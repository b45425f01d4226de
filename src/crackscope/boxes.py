"""Axis-aligned box geometry: IoU, the complete-IoU regression loss with its
analytic gradient, and anchor-free decoding of per-cell predictions.

Boxes are center format ``(cx, cy, w, h)`` in continuous pixel coordinates.
The loss is ``1 - IoU + rho^2/c^2 + alpha*v`` where ``rho`` is the center
distance, ``c`` the enclosing-box diagonal, ``v`` the squared arctan
aspect-ratio gap scaled by ``4/pi^2``, and ``alpha = v / ((1 - IoU) + v)``.

The three terms have one body, ``ciou_vjp(pred, gt) -> (terms, pullback)``,
in the closure idiom of :mod:`crackscope.ops`; :func:`iou`,
:func:`ciou_loss` and :func:`ciou_grad` read it.  ``alpha`` is treated as a
constant during differentiation (the standard stability convention): it is
the weight of ``v`` in the upstream that :func:`ciou_grad` hands the
pullback.  The gradient at a subgradient kink (corner or boundary ties
between the two boxes) is one-sided and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBox, InvalidPrediction
from .ops import sigmoid

__all__ = [
    "BBox",
    "GridCellPred",
    "iou",
    "ciou_vjp",
    "ciou_loss",
    "ciou_grad",
    "decode_anchor_free",
]


@dataclass(frozen=True)
class BBox:
    """Center-format box with strictly positive width and height."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidBox(f"box has non-finite fields: {vals}")
        if self.w <= 0 or self.h <= 0:
            raise InvalidBox(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def corners(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1)."""
        return (
            self.cx - self.w / 2,
            self.cy - self.h / 2,
            self.cx + self.w / 2,
            self.cy + self.h / 2,
        )

    def shifted(self, dx: float, dy: float) -> "BBox":
        return BBox(self.cx + dx, self.cy + dy, self.w, self.h)

    def scaled(self, s: float) -> "BBox":
        return BBox(self.cx * s, self.cy * s, self.w * s, self.h * s)


@dataclass(frozen=True)
class GridCellPred:
    """Raw per-cell prediction ``(dx, dy, dw, dh)`` at a grid location."""

    gx: int
    gy: int
    stride: float
    raw: tuple[float, float, float, float]

    def __post_init__(self):
        if self.stride <= 0:
            raise InvalidPrediction(f"stride must be positive, got {self.stride}")
        if self.gx < 0 or self.gy < 0:
            raise InvalidPrediction(f"cell indices must be >= 0, got ({self.gx}, {self.gy})")
        if len(self.raw) != 4:
            raise InvalidPrediction(f"raw prediction must have 4 values, got {len(self.raw)}")


def ciou_vjp(pred: BBox, gt: BBox):
    """The complete-IoU terms of ``pred`` against ``gt``, ``[IoU, rho^2/c^2,
    v]`` as a float64 array, and their pullback.

    ``pullback(up)`` returns ``(grad,)``: the gradient of ``up @ terms``
    with respect to ``pred``'s ``(cx, cy, w, h)``.  The min/max selections
    compare strictly, so where a corner coordinate of ``pred`` ties with
    ``gt``'s they select ``gt``'s, and the gradient is one-sided.
    """
    px0, py0, px1, py1 = pred.corners
    gx0, gy0, gx1, gy1 = gt.corners
    iw = min(px1, gx1) - max(px0, gx0)
    ih = min(py1, gy1) - max(py0, gy0)
    overlapping = iw > 0 and ih > 0
    overlap = inter = union = 0.0
    if overlapping:
        inter = iw * ih
        # areas from the same corner values, so identical boxes give exactly 1.0
        union = (px1 - px0) * (py1 - py0) + (gx1 - gx0) * (gy1 - gy0) - inter
        overlap = inter / union
    dx = pred.cx - gt.cx
    dy = pred.cy - gt.cy
    rho2 = dx**2 + dy**2
    cw = max(px1, gx1) - min(px0, gx0)
    ch = max(py1, gy1) - min(py0, gy0)
    c2 = cw * cw + ch * ch
    gap = math.atan(gt.w / gt.h) - math.atan(pred.w / pred.h)
    v = (4.0 / math.pi**2) * gap**2

    def pullback(up):
        up_iou, up_center, up_v = (float(u) for u in up)
        # gradient with respect to pred's corners x0, x1, y0, y1 first
        d_x0 = d_x1 = d_y0 = d_y1 = 0.0
        if overlapping:
            d_inter = up_iou * (union + inter) / union**2
            d_area = -up_iou * inter / union**2
            d_x0 = -d_inter * ih * (px0 > gx0) - d_area * (py1 - py0)
            d_x1 = d_inter * ih * (px1 < gx1) + d_area * (py1 - py0)
            d_y0 = -d_inter * iw * (py0 > gy0) - d_area * (px1 - px0)
            d_y1 = d_inter * iw * (py1 < gy1) + d_area * (px1 - px0)
        d_c2 = -up_center * rho2 / c2**2
        d_x0 -= d_c2 * 2 * cw * (px0 < gx0)
        d_x1 += d_c2 * 2 * cw * (px1 > gx1)
        d_y0 -= d_c2 * 2 * ch * (py0 < gy0)
        d_y1 += d_c2 * 2 * ch * (py1 > gy1)
        d_v = up_v * (8.0 / math.pi**2) * gap / (pred.w**2 + pred.h**2)
        # x0 = cx - w/2 and x1 = cx + w/2, likewise y0 and y1 with cy and h
        grad = (
            d_x0 + d_x1 + up_center * 2 * dx / c2,
            d_y0 + d_y1 + up_center * 2 * dy / c2,
            (d_x1 - d_x0) / 2 - d_v * pred.h,
            (d_y1 - d_y0) / 2 + d_v * pred.w,
        )
        return (np.array(grad),)

    return np.array([overlap, rho2 / c2, v]), pullback


def _alpha(overlap: float, v: float) -> float:
    """The weight of ``v`` in the loss."""
    return 0.0 if v == 0.0 else v / ((1.0 - overlap) + v)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes."""
    return float(ciou_vjp(a, b)[0][0])


def ciou_loss(pred: BBox, gt: BBox) -> float:
    """Complete-IoU loss; zero iff the boxes coincide, symmetric, invariant
    under joint translation and joint uniform scaling."""
    overlap, center_term, v = ciou_vjp(pred, gt)[0].tolist()
    return (1.0 - overlap) + center_term + _alpha(overlap, v) * v


def ciou_grad(pred: BBox, gt: BBox) -> tuple[np.ndarray, bool]:
    """Gradient of :func:`ciou_loss` w.r.t. ``(cx, cy, w, h)`` of ``pred``.

    ``alpha`` is held constant: it weights ``v`` in the upstream
    ``[-1, 1, alpha]`` of :func:`ciou_vjp`'s pullback.  Returns ``(grad,
    at_kink)``; when the boxes touch or share a corner coordinate exactly,
    the max/min selections tie, the reported gradient is one-sided and
    ``at_kink`` is True.
    """
    terms, pullback = ciou_vjp(pred, gt)
    overlap, _, v = terms.tolist()
    (grad,) = pullback((-1.0, 1.0, _alpha(overlap, v)))
    px0, py0, px1, py1 = pred.corners
    gx0, gy0, gx1, gy1 = gt.corners
    at_kink = (
        px0 == gx0 or px1 == gx1 or py0 == gy0 or py1 == gy1
        or min(px1, gx1) == max(px0, gx0) or min(py1, gy1) == max(py0, gy0)
    )
    return grad, at_kink


def decode_anchor_free(p: GridCellPred) -> BBox:
    """Turn raw cell outputs into a box: sigmoid offsets place the center
    inside the cell, exponential terms size the box in stride units."""
    raw = np.asarray(p.raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise InvalidPrediction(f"raw prediction contains non-finite values: {p.raw}")
    dx, dy, dw, dh = raw
    off = sigmoid(np.array([dx, dy]))
    return BBox(
        cx=(p.gx + off[0]) * p.stride,
        cy=(p.gy + off[1]) * p.stride,
        w=math.exp(dw) * p.stride,
        h=math.exp(dh) * p.stride,
    )
