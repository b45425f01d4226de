"""Detection evaluation: confusion-count metrics, instance matching,
precision-recall curves and average precision.

Matching takes one image's predictions and ground truths as
:class:`crackscope.dataio.PolygonTable`s and reads their class, score and
corner columns.  It is greedy by descending score (ties keep input order):
each prediction claims the unmatched ground truth of highest IoU at or above
the threshold (the first such at IoU ties), and every ground truth is
claimed at most once.  Each image's ``len(preds) x len(gts)`` IoU matrix is
built once: box IoU from the corner columns with numpy, mask IoU from one
cropped raster per row (:func:`crackscope.dataio.polygon_to_crop`), counting
the intersection only where two crops overlap.  Average precision integrates
the all-points interpolated precision envelope ``p(r) = max over r' >= r
of p(r')`` over recall, built by one backward running max, so only the
order of scores matters, never their values, and the cost is linear in the
curve length.

Accuracy needs true negatives, which do not exist for instance detection;
it is therefore only computed from pixel-level confusion counts
(:func:`pixel_confusion`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import polygon_to_crop
from .errors import InvalidShape, OutOfRange, UndefinedMetric, UnsupportedMode

__all__ = [
    "ConfusionCounts",
    "PRPoint",
    "recall",
    "precision",
    "accuracy",
    "pixel_confusion",
    "match_instances",
    "pr_curve",
    "average_precision",
    "pr_curve_to_csv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """tp/fp/fn/tn tallies; tn is only meaningful for pixel-level counting."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise OutOfRange(f"confusion counts must be nonnegative: {self}")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


def recall(c: ConfusionCounts) -> float:
    """tp / (tp + fn)."""
    if c.tp + c.fn == 0:
        raise UndefinedMetric("recall undefined: no positives (tp + fn = 0)")
    return c.tp / (c.tp + c.fn)


def precision(c: ConfusionCounts) -> float:
    """tp / (tp + fp)."""
    if c.tp + c.fp == 0:
        raise UndefinedMetric("precision undefined: no predictions (tp + fp = 0)")
    return c.tp / (c.tp + c.fp)


def accuracy(c: ConfusionCounts) -> float:
    """(tp + tn) / (tp + tn + fp + fn)."""
    total = c.tp + c.tn + c.fp + c.fn
    if total == 0:
        raise UndefinedMetric("accuracy undefined: empty confusion counts")
    return (c.tp + c.tn) / total


def pixel_confusion(pred, gt) -> ConfusionCounts:
    """Per-pixel confusion counts of a predicted mask against ground truth."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise InvalidShape(f"mask extents differ: {pred.shape} vs {gt.shape}")
    tp = int(np.sum(pred & gt))
    fp = int(np.sum(pred & ~gt))
    fn = int(np.sum(~pred & gt))
    tn = int(np.sum(~pred & ~gt))
    return ConfusionCounts(tp, fp, fn, tn)


# ---------------------------------------------------------------------------
# instance matching


def _overlap(a, b):
    """Pairwise intersection extents of ``[n, 4]`` and ``[m, 4]`` corner arrays."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    return iw, ih


def _box_iou_matrix(a, b) -> np.ndarray:
    """Box IoU of every pair of ``[n, 4]`` and ``[m, 4]`` corner rows."""
    iw, ih = _overlap(a, b)
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    defined = (iw > 0) & (ih > 0) & (union > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=defined)


def _mask_iou_matrix(preds, gts, extent) -> np.ndarray:
    """Pixel IoU of every pair from one cropped raster per row; two empty
    rasters score 1.0."""
    width, height = extent
    crops = [[polygon_to_crop(r.polygon, width, height) for r in side] for side in (preds, gts)]

    def windows(side):  # crop windows as (col0, row0, col1, row1), and pixel counts
        corners = [(c0, r0, c0 + m.shape[1], r0 + m.shape[0]) for r0, c0, m in side]
        return np.array(corners), np.array([np.count_nonzero(m) for *_, m in side])

    (a, na), (b, nb) = windows(crops[0]), windows(crops[1])
    iou = np.where((na[:, None] + nb[None, :]) == 0, 1.0, 0.0)
    iw, ih = _overlap(a, b)
    for i, j in zip(*np.nonzero((iw > 0) & (ih > 0))):
        (ra, ca, ma), (rb, cb, mb) = crops[0][i], crops[1][j]
        x0, y0 = max(ca, cb), max(ra, rb)
        x1, y1 = x0 + iw[i, j], y0 + ih[i, j]
        inter = np.count_nonzero(ma[y0 - ra : y1 - ra, x0 - ca : x1 - ca]
                                 & mb[y0 - rb : y1 - rb, x0 - cb : x1 - cb])
        iou[i, j] = inter / (na[i] + nb[j] - inter)
    return iou


def match_instances(
    preds, gts, iou_thresh: float = 0.5, mode: str = "box", extent: tuple[int, int] = (256, 256)
):
    """Greedy single-match assignment for one image's prediction and ground
    truth tables.

    Returns ``(flags, fn)`` where ``flags[i]`` says whether row ``i`` of
    ``preds`` is a true positive and ``fn`` counts unmatched ground truths.
    Predictions are visited in descending score order (ties by input order);
    only same-class ground truths are eligible; ``extent`` is the (width,
    height) raster used for mask-mode IoU.  The IoU matrix of the image is
    built once; a pick is the first maximum of the prediction's row over the
    eligible ground truths.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise OutOfRange(f"iou threshold must be in (0, 1], got {iou_thresh}")
    if mode not in ("box", "mask"):
        raise UnsupportedMode(f"unknown matching mode {mode!r}")
    flags = [False] * len(preds)
    if not preds or not gts:
        return flags, len(gts)
    if mode == "box":
        iou = _box_iou_matrix(preds.corners, gts.corners)
    else:
        iou = _mask_iou_matrix(preds, gts, extent)
    # other-class and (below) taken ground truths score 0, which never reaches the threshold
    iou[preds.class_ids[:, None] != gts.class_ids[None, :]] = 0.0
    reachable = iou.max(axis=1) >= iou_thresh
    taken = 0
    for i in np.argsort(-preds.scores, kind="stable").tolist():
        if not reachable[i]:
            continue
        j = int(np.argmax(iou[i]))
        if iou[i, j] >= iou_thresh:
            flags[i] = True
            iou[:, j] = 0.0
            taken += 1
    return flags, len(gts) - taken


# ---------------------------------------------------------------------------
# PR curve and average precision


def pr_curve(flagged, total_gt: int) -> list[PRPoint]:
    """Precision/recall while sweeping the score threshold over every
    distinct score, highest first.

    ``flagged`` is the dataset-wide list of ``(score, is_tp)`` pairs.  With
    no predictions at all the curve is a single point with recall 0 and
    precision NaN (undefined, flagged as such).
    """
    if total_gt < 1:
        raise UndefinedMetric("pr curve undefined without ground truths")
    if not flagged:
        return [PRPoint(threshold=1.0, precision=math.nan, recall=0.0)]
    ordered = sorted(flagged, key=lambda pair: -pair[0])
    points = []
    tp = fp = 0
    for idx, (score, is_tp) in enumerate(ordered):
        if is_tp:
            tp += 1
        else:
            fp += 1
        last_of_threshold = idx + 1 == len(ordered) or ordered[idx + 1][0] != score
        if last_of_threshold:
            points.append(PRPoint(float(score), tp / (tp + fp), tp / total_gt))
    return points


def average_precision(points) -> float:
    """Area under the interpolated precision envelope over recall.

    One backward pass builds the envelope (a running max that skips NaN
    precisions); the area is then summed in curve order.
    """
    points = list(points)
    if not points:
        raise UndefinedMetric("average precision undefined for an empty curve")
    envelope = []
    running = None
    for point in reversed(points):
        if not math.isnan(point.precision) and (running is None or point.precision >= running):
            running = point.precision
        envelope.append(running)
    envelope.reverse()
    area = 0.0
    prev_recall = 0.0
    for point, level in zip(points, envelope):
        if point.recall > prev_recall:
            if level is None:
                raise UndefinedMetric(
                    f"average precision undefined: no defined precision at recall >= {point.recall}"
                )
            area += (point.recall - prev_recall) * level
            prev_recall = point.recall
    return area


def pr_curve_to_csv(points) -> str:
    """CSV export: header plus one ``threshold,precision,recall`` row per
    distinct threshold, six decimal places."""
    lines = ["threshold,precision,recall"]
    for p in points:
        lines.append(f"{p.threshold:.6f},{p.precision:.6f},{p.recall:.6f}")
    return "\n".join(lines) + "\n"
