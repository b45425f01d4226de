"""Detection evaluation: confusion-count metrics, instance matching,
precision-recall curves and average precision.

Matching takes a run's predictions and ground truths as two
:class:`crackscope.dataio.PolygonTable`s with each image's row bounds
(:func:`match_instances` is the one-image case) and reads their class,
score and corner columns.  It is greedy by descending score within an image
(ties keep input order): each prediction claims the unmatched ground truth
of highest IoU at or above the threshold (the first such at IoU ties), and
every ground truth is claimed at most once.  Each image's ``len(preds) x
len(gts)`` IoU matrix is built once: box IoU from the corner columns with
numpy, mask IoU from one cropped raster per row, each side rasterized once
per group of images (:func:`crackscope.dataio._group_crops`), counting the
intersection only where two crops of the same class overlap.

The PR curve, average precision and its CSV are column arithmetic over the
dataset's score and true-positive flag arrays: one stable sort by score, a
cumulative sum of the flags, and one point at the end of each run of equal
scores.  Average precision integrates the all-points interpolated precision
envelope ``p(r) = max over r' >= r of p(r')`` over recall, built by one
backward running max, so only the order of scores matters, never their
values, and the cost is linear in the curve length.

Accuracy needs true negatives, which do not exist for instance detection;
it is therefore only computed from pixel-level confusion counts
(:func:`pixel_confusion`).
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import InvalidShape, OutOfRange, UndefinedMetric, UnsupportedMode

__all__ = [
    "ConfusionCounts",
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
    tp = int(np.count_nonzero(pred & gt))
    fp, fn = int(np.count_nonzero(pred)) - tp, int(np.count_nonzero(gt)) - tp
    return ConfusionCounts(tp, fp, fn, pred.size - tp - fp - fn)


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


def _crop_intersection(a, b) -> int:
    """Pixels set in both ``(row0, col0, crop)`` rasters."""
    (ra, ca, ma), (rb, cb, mb) = a, b
    y0, x0 = max(ra, rb), max(ca, cb)
    y1, x1 = min(ra + ma.shape[0], rb + mb.shape[0]), min(ca + ma.shape[1], cb + mb.shape[1])
    return np.count_nonzero(ma[y0 - ra : y1 - ra, x0 - ca : x1 - ca] & mb[y0 - rb : y1 - rb, x0 - cb : x1 - cb])


def _mask_iou_matrix(other, crops) -> np.ndarray:
    """Pixel IoU of every pair from the rows' ``crops``, one list per table;
    two empty rasters score 1.0.  Pairs of ``other`` classes, which never
    match, count no intersection."""

    def windows(side):  # crop windows as (col0, row0, col1, row1), and pixel counts
        corners = [(c0, r0, c0 + m.shape[1], r0 + m.shape[0]) for r0, c0, m in side]
        return np.array(corners), np.array([np.count_nonzero(m) for *_, m in side])

    (a, na), (b, nb) = windows(crops[0]), windows(crops[1])
    iou = np.where((na[:, None] + nb[None, :]) == 0, 1.0, 0.0)
    iw, ih = _overlap(a, b)
    for i, j in zip(*np.nonzero((iw > 0) & (ih > 0) & ~other)):
        inter = _crop_intersection(crops[0][i], crops[1][j])
        iou[i, j] = inter / (na[i] + nb[j] - inter)
    return iou


def match_instances(
    preds, gts, iou_thresh: float = 0.5, mode: str = "box", extent: tuple[int, int] = (256, 256)
):
    """Greedy single-match assignment for one image's prediction and ground
    truth tables.

    Returns ``(flags, fn)``: the bool array ``flags`` says which rows of
    ``preds`` are true positives and ``fn`` counts unmatched ground truths.
    Predictions are visited in descending score order (ties by input order);
    only same-class ground truths are eligible; ``extent`` is the (width,
    height) raster used for mask-mode IoU.  The IoU matrix of the image is
    built once; a pick is the first maximum of the prediction's row over the
    eligible ground truths.
    """
    return _match_images(preds, gts, ([0, len(preds)], [0, len(gts)]), iou_thresh, mode, extent)


def _match_images(preds, gts, bounds, iou_thresh, mode, extent):
    """:func:`match_instances` of every image of a run, image ``k`` holding rows
    ``bounds[0][k]:bounds[0][k + 1]`` of ``preds`` and ``bounds[1][k]:..`` of ``gts``."""
    if not 0.0 < iou_thresh <= 1.0:
        raise OutOfRange(f"iou threshold must be in (0, 1], got {iou_thresh}")
    if mode not in ("box", "mask"):
        raise UnsupportedMode(f"unknown matching mode {mode!r}")
    flags = np.zeros(len(preds), dtype=bool)
    groups = ([(range(len(bounds[0]) - 1), None)] if mode == "box"
              else dataio._group_crops((preds, gts), bounds, *extent))
    for images, crops in groups:
        for k in images:
            (a, b), (c, d) = bounds[0][k : k + 2], bounds[1][k : k + 2]
            if a == b or c == d:
                continue
            other = preds.class_ids[a:b, None] != gts.class_ids[None, c:d]
            iou = (_box_iou_matrix(preds.corners[a:b], gts.corners[c:d]) if crops is None
                   else _mask_iou_matrix(other, crops[k - images.start]))
            # other-class and (below) taken ground truths score 0, which never reaches the threshold
            iou[other] = 0.0
            order = np.argsort(-preds.scores[a:b], kind="stable")
            for i in order[iou.max(axis=1)[order] >= iou_thresh].tolist():  # those that can reach it
                j = int(iou[i].argmax())
                if iou[i, j] >= iou_thresh:
                    flags[a + i] = True
                    iou[:, j] = 0.0
        del crops  # before the next group is rasterized
    return flags, len(gts) - int(flags.sum())


# ---------------------------------------------------------------------------
# PR curve and average precision


def pr_curve(scores, flags, total_gt: int):
    """Precision/recall while sweeping the score threshold over every
    distinct score, highest first, as ``(thresholds, precision, recall)``
    float arrays.

    ``scores`` and ``flags`` are the dataset-wide detection scores and
    true-positive flags.  One stable sort by descending score and a running
    count of true positives give every prefix; a point is the last detection
    of each run of equal scores.  With no predictions at all the curve is a
    single point with recall 0 and precision NaN (undefined, flagged as
    such).
    """
    if total_gt < 1:
        raise UndefinedMetric("pr curve undefined without ground truths")
    scores = np.asarray(scores, dtype=np.float64)
    if not len(scores):
        return np.array([1.0]), np.array([math.nan]), np.array([0.0])
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    tp = np.cumsum(np.asarray(flags, dtype=bool)[order])
    last = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    return ordered[last], tp[last] / (last + 1), tp[last] / total_gt


def average_precision(precisions, recalls) -> float:
    """Area under the interpolated precision envelope over recall.

    The envelope is a backward running max that skips NaN precisions; each
    rise of the recall above its running max adds the rise times the
    envelope there, summed in curve order.
    """
    precisions = np.asarray(precisions, dtype=np.float64)
    recalls = np.asarray(recalls, dtype=np.float64)
    if not len(recalls):
        raise UndefinedMetric("average precision undefined for an empty curve")
    envelope = np.fmax.accumulate(precisions[::-1])[::-1]
    step = recalls - np.fmax.accumulate(np.append(0.0, recalls))[:-1]
    rises = step > 0
    undefined = rises & np.isnan(envelope)
    if undefined.any():
        raise UndefinedMetric(
            "average precision undefined: no defined precision at recall >= "
            f"{float(recalls[undefined.argmax()])}"
        )
    # accumulate from 0.0, not sum: np.sum adds pairwise, which changes the last bits
    return float(np.cumsum(np.append(0.0, step[rises] * envelope[rises]))[-1])


def pr_curve_to_csv(thresholds, precisions, recalls) -> str:
    """CSV export: header plus one ``threshold,precision,recall`` row per
    distinct threshold, six decimal places, all rows from one ``%`` format
    of the columns' Python values (NaN prints as ``nan``)."""
    columns = [np.asarray(c).tolist() for c in (thresholds, precisions, recalls)]
    n = min(map(len, columns))
    return "threshold,precision,recall\n" + ("%.6f,%.6f,%.6f\n" * n) % tuple(chain.from_iterable(zip(*columns)))
