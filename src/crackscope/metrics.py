"""Detection evaluation: confusion-count metrics, instance matching,
precision-recall curves and average precision.

Matching takes a run's predictions and ground truths as two
:class:`crackscope.dataio.PolygonTable`s with each image's row bounds
(:func:`match_instances` is the one-image case) and reads their class,
score and corner columns.  It is greedy by descending score within an image
(ties keep input order): each prediction claims the unmatched ground truth
of highest IoU at or above the threshold (the first such at IoU ties), and
every ground truth is claimed at most once.  Each pair's IoU is computed
once per run: box IoU from the corner columns in blocks, mask IoU from crops
rasterized once per group of images (:func:`crackscope.dataio._group_crops`)
where two of one class overlap.  Step ``k`` settles, in every image at once,
its ``k``-th prediction with a pair at or above the threshold.

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


_PAIR_BLOCK = 1 << 13  # box pairs whose IoU is computed at once: their temporaries take about 150 B a pair


def _box_pair_iou(a, b) -> np.ndarray:
    """Box IoU of each column of ``a`` with the same column of ``b``, ``[4, n]`` arrays of (x0, y0, x1, y1)."""
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
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
    match, score 0 and count no intersection."""

    def windows(side):  # crop windows as (col0, row0, col1, row1), and pixel counts
        corners = [(c0, r0, c0 + m.shape[1], r0 + m.shape[0]) for r0, c0, m in side]
        return np.array(corners).T, np.array([np.count_nonzero(m) for *_, m in side])

    (a, na), (b, nb) = windows(crops[0]), windows(crops[1])
    iou = np.where(((na[:, None] + nb[None, :]) == 0) & ~other, 1.0, 0.0)
    a, b = a[:, :, None], b[:, None]
    overlap = (np.minimum(a[2], b[2]) > np.maximum(a[0], b[0])) & (np.minimum(a[3], b[3]) > np.maximum(a[1], b[1]))
    for i, j in zip(*np.nonzero(overlap & ~other)):
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
    height) raster used for mask-mode IoU.  Each pair's IoU is computed
    once; a pick is the first maximum of the prediction's IoUs over the
    eligible ground truths.  The one-image case of the run's matching body.
    """
    return _match_images(preds, gts, ([0, len(preds)], [0, len(gts)]), iou_thresh, mode, extent)


def _match_images(preds, gts, bounds, iou_thresh, mode, extent):
    """:func:`match_instances` of every image of a run, image ``k`` holding rows
    ``bounds[0][k]:bounds[0][k + 1]`` of ``preds`` and ``bounds[1][k]:..`` of ``gts``."""
    if not 0.0 < iou_thresh <= 1.0:
        raise OutOfRange(f"iou threshold must be in (0, 1], got {iou_thresh}")
    if mode not in ("box", "mask"):
        raise UnsupportedMode(f"unknown matching mode {mode!r}")
    pred_at, gt_at = (np.asarray(b, dtype=np.intp) for b in bounds)
    image = np.repeat(np.arange(len(pred_at) - 1), np.diff(pred_at))  # each prediction's image
    start = np.append(0, np.cumsum(np.diff(gt_at)[image]))  # prediction i's pairs are start[i]:start[i + 1]
    shift = gt_at[:-1][image] - start[:-1]  # and its pair t is ground truth t + shift[i]
    kept = [(np.empty(0, dtype=np.intp), np.empty(0))]  # the pairs at or above the threshold

    def keep(lo, iou):  # pairs lo, lo + 1, ...; other-class pairs score 0, below any threshold
        at = np.flatnonzero(iou >= iou_thresh)
        kept.append((at + lo, iou[at]))

    if mode == "box":  # in blocks of pairs, each prediction's corners repeated over its pairs
        (pc, pk), (gc, gk) = ((np.ascontiguousarray(t.corners.T), t.class_ids) for t in (preds, gts))
        for lo in range(0, start[-1], _PAIR_BLOCK):
            hi = min(lo + _PAIR_BLOCK, start[-1])
            i0, i1 = np.searchsorted(start, [lo, hi - 1], side="right") - 1  # the first and last prediction
            count = np.diff(np.clip(start[i0 : i1 + 2], lo, hi))
            j = np.arange(lo, hi) + np.repeat(shift[i0 : i1 + 1], count)
            pairs = _box_pair_iou(np.repeat(pc[:, i0 : i1 + 1], count, axis=1), np.take(gc, j, axis=1))
            keep(lo, np.where(np.repeat(pk[i0 : i1 + 1], count) == gk[j], pairs, 0.0))
    else:
        for images, crops in dataio._group_crops((preds, gts), bounds, *extent):
            for k in images:
                (a, b), (c, d) = pred_at[k : k + 2], gt_at[k : k + 2]
                if a < b and c < d:
                    other = preds.class_ids[a:b, None] != gts.class_ids[None, c:d]
                    keep(start[a], _mask_iou_matrix(other, crops[k - images.start]).ravel())
            del crops  # before the next group is rasterized
    # a pick below the threshold is no match, so a candidate's segment is its kept pairs alone
    pair, iou = map(np.concatenate, zip(*kept))
    owner = np.searchsorted(start, pair, side="right") - 1
    first = np.flatnonzero(np.diff(owner, prepend=-1))  # each candidate's first pair
    cand, n, img = owner[first], np.diff(first, append=len(pair)), image[owner[first]]
    # each image's candidates by descending score (ties in input order), then by ordinal in the image
    ordinal = np.arange(len(img)) - np.searchsorted(img, img)  # img is sorted, as the predictions are
    rank = np.lexsort((-preds.scores[cand], img))
    cand, first, n = (v[rank[np.argsort(ordinal, kind="stable")]] for v in (cand, first, n))
    head = np.append(0, np.cumsum(n))  # candidate c's segment is head[c]:head[c + 1]
    t = np.repeat(first - head[:-1], n) + np.arange(len(pair))  # the segments, step after step
    gt, iou = (pair + shift[owner])[t], iou[t]
    flags, taken = np.zeros(len(preds), dtype=bool), np.zeros(len(gts), dtype=bool)
    steps = np.append(0, np.cumsum(np.bincount(ordinal))).tolist()
    for c0, c1 in zip(steps, steps[1:]):
        p0, p1 = head[c0], head[c1]
        best, pick = _first_max(np.where(taken[gt[p0:p1]], 0.0, iou[p0:p1]), head[c0:c1] - p0, n[c0:c1])
        hit = best >= iou_thresh
        taken[gt[p0 + pick[hit]]] = True
        flags[cand[c0:c1][hit]] = True
    return flags, len(gts) - int(flags.sum())


def _first_max(v, heads, lengths):
    """Each segment's maximum and its first index in ``v``; segment k is lengths[k] values from heads[k]."""
    best = np.maximum.reduceat(v, heads)
    hits = (v == best.repeat(lengths)).nonzero()[0]  # methods: a step is a few calls on short arrays
    return best, hits[hits.searchsorted(heads)]


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
