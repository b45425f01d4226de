"""Independent expectations for the benchmark's outputs.

None of this calls crackscope: it recomputes what each op must print from
the generated corpus, so a wrong output is caught on every seed, not only
on the seed whose golden digests are committed.

* ``eval`` (box, mask and pixel modes): the metrics JSON and PR CSV are
  rebuilt byte for byte.  Rasterization evaluates the documented even-odd
  pixel-centre rule directly (a pixel is inside iff an odd number of edge
  crossings of its row lie at or left of its centre), with the crossing
  abscissa computed by the same float expression the scanline fill uses.
* ``analyze``: report invariants that hold for any correct thinning --
  component count, id order and areas from an independent 8-connected
  labeling, widths equal to ``2 * edt - 1`` at their reported locations,
  both locations inside the reported component.
* ``blocks``: a central finite difference of the pipeline output along a
  random input direction agrees with the reported input gradient.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import ndimage

# ---------------------------------------------------------------------------
# eval


def rasterize(polygon: np.ndarray, width: int, height: int) -> np.ndarray:
    pts = polygon * np.array([width, height])
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    cy = (np.arange(height) + 0.5)[:, None]
    hits = ((y1 <= cy) & (cy < y2)) | ((y2 <= cy) & (cy < y1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (cy - y1) / (y2 - y1)
        crossing = x1 + t * (x2 - x1)
    crossing = np.where(hits, crossing, np.inf)  # [H, E]
    cx = np.arange(width) + 0.5
    count = (crossing[:, None, :] <= cx[None, :, None]).sum(axis=2)
    return count % 2 == 1


def _box_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def _corners(poly):
    xs, ys = poly[:, 0], poly[:, 1]
    return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


def _mask_iou(a, b) -> float:
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def _greedy(image, iou_of, thresh):
    """Per-image greedy matching: flags per prediction, unmatched GT count,
    number of (pred, gt) IoU evaluations."""
    preds, gts = image.preds, image.gt
    order = sorted(range(len(preds)), key=lambda i: -preds[i][1])
    taken = [False] * len(gts)
    flags = [False] * len(preds)
    evaluated = 0
    for i in order:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            if taken[j] or gt[0] != preds[i][0]:
                continue
            evaluated += 1
            value = iou_of(i, j)
            if value > best_iou:
                best_iou, best_j = value, j
        if best_j >= 0 and best_iou >= thresh:
            taken[best_j] = True
            flags[i] = True
    return flags, taken.count(False), evaluated


def _json_doc(summary: dict) -> str:
    clean = {
        k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in summary.items()
    }
    return json.dumps(clean, indent=2) + "\n"


def _ratio(num, den):
    return num / den if den else None


def instance_outputs(images, mode: str, thresh: float = 0.5, raster: int = 256):
    """Expected ``(metrics_json, pr_csv, iou_evaluations)`` of
    ``eval --match <mode> --pr-out``."""
    flagged, fn_total, evaluated = [], 0, 0
    for image in images:
        if mode == "box":
            pc = [_corners(p) for _, _, p in image.preds]
            gc = [_corners(p) for _, p in image.gt]
            iou_of = lambda i, j, pc=pc, gc=gc: _box_iou(pc[i], gc[j])
        else:
            pm = [rasterize(p, raster, raster) for _, _, p in image.preds]
            gm = [rasterize(p, raster, raster) for _, p in image.gt]
            iou_of = lambda i, j, pm=pm, gm=gm: _mask_iou(pm[i], gm[j])
        flags, fn, count = _greedy(image, iou_of, thresh)
        flagged.extend((p[1], f) for p, f in zip(image.preds, flags))
        fn_total += fn
        evaluated += count
    tp = sum(1 for _, f in flagged if f)
    fp = len(flagged) - tp
    total_gt = sum(len(image.gt) for image in images)

    ordered = sorted(flagged, key=lambda pair: -pair[0])
    points = []  # (threshold, precision, recall)
    ctp = cfp = 0
    for idx, (score, is_tp) in enumerate(ordered):
        ctp += is_tp
        cfp += not is_tp
        if idx + 1 == len(ordered) or ordered[idx + 1][0] != score:
            points.append((float(score), ctp / (ctp + cfp), ctp / total_gt))
    envelope, running = [0.0] * len(points), -math.inf
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        envelope[i] = running
    ap, prev = 0.0, 0.0
    for (_, _, rec), env in zip(points, envelope):
        if rec > prev:
            ap += (rec - prev) * env
            prev = rec

    summary = {
        "mode": "instance",
        "iou_threshold": thresh,
        "tp": tp,
        "fp": fp,
        "fn": fn_total,
        "tn": None,
        "precision": _ratio(tp, tp + fp),
        "recall": _ratio(tp, tp + fn_total),
        "accuracy": None,
        "ap": ap,
    }
    csv = ["threshold,precision,recall"]
    csv += [f"{t:.6f},{p:.6f},{r:.6f}" for t, p, r in points]
    return _json_doc(summary), "\n".join(csv) + "\n", evaluated


def pixel_output(images, raster: int = 256) -> str:
    """Expected metrics JSON of ``eval --mode pixel``."""
    tp = fp = fn = tn = 0
    for image in images:
        gt = np.zeros((raster, raster), dtype=bool)
        for _, poly in image.gt:
            gt |= rasterize(poly, raster, raster)
        pred = np.zeros((raster, raster), dtype=bool)
        for _, _, poly in image.preds:
            pred |= rasterize(poly, raster, raster)
        tp += int(np.sum(pred & gt))
        fp += int(np.sum(pred & ~gt))
        fn += int(np.sum(~pred & gt))
        tn += int(np.sum(~pred & ~gt))
    summary = {
        "mode": "pixel",
        "iou_threshold": None,
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": tn,
        "precision": _ratio(tp, tp + fp),
        "recall": _ratio(tp, tp + fn),
        "accuracy": _ratio(tp + tn, tp + tn + fp + fn),
        "ap": None,
    }
    return _json_doc(summary)


def candidate_pairs(images) -> int:
    return sum(
        sum(1 for p in image.preds for g in image.gt if p[0] == g[0]) for image in images
    )


# ---------------------------------------------------------------------------
# analyze

_EIGHT = np.ones((3, 3), dtype=bool)


class MaskFacts:
    """What a correct width report of one mask must agree with."""

    def __init__(self, mask: np.ndarray):
        self.labels, count = ndimage.label(mask, structure=_EIGHT)
        self.areas = np.bincount(self.labels.ravel())[1:]
        self.components = count
        self.foreground_px = int(mask.sum())
        self.edt = ndimage.distance_transform_edt(np.pad(mask, 1))[1:-1, 1:-1]

    def problems(self, report_bytes: bytes) -> list[str]:
        reports = json.loads(report_bytes)
        if len(reports) != self.components:
            return [f"{len(reports)} reports for {self.components} components"]
        expected_areas = sorted(self.areas.tolist(), reverse=True)
        bad = []
        for k, r in enumerate(reports):
            if r["component_id"] != k + 1 or r["area_px"] != expected_areas[k]:
                bad.append(f"report {k}: id {r['component_id']} area {r['area_px']}")
                continue
            owners = set()
            for key in ("max", "min"):
                row, col = r[f"{key}_width_location"]
                lab = int(self.labels[row, col])
                owners.add(lab)
                if lab == 0 or r[f"{key}_width_px"] != 2.0 * self.edt[row, col] - 1.0:
                    bad.append(f"component {k + 1}: {key} width at ({row}, {col})")
            if len(owners) != 1 or self.areas[owners.pop() - 1] != r["area_px"]:
                bad.append(f"component {k + 1}: locations in another component")
            if not 1 <= r["skeleton_length_px"] <= r["area_px"]:
                bad.append(f"component {k + 1}: skeleton length {r['skeleton_length_px']}")
            if r["min_width_px"] > r["max_width_px"]:
                bad.append(f"component {k + 1}: min width above max width")
        return bad


# ---------------------------------------------------------------------------
# blocks


def directional_gap(forward, x, upstream, grad, rng, eps=1e-6) -> float:
    """Relative gap between <grad, d> and the central difference of
    sum(upstream * forward(x)) along a random unit direction d."""
    d = rng.standard_normal(x.shape)
    d /= np.linalg.norm(d)
    hi = float(np.sum(upstream * forward(x + eps * d)))
    lo = float(np.sum(upstream * forward(x - eps * d)))
    numeric = (hi - lo) / (2.0 * eps)
    analytic = float(np.sum(grad * d))
    return abs(numeric - analytic) / max(1.0, abs(analytic), abs(numeric))
