"""Seeded synthetic inputs for the four benchmark workloads.

Every generator draws from ``numpy.random.default_rng`` keyed by the
workload seed, so one seed always gives the same bytes.  Sizes are fixed
per scale and only geometry varies with the seed, so different seeds cost
about the same: counts (components, detections, classes) are exact, not
drawn.

Two scales exist: ``full`` is what the benchmark measures, ``smoke`` is a
tiny corpus for the benchmark's own test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# sizes per scale

SCALES = {
    "full": {
        "mask_side": 768,
        "mask_pool": 3,
        "cell": 48,
        "wide_widths": (14, 22, 30),
        "wide_band": 96,
        "specks": 40,
        "box_images": 600,
        "raster_images": 6,
        "gt_per_image": 15,
        "pred_per_image": 30,
        "raster_size": 256,
        "block_shape": (1, 3, 80, 80),
        "block_dims": (64, 32, 64),  # channels, cmid, cout
        "block_pool": 4,
    },
    "smoke": {
        "mask_side": 192,
        "mask_pool": 1,
        "cell": 48,
        "wide_widths": (14,),
        "wide_band": 96,
        "specks": 4,
        "box_images": 3,
        "raster_images": 2,
        "gt_per_image": 4,
        "pred_per_image": 6,
        "raster_size": 64,
        "block_shape": (1, 3, 12, 12),
        "block_dims": (8, 4, 8),
        "block_pool": 1,
    },
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# crack masks


def _stamp_segment(mask, p, q, width):
    """Foreground every pixel whose center lies within width/2 of segment pq
    (points are (row, col) in pixel units, centers at integer coordinates)."""
    half = width / 2.0
    h, w = mask.shape
    r0 = max(0, int(np.floor(min(p[0], q[0]) - half)))
    r1 = min(h, int(np.ceil(max(p[0], q[0]) + half)) + 1)
    c0 = max(0, int(np.floor(min(p[1], q[1]) - half)))
    c1 = min(w, int(np.ceil(max(p[1], q[1]) + half)) + 1)
    if r0 >= r1 or c0 >= c1:
        return
    rr, cc = np.mgrid[r0:r1, c0:c1]
    d = np.array(q, dtype=np.float64) - np.array(p, dtype=np.float64)
    length2 = float(d @ d)
    if length2 == 0.0:
        t = np.zeros(rr.shape)
    else:
        t = np.clip(((rr - p[0]) * d[0] + (cc - p[1]) * d[1]) / length2, 0.0, 1.0)
    dist2 = (rr - (p[0] + t * d[0])) ** 2 + (cc - (p[1] + t * d[1])) ** 2
    mask[r0:r1, c0:c1] |= dist2 <= half * half


def _stamp_polyline(mask, points, width):
    for p, q in zip(points[:-1], points[1:]):
        _stamp_segment(mask, p, q, width)


def make_mask(seed: int, index: int, scale: str) -> np.ndarray:
    """One crack mask (bool).

    Layout: the top rows hold one horizontal band per wide crack (widths
    fixed per scale, so the number of thinning passes does not depend on
    the seed); the rest is a grid of cells, each holding one hairline
    network (a 2-5 px polyline plus a branch from one of its vertices)
    kept 3 px inside its cell so networks never touch.  Single-pixel
    specks are dropped on background pixels whose 5x5 neighbourhood is
    empty.  Every component is therefore a separate network, a wide crack
    or a one-pixel speck, and none is a 2x2 blob (which thins away and
    makes ``analyze`` exit 1).
    """
    cfg = SCALES[scale]
    side, cell, band = cfg["mask_side"], cfg["cell"], cfg["wide_band"]
    rng = _rng(seed, 1, index)
    mask = np.zeros((side, side), dtype=bool)

    for k, width in enumerate(cfg["wide_widths"]):
        center = k * band + band / 2.0
        wiggle = band / 2.0 - width / 2.0 - 4.0
        cols = np.linspace(0, side - 1, 9)
        rows = center + rng.uniform(-wiggle, wiggle, cols.size)
        _stamp_polyline(mask, list(zip(rows, cols)), width)

    top = len(cfg["wide_widths"]) * band
    margin = 3
    for r in range(top, side - cell + 1, cell):
        for c in range(0, side - cell + 1, cell):
            width = float(rng.uniform(2.0, 5.0))
            lo = margin + width / 2.0
            hi = cell - 1 - margin - width / 2.0
            trunk = [(r + rng.uniform(lo, hi), c + rng.uniform(lo, hi)) for _ in range(6)]
            _stamp_polyline(mask, trunk, width)
            fork = trunk[int(rng.integers(1, 3))]
            branch = [fork] + [(r + rng.uniform(lo, hi), c + rng.uniform(lo, hi)) for _ in range(4)]
            _stamp_polyline(mask, branch, max(2.0, width - 1.0))

    placed = 0
    while placed < cfg["specks"]:
        r, c = (int(v) for v in rng.integers(2, side - 2, 2))
        if not mask[r - 2 : r + 3, c - 2 : c + 3].any():
            mask[r, c] = True
            placed += 1
    return mask


# ---------------------------------------------------------------------------
# detections


def _polygon(rng, cx, cy, radius):
    """12-vertex star-shaped (hence simple) polygon around (cx, cy);
    coordinates rounded to 6 decimals so text round trips are exact."""
    angles = (np.arange(12) + rng.uniform(-0.3, 0.3, 12)) * (2.0 * np.pi / 12)
    radii = radius * rng.uniform(0.7, 1.0, 12)
    xs = np.clip(cx + radii * np.cos(angles), 0.0, 1.0)
    ys = np.clip(cy + radii * np.sin(angles), 0.0, 1.0)
    return np.round(np.stack([xs, ys], axis=1), 6)


@dataclass
class EvalImage:
    image_id: str
    gt: list  # of (class_id, polygon [12, 2])
    preds: list  # of (class_id, score, polygon [12, 2])


def make_eval_images(seed: int, count: int, scale: str, stream: int) -> list[EvalImage]:
    """``count`` images, each with a fixed number of ground truths (classes
    alternating 0, 1) and predictions.  40% of predictions are jittered
    copies of distinct ground truths, half of each class, with scores in
    [0.5, 1); the rest are false alarms anywhere, classes alternating, with
    scores in [0, 0.5).
    Fixing the classes and the score order of true and false detections
    fixes how many (pred, gt) pairs greedy matching evaluates, so the cost
    of an ``eval`` op does not depend on the seed."""
    cfg = SCALES[scale]
    n_gt, n_pred = cfg["gt_per_image"], cfg["pred_per_image"]
    n_copy = (2 * n_pred) // 5
    rng = _rng(seed, stream)
    images = []
    for i in range(count):
        gt = []
        for j in range(n_gt):
            radius = rng.uniform(0.03, 0.12)
            cx, cy = rng.uniform(radius, 1.0 - radius, 2)
            gt.append((j % 2, _polygon(rng, cx, cy, radius), (cx, cy, radius)))
        evens, odds = rng.permutation(range(0, n_gt, 2)), rng.permutation(range(1, n_gt, 2))
        copied = [(evens, odds)[k % 2][k // 2] for k in range(n_copy)]
        preds = []
        for j in range(n_pred):
            if j < n_copy:
                class_id, _, (cx, cy, radius) = gt[int(copied[j])]
                radius = radius * rng.uniform(0.9, 1.1)
                cx = cx + rng.uniform(-0.15, 0.15) * radius
                cy = cy + rng.uniform(-0.15, 0.15) * radius
                score = 0.5 + 0.5 * rng.uniform()
            else:
                class_id = j % 2
                radius = rng.uniform(0.03, 0.12)
                cx, cy = rng.uniform(radius, 1.0 - radius, 2)
                score = 0.5 * rng.uniform()
            preds.append((class_id, round(float(score), 9), _polygon(rng, cx, cy, radius)))
        images.append(EvalImage(f"img{i:04d}", [(c, p) for c, p, _ in gt], preds))
    return images


def label_text(image: EvalImage) -> str:
    lines = []
    for class_id, poly in image.gt:
        lines.append(f"{class_id} " + " ".join(repr(float(v)) for v in poly.ravel()))
    return "\n".join(lines) + "\n"


def predictions_text(images) -> str:
    lines = []
    for image in images:
        for class_id, score, poly in image.preds:
            doc = {
                "image": image.image_id,
                "class": class_id,
                "score": score,
                "polygon": [[float(x), float(y)] for x, y in poly],
            }
            lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"


def write_eval_corpus(images, directory: str) -> tuple[str, str]:
    gt_dir = os.path.join(directory, "labels")
    os.makedirs(gt_dir)
    for image in images:
        with open(os.path.join(gt_dir, image.image_id + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(label_text(image))
    pred_path = os.path.join(directory, "preds.jsonl")
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write(predictions_text(images))
    return gt_dir, pred_path


# ---------------------------------------------------------------------------
# attention blocks and gradient suite


@dataclass
class BlockCase:
    x: np.ndarray
    upstream: np.ndarray


def make_block_cases(seed: int, scale: str) -> list[BlockCase]:
    cfg = SCALES[scale]
    n, _, h, w = cfg["block_shape"]
    cout = cfg["block_dims"][2]
    cases = []
    for k in range(cfg["block_pool"]):
        rng = _rng(seed, 4, k)
        cases.append(
            BlockCase(
                x=rng.uniform(-1.0, 1.0, cfg["block_shape"]),
                upstream=rng.standard_normal((n, cout, h, w)),
            )
        )
    return cases
