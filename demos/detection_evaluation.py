"""Score a toy detector: matching, confusion counts, PR curve, AP.

Builds a three-image scene with known outcomes, matches predictions to
ground truths greedily by score, sweeps the score threshold into a
precision/recall curve, and integrates the interpolated envelope.

Run: ``python demos/detection_evaluation.py``
"""

import numpy as np

from crackscope.boxes import BBox
from crackscope.dataio import polygon_table
from crackscope.metrics import (
    ConfusionCounts,
    average_precision,
    match_instances,
    pr_curve,
    pr_curve_to_csv,
    precision,
    recall,
)


def polygon(box: BBox) -> np.ndarray:
    """The box, given in pixels of a 128-px frame, as a normalized rectangle;
    dividing by a power of two keeps every IoU exactly as in pixels."""
    x0, y0, x1, y1 = np.array(box.corners) / 128
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


# one crack class; three images with hand-designed hits and misses
scenes = {
    "road_001": {
        "gts": [BBox(20, 20, 10, 6), BBox(50, 40, 8, 8)],
        "preds": [(0.95, BBox(20.5, 20, 10, 6)), (0.40, BBox(70, 70, 6, 6))],
    },
    "road_002": {
        "gts": [BBox(30, 30, 12, 5)],
        "preds": [(0.85, BBox(31, 30, 12, 5)), (0.70, BBox(30, 30, 12, 5))],
    },
    "road_003": {
        "gts": [BBox(10, 50, 9, 9)],
        "preds": [(0.60, BBox(11, 51, 9, 9))],
    },
}

flagged = []
fn_total = 0
total_gt = 0
for image_id, scene in scenes.items():
    scores = [score for score, _ in scene["preds"]]
    preds = polygon_table([0] * len(scores), [polygon(box) for _, box in scene["preds"]],
                          scores, [image_id] * len(scores))
    gts = polygon_table([0] * len(scene["gts"]), [polygon(box) for box in scene["gts"]])
    flags, fn = match_instances(preds, gts, iou_thresh=0.5)
    for row, flag in zip(preds, flags):
        flagged.append((row.score, flag))
        print(f"{image_id}: score {row.score:.2f} -> {'TP' if flag else 'FP'}")
    fn_total += fn
    total_gt += len(gts)
print(f"unmatched ground truths (fn): {fn_total} of {total_gt}")

tp = sum(1 for _, f in flagged if f)
counts = ConfusionCounts(tp=tp, fp=len(flagged) - tp, fn=fn_total)
print(f"\ncounts: tp={counts.tp} fp={counts.fp} fn={counts.fn}")
print(f"precision = {precision(counts):.4f}")
print(f"recall    = {recall(counts):.4f}")

points = pr_curve(flagged, total_gt)
print("\nPR curve (threshold sweep, highest score first):")
print(pr_curve_to_csv(points), end="")
print(f"\naverage precision (all-points envelope): {average_precision(points):.4f}")
print("note: AP depends only on the score ordering, not the score values.")
