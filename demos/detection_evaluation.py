"""Score a toy detector: matching, confusion counts, PR curve, AP.

Builds a three-image scene with known outcomes, matches predictions to
ground truths greedily by score, sweeps the score threshold into a
precision/recall curve, and integrates the interpolated envelope.

Run: ``python demos/detection_evaluation.py``
"""

from crackscope.boxes import BBox
from crackscope.dataio import DetectionRecord
from crackscope.metrics import (
    ConfusionCounts,
    average_precision,
    match_instances,
    pr_curve,
    pr_curve_to_csv,
    precision,
    recall,
)

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
    preds = [
        DetectionRecord(image_id, 0, score, box=box) for score, box in scene["preds"]
    ]
    gts = [DetectionRecord(image_id, 0, 1.0, box=box) for box in scene["gts"]]
    flags, fn = match_instances(preds, gts, iou_thresh=0.5)
    for record, flag in zip(preds, flags):
        flagged.append((record.score, flag))
        print(f"{image_id}: score {record.score:.2f} -> {'TP' if flag else 'FP'}")
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
