"""Measure crack widths on synthetic masks, end to end.

Builds a forked crack, shows the mask and its thinned skeleton as ASCII
art, and prints the per-component width report: maximum/minimum
inscribed-disk widths and the skeleton pixels where they occur.

Run: ``python demos/crack_width_measurement.py``
"""

import json

import numpy as np

from crackscope import maskgeom
from crackscope.maskgeom import ScaleConfig


def ascii_art(mask, skeleton=None):
    rows = []
    for r in range(mask.shape[0]):
        row = ""
        for c in range(mask.shape[1]):
            if skeleton is not None and skeleton[r, c]:
                row += "#"
            elif mask[r, c]:
                row += "."
            else:
                row += " "
        rows.append(row.rstrip())
    return "\n".join(rows)


def diagonal_crack(shape=(28, 56)):
    """A tapering crack with a side branch, like a pavement fissure."""
    h, w = shape
    rows, cols = np.mgrid[0:h, 0:w]
    y = rows + 0.5
    x = cols + 0.5
    # main crack: slight diagonal drift, width tapering from 7 px to 3 px
    center = 14 + 0.12 * (x - w / 2)
    half = 3.5 - 2.0 * x / w
    main = np.abs(y - center) <= np.maximum(half, 1.0)
    # branch splitting off upward
    branch = (np.abs((y - 14) + 0.8 * (x - 20)) <= 1.2) & (x >= 8) & (x <= 22)
    return main | branch


mask = diagonal_crack()
skeleton = maskgeom.skeletonize(mask)
print("crack mask ('.') with thinned skeleton ('#'):\n")
print(ascii_art(mask, skeleton))

print("\nwidth reports (2 mm per pixel):")
reports = maskgeom.analyze_mask(mask, scale=ScaleConfig(mm_per_px=2.0))
for report in reports:
    print(json.dumps(report.to_dict()))

widest = reports[0]
print(
    f"\ncomponent {widest.component_id}: widest point is"
    f" {widest.max_width_px:.1f} px ({widest.max_width_mm:.1f} mm)"
    f" at row {widest.max_width_location[0]}, col {widest.max_width_location[1]};"
    f" narrowest interior point is {widest.min_width_px:.1f} px"
    f" at {widest.min_width_location}."
)
