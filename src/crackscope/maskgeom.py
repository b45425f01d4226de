"""Width metrology for binary crack masks.

From a segmentation mask this module extracts 8-connected foreground
components, the exact Euclidean distance to the nearest background pixel
center, a one-pixel-wide skeleton by iterative thinning, and per-component
width reports: the maximum and minimum inscribed-disk widths and the
skeleton pixels where they occur.

Width at a skeleton pixel is ``2 * edt - 1``, the diameter in pixels of the
largest disk of pixel centers around it (pixel-center distance convention).
The image border counts as background, so a crack touching the frame is
measured to the frame edge.

The cost is linear in pixels, not components x pixels: the mask is labelled
once and each component's pixels are read from its own ``find_objects``
bbox; width and degree work for a component reads only the skeleton and
distance field inside that bbox grown by one pixel; and thinning looks up
each pixel's 8-neighbour code in one 256-entry removal table per
subiteration, evaluating after the first two subiterations only the window
where pixels were just removed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import DegenerateComponent, InvalidImage, InvalidShape, OutOfRange

__all__ = [
    "ScaleConfig",
    "CrackComponent",
    "WidthReport",
    "threshold_mask",
    "connected_components",
    "distance_transform",
    "skeletonize",
    "width_profile",
    "analyze_component",
    "analyze_mask",
]

_EIGHT = np.ones((3, 3), dtype=bool)

# (row, col) offsets of the 8-neighbours p2 (north), p3 (north-east), ...
# p9 (north-west), clockwise; p(k) is bit k - 2 of a pixel's 8-neighbour code
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _thinning_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 8-neighbour code, whether a foreground pixel is removed in the
    first and the second subiteration (Zhang & Suen, CACM 1984): 2..6
    foreground neighbours, one 0->1 transition around the ring, and the
    subiteration's two winding products zero."""
    ring = (np.arange(256)[:, None] >> np.arange(8)) & 1  # columns p2..p9
    p2, _, p4, _, p6, _, p8, _ = ring.T
    neighbors = ring.sum(axis=1)
    transitions = ((ring == 0) & (np.roll(ring, -1, axis=1) == 1)).sum(axis=1)
    simple = (neighbors >= 2) & (neighbors <= 6) & (transitions == 1)
    first = simple & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    second = simple & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return first, second


_REMOVABLE = _thinning_tables()


@dataclass(frozen=True)
class ScaleConfig:
    """Physical calibration; widths are also reported in millimetres when set."""

    mm_per_px: float

    def __post_init__(self):
        if not 0 < self.mm_per_px < np.inf:
            raise OutOfRange(f"mm_per_px must be positive and finite, got {self.mm_per_px}")


@dataclass(frozen=True, eq=False)
class CrackComponent:
    """One 8-connected foreground region; pixels are (row, col) in row-major
    order, inside the frame rows ``rows`` and columns ``cols``."""

    id: int
    pixels: np.ndarray  # [k, 2]
    rows: slice
    cols: slice

    @property
    def area(self) -> int:
        return len(self.pixels)


@dataclass(frozen=True)
class WidthReport:
    """Per-component metrology; locations are skeleton pixels (row, col)."""

    component_id: int
    area_px: int
    max_width_px: float
    max_width_location: tuple[int, int]
    min_width_px: float
    min_width_location: tuple[int, int]
    skeleton_length_px: int
    max_width_mm: float | None = None
    min_width_mm: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready mapping, keys in fixed order; mm keys present iff scaled."""
        doc = {
            "component_id": self.component_id,
            "area_px": self.area_px,
            "max_width_px": self.max_width_px,
            "max_width_location": list(self.max_width_location),
            "min_width_px": self.min_width_px,
            "min_width_location": list(self.min_width_location),
            "skeleton_length_px": self.skeleton_length_px,
        }
        if self.max_width_mm is not None:
            doc["max_width_mm"] = self.max_width_mm
            doc["min_width_mm"] = self.min_width_mm
        return doc


def _require_mask(m, name="mask") -> np.ndarray:
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise InvalidShape(f"{name} must be 2-D, got shape {arr.shape}")
    return arr.astype(bool)


def threshold_mask(gray, thresh: int = 128) -> np.ndarray:
    """Binarize an 8-bit grayscale image: foreground iff value >= thresh."""
    arr = np.asarray(gray)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidImage(f"expected a nonempty 2-D grayscale image, got shape {arr.shape}")
    return arr.astype(np.int64) >= thresh


def connected_components(mask) -> list[CrackComponent]:
    """8-connected components, largest area first; ties broken by the
    lexicographically smallest (row, col) pixel.  Ids count from 1."""
    mask = _require_mask(mask)
    labels, count = ndimage.label(mask, structure=_EIGHT)
    if not count:
        return []
    order = []
    for lab, (rs, cs) in enumerate(ndimage.find_objects(labels), start=1):
        pixels = np.argwhere(labels[rs, cs] == lab) + (rs.start, cs.start)  # row-major sorted
        order.append((-len(pixels), int(pixels[0][0]), int(pixels[0][1]), pixels, rs, cs))
    order.sort(key=lambda item: item[:3])
    return [CrackComponent(new_id, pixels, rs, cs)
            for new_id, (*_, pixels, rs, cs) in enumerate(order, start=1)]


def distance_transform(mask) -> np.ndarray:
    """Exact Euclidean distance from each pixel center to the nearest
    background pixel center; background pixels are 0.

    The plane outside the image counts as background, realised by a
    one-pixel background ring (any farther outside pixel is dominated by the
    ring pixel in the same direction).
    """
    padded = np.pad(_require_mask(mask), 1, constant_values=False)
    return ndimage.distance_transform_edt(padded)[1:-1, 1:-1]


def skeletonize(mask) -> np.ndarray:
    """Iterative two-subiteration thinning to a fixpoint.

    Returns a boolean mask of skeleton pixels: a subset of the foreground
    that keeps each component 8-connected.  Isolated pixels survive; note
    that 2x2 blocks thin away completely (no skeleton).

    Each subiteration looks up every pixel's 8-neighbour code in that
    subiteration's removal table.  A verdict changes only where a neighbour
    changed since the same table last ran, so from the third subiteration on
    only the bbox of the pixels removed in the previous two, grown by one, is
    evaluated; thinning stops when that window is empty.
    """
    mask = _require_mask(mask)
    img = np.pad(mask, 1).view(np.uint8)  # 0/1 with a background ring
    height, width = mask.shape
    full = (0, height, 0, width)
    removed = [full, full]  # removal bboxes of the last two subiterations
    step = 0
    while True:
        window = _union_grown(*removed, height, width)
        if window is None:
            return img[1:-1, 1:-1].astype(bool)
        r0, r1, c0, c1 = window
        code = np.zeros((r1 - r0, c1 - c0), dtype=np.uint8)
        for bit, (dr, dc) in enumerate(_RING):
            code |= img[1 + r0 + dr : 1 + r1 + dr, 1 + c0 + dc : 1 + c1 + dc] << bit
        view = img[1 + r0 : 1 + r1, 1 + c0 : 1 + c1]
        remove = _REMOVABLE[step][code] & (view == 1)
        view[remove] = 0
        rows = np.flatnonzero(remove.any(axis=1))
        cols = np.flatnonzero(remove.any(axis=0))
        box = (r0 + rows[0], r0 + rows[-1] + 1, c0 + cols[0], c0 + cols[-1] + 1) if len(rows) else None
        removed = [removed[1], box]
        step ^= 1


def _union_grown(a, b, height, width):
    """Bbox ``(r0, r1, c0, c1)`` covering boxes ``a`` and ``b`` (either may be
    None) grown by one pixel and clipped to the frame; None if both are."""
    boxes = [box for box in (a, b) if box is not None]
    if not boxes:
        return None
    r0, r1, c0, c1 = zip(*boxes)
    return max(min(r0) - 1, 0), min(max(r1) + 1, height), max(min(c0) - 1, 0), min(max(c1) + 1, width)


def _component_skeleton(component: CrackComponent, edt, skeleton):
    """The component's skeleton pixels in row-major order, with the width
    ``2 * edt - 1`` and the 8-degree on the whole skeleton at each.

    Only the component's bbox grown by one pixel is read: it holds every
    8-neighbour of the component, and it is clipped to the frame, whose
    outside counts as background.
    """
    skeleton = np.asarray(skeleton)
    if skeleton.ndim != 2:
        raise InvalidShape(f"skeleton must be 2-D, got shape {skeleton.shape}")
    pixels, rows, cols = component.pixels, component.rows, component.cols
    r0, c0 = max(rows.start - 1, 0), max(cols.start - 1, 0)
    window = skeleton[r0 : rows.stop + 1, c0 : cols.stop + 1].astype(bool)
    inside = np.zeros_like(window)
    inside[pixels[:, 0] - r0, pixels[:, 1] - c0] = True
    local = np.argwhere(window & inside)
    if len(local) == 0:
        raise DegenerateComponent(
            f"component {component.id} (rows {rows.start}-{rows.stop - 1}, "
            f"cols {cols.start}-{cols.stop - 1}) has no skeleton pixels"
        )
    counts = ndimage.convolve(window.view(np.uint8), _EIGHT.view(np.uint8), mode="constant")
    own = local + (r0, c0)
    widths = 2.0 * np.asarray(edt)[own[:, 0], own[:, 1]].astype(np.float64) - 1.0
    return own, widths, counts[local[:, 0], local[:, 1]] - 1  # the 3x3 count holds the pixel


def width_profile(component: CrackComponent, edt, skeleton) -> list[tuple[tuple[int, int], float]]:
    """Inscribed-disk width ``2 * edt - 1`` at each of the component's
    skeleton pixels, in row-major pixel order."""
    own, widths, _ = _component_skeleton(component, edt, skeleton)
    return [((r, c), wd) for (r, c), wd in zip(own.tolist(), widths.tolist())]


def analyze_component(
    component: CrackComponent, edt, skeleton, scale: ScaleConfig | None = None
) -> WidthReport:
    """Max and min inscribed-disk widths with their skeleton locations.

    The minimum is taken over interior skeleton pixels (8-degree >= 2) when
    any exist, because skeleton tips taper toward width 1 artificially; the
    maximum uses every skeleton pixel.  Argmax/argmin ties resolve to the
    lexicographically smallest (row, col).
    """
    own, widths, degrees = _component_skeleton(component, edt, skeleton)
    interior = np.flatnonzero(degrees >= 2)
    candidates = interior if len(interior) else np.arange(len(own))
    best = int(np.argmax(widths))  # argmax/argmin take the first extreme
    worst = int(candidates[np.argmin(widths[candidates])])
    max_width = float(widths[best])
    min_width = float(widths[worst])
    report = WidthReport(
        component_id=component.id,
        area_px=component.area,
        max_width_px=max_width,
        max_width_location=tuple(own[best].tolist()),
        min_width_px=min_width,
        min_width_location=tuple(own[worst].tolist()),
        skeleton_length_px=len(own),
    )
    if scale is not None:
        report = replace(
            report,
            max_width_mm=max_width * scale.mm_per_px,
            min_width_mm=min_width * scale.mm_per_px,
        )
    return report


def analyze_mask(mask, scale: ScaleConfig | None = None) -> list[WidthReport]:
    """Full pipeline for one mask: components, distance field, skeleton,
    then one report per component in id order."""
    mask = _require_mask(mask)
    components = connected_components(mask)
    if not components:
        return []
    edt = distance_transform(mask)
    skeleton = skeletonize(mask)
    return [analyze_component(c, edt, skeleton, scale) for c in components]
