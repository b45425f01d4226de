"""Width metrology for binary crack masks.

From a segmentation mask this module extracts 8-connected foreground
components, the exact Euclidean distance to the nearest background pixel
center, a one-pixel-wide skeleton by iterative thinning, and per-component
width reports: the maximum and minimum inscribed-disk widths and the
skeleton pixels where they occur.

Width at a skeleton pixel is ``2 * edt - 1``, the diameter in pixels of the
largest disk of pixel centers around it (pixel-center distance convention).
The image border counts as background by default, so a crack touching the
frame is measured to the frame edge; pass ``border_is_background=False`` to
measure only against in-image background.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .boxes import BBox
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


@dataclass(frozen=True)
class ScaleConfig:
    """Physical calibration; widths are also reported in millimetres when set."""

    mm_per_px: float

    def __post_init__(self):
        if not 0 < self.mm_per_px < np.inf:
            raise OutOfRange(f"mm_per_px must be positive and finite, got {self.mm_per_px}")


@dataclass(frozen=True, eq=False)
class CrackComponent:
    """One 8-connected foreground region; pixels are (row, col) in row-major order."""

    id: int
    pixels: np.ndarray  # [k, 2]
    bbox: BBox

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
    order = []
    for lab in range(1, count + 1):
        pixels = np.argwhere(labels == lab)  # row-major sorted
        order.append((-len(pixels), int(pixels[0][0]), int(pixels[0][1]), pixels))
    order.sort(key=lambda item: item[:3])
    components = []
    for new_id, (_, _, _, pixels) in enumerate(order, start=1):
        rmin, cmin = pixels.min(axis=0)
        rmax, cmax = pixels.max(axis=0)
        bbox = BBox(
            cx=(cmin + cmax + 1) / 2.0,
            cy=(rmin + rmax + 1) / 2.0,
            w=float(cmax - cmin + 1),
            h=float(rmax - rmin + 1),
        )
        components.append(CrackComponent(new_id, pixels, bbox))
    return components


def distance_transform(mask, border_is_background: bool = True) -> np.ndarray:
    """Exact Euclidean distance from each pixel center to the nearest
    background pixel center; background pixels are 0.

    With ``border_is_background`` the plane outside the image counts as
    background, realised by a one-pixel background ring (any farther outside
    pixel is dominated by the ring pixel in the same direction).
    """
    mask = _require_mask(mask)
    if border_is_background:
        padded = np.pad(mask, 1, constant_values=False)
        return ndimage.distance_transform_edt(padded)[1:-1, 1:-1]
    if mask.all():
        return np.full(mask.shape, np.inf)  # no background anywhere
    return ndimage.distance_transform_edt(mask)


def skeletonize(mask) -> np.ndarray:
    """Iterative two-subiteration thinning to a fixpoint.

    Returns a boolean mask of skeleton pixels: a subset of the foreground
    that keeps each component 8-connected.  Isolated pixels survive; note
    that 2x2 blocks thin away completely (no skeleton).
    """
    mask = _require_mask(mask)
    img = np.pad(mask, 1, constant_values=False).astype(np.uint8)
    while True:
        changed = False
        for step in (0, 1):
            p = img
            center = p[1:-1, 1:-1]
            p2 = p[:-2, 1:-1]
            p3 = p[:-2, 2:]
            p4 = p[1:-1, 2:]
            p5 = p[2:, 2:]
            p6 = p[2:, 1:-1]
            p7 = p[2:, :-2]
            p8 = p[1:-1, :-2]
            p9 = p[:-2, :-2]
            ring = (p2, p3, p4, p5, p6, p7, p8, p9)
            neighbors = sum(int_ring := [r.astype(np.int64) for r in ring])
            transitions = np.zeros_like(neighbors)
            for a, b in zip(int_ring, int_ring[1:] + int_ring[:1]):
                transitions += (a == 0) & (b == 1)
            if step == 0:
                winds = (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
            else:
                winds = (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
            remove = (
                (center == 1)
                & (neighbors >= 2)
                & (neighbors <= 6)
                & (transitions == 1)
                & winds
            )
            if remove.any():
                center[remove] = 0
                changed = True
        if not changed:
            return img[1:-1, 1:-1].astype(bool)


def _component_mask(component: CrackComponent, shape) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    m[component.pixels[:, 0], component.pixels[:, 1]] = True
    return m


def width_profile(component: CrackComponent, edt, skeleton) -> list[tuple[tuple[int, int], float]]:
    """Inscribed-disk width ``2 * edt - 1`` at each of the component's
    skeleton pixels, in row-major pixel order."""
    edt = np.asarray(edt, dtype=np.float64)
    skeleton = _require_mask(skeleton, "skeleton")
    inside = _component_mask(component, skeleton.shape)
    own = skeleton & inside
    pixels = np.argwhere(own)
    if len(pixels) == 0:
        raise DegenerateComponent(f"component {component.id} has no skeleton pixels")
    return [((int(r), int(c)), 2.0 * edt[r, c] - 1.0) for r, c in pixels]


def _skeleton_degrees(skeleton: np.ndarray) -> np.ndarray:
    counts = ndimage.convolve(skeleton.astype(np.int64), _EIGHT.astype(np.int64), mode="constant")
    return counts - skeleton.astype(np.int64)


def analyze_component(
    component: CrackComponent, edt, skeleton, scale: ScaleConfig | None = None
) -> WidthReport:
    """Max and min inscribed-disk widths with their skeleton locations.

    The minimum is taken over interior skeleton pixels (8-degree >= 2) when
    any exist, because skeleton tips taper toward width 1 artificially; the
    maximum uses every skeleton pixel.  Argmax/argmin ties resolve to the
    lexicographically smallest (row, col).
    """
    profile = width_profile(component, edt, skeleton)
    skeleton = _require_mask(skeleton, "skeleton")
    degrees = _skeleton_degrees(skeleton)

    best = max(range(len(profile)), key=lambda i: profile[i][1])
    interior = [i for i in range(len(profile)) if degrees[profile[i][0]] >= 2]
    candidates = interior if interior else range(len(profile))
    worst = min(candidates, key=lambda i: profile[i][1])
    max_loc, max_width = profile[best]
    min_loc, min_width = profile[worst]
    report = WidthReport(
        component_id=component.id,
        area_px=component.area,
        max_width_px=max_width,
        max_width_location=max_loc,
        min_width_px=min_width,
        min_width_location=min_loc,
        skeleton_length_px=len(profile),
    )
    if scale is not None:
        report = replace(
            report,
            max_width_mm=max_width * scale.mm_per_px,
            min_width_mm=min_width * scale.mm_per_px,
        )
    return report


def analyze_mask(
    mask, scale: ScaleConfig | None = None, border_is_background: bool = True
) -> list[WidthReport]:
    """Full pipeline for one mask: components, distance field, skeleton,
    then one report per component in id order."""
    mask = _require_mask(mask)
    components = connected_components(mask)
    if not components:
        return []
    edt = distance_transform(mask, border_is_background=border_is_background)
    skeleton = skeletonize(mask)
    return [analyze_component(c, edt, skeleton, scale) for c in components]
