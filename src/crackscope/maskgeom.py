"""Width metrology for binary crack masks.

A grayscale mask is binarized at half its maxval (:func:`threshold_mask`).
From a binary mask this module extracts 8-connected foreground
components, a one-pixel-wide skeleton by iterative thinning, the exact
Euclidean distance from each skeleton pixel to the nearest background
pixel center, and per-component width reports: the maximum and minimum
inscribed-disk widths and the skeleton pixels where they occur.

Width at a skeleton pixel is ``2 * edt - 1``, the diameter in pixels of the
largest disk of pixel centers around it (pixel-center distance convention).
The image border counts as background, so a crack touching the frame is
measured to the frame edge.

The cost is linear in pixels, not components x pixels: the mask is thinned,
then labelled once, and only the skeleton pixels' labels are mapped to
report ids, after which the label frame is freed before the distance; the
reports come from one pass over the skeleton pixels sorted by id, with no
per-component work; thinning looks up 8-neighbour codes in one 256-entry
removal table per subiteration, at every foreground pixel only in the
first, then only where a verdict can have changed; and the distance is an
integer column pass that writes only the foreground runs' pixels, then a
row search at the skeleton pixels only, where a pixel at distance ``d``
takes at most ``d + 1`` steps, however far its crack runs vertically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateComponent, InvalidImage, InvalidShape, OutOfRange

__all__ = [
    "ScaleConfig",
    "WidthReport",
    "threshold_mask",
    "connected_components",
    "skeletonize",
    "analyze_mask",
]

_EIGHT = np.ones((3, 3), dtype=bool)

_STRIP = 64  # columns per strip of the EDT's column pass, so its temporaries stay in cache

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
    return arr.astype(bool, copy=False)


def threshold_mask(gray, maxval: int) -> np.ndarray:
    """Binarize a grayscale image at half its maxval: foreground iff
    ``value > maxval / 2`` (``value >= 128`` at maxval 255)."""
    arr = np.asarray(gray)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidImage(f"expected a nonempty 2-D grayscale image, got shape {arr.shape}")
    return arr > maxval / 2


def _label(mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ndimage.label``'s 8-connected labels, the table from them to report
    ids and the areas in report order, counted at the foreground only.  The
    labels run in the raster order of each component's first pixel, so a
    stable sort by decreasing area gives the report order."""
    labels, count = ndimage.label(mask, structure=_EIGHT)
    areas = np.bincount(labels[mask], minlength=count + 1)[1:]
    order = np.argsort(-areas, kind="stable")
    relabel = np.zeros(count + 1, dtype=labels.dtype)
    relabel[order + 1] = np.arange(1, count + 1)
    return labels, relabel, areas[order]


def connected_components(mask) -> tuple[np.ndarray, np.ndarray]:
    """8-connected components as ``(labels, areas)``: background is 0 and
    ids 1..len(areas) run largest area first, ties broken by the smallest
    (row, col) pixel; ``areas[i - 1]`` is component ``i``'s pixel count."""
    labels, relabel, areas = _label(_require_mask(mask))
    return relabel[labels], areas


def _squared_edt_at(mask, flat) -> np.ndarray:
    """Exact squared Euclidean distance, as int64, from the pixels at row-major
    indices ``flat`` of ``mask`` to the nearest background pixel center; the
    plane outside the mask counts as background.

    The separable exact EDT (Meijster et al. 2000; Felzenszwalb &
    Huttenlocher 2012), its second pass run only at ``flat``.  The column
    pass writes, at the pixel ``j`` places into a vertical foreground run of
    ``L`` pixels, its distance ``g = min(j + 1, L - j)`` to the nearest
    background pixel of its column, rows -1 and H included.  Then
    ``d2 = min over dc of g[r, c +- dc]**2 + dc**2``, where columns -1 and W
    have ``g = 0``.  Step ``dc`` runs only at the pixels whose ``d2`` so far
    exceeds ``dc**2``, since no farther column can win; at a side column
    ``d2 <= dc**2``, so no step reads past it.  A pixel at distance ``d``
    takes at most ``d + 1`` steps, whatever the crack's orientation.
    """
    h, w = mask.shape
    g = np.zeros((w + 2) * h, dtype=np.int32)  # column-major; columns -1 and w are the frame's sides
    for c0 in range(0, w, _STRIP):
        strip = np.zeros((min(_STRIP, w - c0), h + 2), dtype=bool)  # a row per column, between background
        # copied out before the transpose: read in place, long rows cost a page per pixel
        strip[:, 1:-1] = np.ascontiguousarray(mask[:, c0 : c0 + _STRIP]).T
        runs = strip.ravel()  # a foreground run starts and ends where adjacent pixels differ
        start, stop = (np.flatnonzero(runs[1:] != runs[:-1]) + 1).reshape(-1, 2).T
        length = stop - start
        ahead = np.cumsum(length) - length  # the run pixels before each run
        j = np.arange(length.sum()) - np.repeat(ahead, length)  # each run pixel's place in its run
        at = j + np.repeat((c0 + 1) * h + start - 2 * (start // (h + 2)) - 1, length)
        g[at] = np.minimum(j + 1, np.repeat(length, length) - j, out=j)
    at = (flat % w + 1) * h + flat // w  # (row, col + 1) in the frame of g
    d2 = g[at].astype(np.int64) ** 2  # squared in int64: past g = 46,340 a square overflows int32
    live = np.flatnonzero(d2 > 1)
    dc = 1
    while len(live):
        near = at[live]
        nearer = np.minimum(g[near - dc * h], g[near + dc * h]).astype(np.int64)
        d2[live] = np.minimum(d2[live], nearer * nearer + dc * dc)
        dc += 1
        live = live[d2[live] > dc * dc]
    return d2


def skeletonize(mask) -> np.ndarray:
    """Iterative two-subiteration thinning to a fixpoint.

    Returns a boolean mask of skeleton pixels: a subset of the foreground
    that keeps each component 8-connected.  Isolated pixels survive; note
    that 2x2 blocks thin away completely (no skeleton).

    Each subiteration looks up candidate pixels' 8-neighbour codes, gathered
    at flat offsets in the padded frame, in its removal table.  The first
    evaluates every foreground pixel, the second only the pixels with a
    background neighbour, since one with 8 foreground neighbours is never
    removed.  A verdict changes only where a neighbour changed since the
    same table last ran, so after that the candidates are the foreground
    8-neighbours of the pixels removed in the previous two subiterations;
    thinning stops when there are none.
    """
    return _thinned(_require_mask(mask))[0][1:-1, 1:-1].astype(bool)


def _thinned(mask):
    """:func:`skeletonize`'s skeleton, 0/1 uint8 in a background ring, and ``_RING``'s flat offsets there."""
    img = np.pad(np.ascontiguousarray(mask), 1).view(np.uint8)  # C order: ``ravel`` is a view
    flat = img.ravel()
    ring = np.array([dr * img.shape[1] + dc for dr, dc in _RING])
    frontier = np.zeros(flat.size, dtype=bool)  # scratch, all False between subiterations
    pixels = np.flatnonzero(flat.view(bool))
    previous = None  # the pixels removed in the previous subiteration
    step = 0
    while len(pixels):
        code = np.zeros(len(pixels), dtype=np.uint8)
        for bit, offset in enumerate(ring):
            code |= flat[pixels + offset] << bit
        removed = pixels[_REMOVABLE[step][code]]
        flat[removed] = 0
        if previous is None:  # a code of 255 stays 255 until a neighbour is removed
            frontier[pixels[code != 255]] = True
            previous = removed[:0]
        for offset in ring:  # deduplicated by a scratch frame, in raster order, with no sort
            frontier[previous + offset] = True
            frontier[removed + offset] = True
        frontier &= flat.view(bool)
        pixels = np.flatnonzero(frontier)
        frontier[pixels] = False
        previous = removed
        step ^= 1
    return img, ring


def analyze_mask(mask, scale: ScaleConfig | None = None) -> list[WidthReport]:
    """One width report per component, in id order.

    Width at a skeleton pixel is ``2 * edt - 1``, with ``edt`` the square
    root, in float64, of the exact integer squared distance (so it equals a
    full-frame exact EDT's value bit for bit).  The maximum is taken over
    every skeleton pixel of the component; the minimum over its interior
    skeleton pixels (8-degree >= 2 on the whole skeleton) when it has any,
    because skeleton tips taper toward width 1 artificially.  Ties resolve
    to the first pixel in row-major order.  A component with no skeleton
    pixels (a 2x2 block thins away) raises :class:`DegenerateComponent`
    naming the lowest such id and its bbox, and a ``scale`` that makes a
    width infinite in mm raises :class:`OutOfRange` naming the scale.

    The areas are those the labelling counted.  The skeleton pixels are
    gathered once in row-major order and stable-sorted by component id, so
    every other per-component quantity is one ``reduceat`` or ``bincount``
    over that single sorted list.
    """
    mask = _require_mask(mask)
    frame, ring = _thinned(mask)  # before labeling: only the skeleton's labels are read
    labels, relabel, area = _label(mask)
    count = len(area)
    if not count:
        return []
    width = mask.shape[1]
    flat = np.flatnonzero(frame.view(bool))  # row-major, in the padded frame
    flat -= 2 * (flat // (width + 2)) + width + 1  # in the mask
    ids = relabel[labels.ravel()[flat]]
    length = np.bincount(ids, minlength=count + 1)[1:]
    if not length.all():
        bad = int(np.argmin(length)) + 1  # argmin takes the first zero
        raw = int(np.argmax(relabel == bad))  # its label in ``labels``
        rows, cols = ndimage.find_objects(labels, max_label=raw)[raw - 1]
        raise DegenerateComponent(
            f"component {bad} (rows {rows.start}-{rows.stop - 1}, "
            f"cols {cols.start}-{cols.stop - 1}) has no skeleton pixels"
        )
    del labels  # the EDT and the reports need only the skeleton's ids
    order = np.argsort(ids, kind="stable")  # by id, row-major within an id
    flat, index = flat[order], ids[order] - 1
    starts = np.concatenate(([0], np.cumsum(length[:-1])))
    widths = 2.0 * np.sqrt(_squared_edt_at(mask, flat)) - 1.0
    at = flat + 2 * (flat // width) + width + 3  # (row + 1, col + 1) in the padded frame
    interior = sum(np.take(frame, at + offset) for offset in ring) >= 2
    candidate = interior | ~np.logical_or.reduceat(interior, starts)[index]
    max_width = np.maximum.reduceat(widths, starts)
    min_width = np.minimum.reduceat(np.where(candidate, widths, np.inf), starts)
    position = np.arange(len(flat))

    def first(hit):  # flat index of each id's first hit; every id has one
        return flat[np.minimum.reduceat(np.where(hit, position, len(flat)), starts)]

    best = first(widths == max_width[index])
    worst = first(candidate & (widths == min_width[index]))
    mm = None if scale is None else scale.mm_per_px
    if mm is not None and math.isinf(float(max_width.max()) * mm):
        widest = int(np.argmax(max_width))
        raise OutOfRange(
            f"mm_per_px {mm} is too large: component {widest + 1}'s max width of "
            f"{max_width[widest]} px is infinite in mm"
        )
    return [
        WidthReport(
            component_id=i,
            area_px=a,
            max_width_px=hi,
            max_width_location=divmod(at_hi, width),
            min_width_px=lo,
            min_width_location=divmod(at_lo, width),
            skeleton_length_px=n,
            max_width_mm=None if mm is None else hi * mm,
            min_width_mm=None if mm is None else lo * mm,
        )
        for i, (a, hi, at_hi, lo, at_lo, n) in enumerate(
            zip(*(v.tolist() for v in (area, max_width, best, min_width, worst, length))), start=1
        )
    ]
