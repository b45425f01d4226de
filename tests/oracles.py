"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, exhaustive scans) and shares no code with the library paths
it checks.  Two exceptions say so in their docstrings: ``window_thinning``
reads the thinning tables, and ``polygon_to_mask`` pastes the library's
crop into the full frame, where ``point_in_polygon`` checks it.
``distance_transform`` is scipy's full-frame exact EDT, which
``brute_force_edt`` checks.  ``polygon_to_crop`` is the one-polygon
vectorised fill that ``dataio.table_crops`` replaced, kept as its
reference.
"""

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from crackscope import maskgeom
from crackscope.dataio import polygon_table, table_crops
from crackscope.errors import MalformedLabel, MalformedPrediction, OutOfRange, UndefinedMetric


# ---------------------------------------------------------------------------
# tensor ops


def naive_global_avg_pool(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1))
    for ni in range(n):
        for ci in range(c):
            total = 0.0
            for hi in range(h):
                for wi in range(w):
                    total += x[ni, ci, hi, wi]
            out[ni, ci, 0, 0] = total / (h * w)
    return out


def naive_global_max_pool(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1))
    for ni in range(n):
        for ci in range(c):
            best = -np.inf
            for hi in range(h):
                for wi in range(w):
                    best = max(best, x[ni, ci, hi, wi])
            out[ni, ci, 0, 0] = best
    return out


def naive_conv1d_channels(w, kernel):
    n, c = w.shape[:2]
    half = len(kernel) // 2
    out = np.zeros((n, c, 1, 1))
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for j in range(-half, half + 1):
                src = ci + j
                if 0 <= src < c:
                    acc += kernel[j + half] * w[ni, src, 0, 0]
            out[ni, ci, 0, 0] = acc
    return out


def naive_conv2d(x, kernel, bias, pad):
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for oi in range(cout):
            for y in range(ho):
                for z in range(wo):
                    acc = bias[oi]
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                sy = y + u - pad
                                sz = z + v - pad
                                if 0 <= sy < h and 0 <= sz < w:
                                    acc += kernel[oi, ci, u, v] * x[ni, ci, sy, sz]
                    out[ni, oi, y, z] = acc
    return out


def naive_conv2d_vjp(x, kernel, bias):
    """Stride-1 cross-correlation with same zero padding (``kh // 2`` rows,
    ``kw // 2`` columns), and its pullback ``(dx, dkernel, dbias)``: one
    product per (output pixel, kernel tap) that lands inside the input, each
    accumulated by an explicit loop."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape

    def taps():
        for ni, oi, y, z, ci, u, v in product(*map(range, (n, cout, h, w, cin, kh, kw))):
            sy, sz = y + u - kh // 2, z + v - kw // 2
            if 0 <= sy < h and 0 <= sz < w:
                yield ni, oi, y, z, ci, u, v, sy, sz

    out = np.zeros((n, cout, h, w)) + np.reshape(bias, (1, cout, 1, 1))
    for ni, oi, y, z, ci, u, v, sy, sz in taps():
        out[ni, oi, y, z] += kernel[oi, ci, u, v] * x[ni, ci, sy, sz]

    def pullback(up):
        dx, dkernel, dbias = np.zeros(x.shape), np.zeros(kernel.shape), np.zeros(cout)
        for (ni, oi, y, z), g in np.ndenumerate(up):
            dbias[oi] += g
        for ni, oi, y, z, ci, u, v, sy, sz in taps():
            dx[ni, ci, sy, sz] += up[ni, oi, y, z] * kernel[oi, ci, u, v]
            dkernel[oi, ci, u, v] += up[ni, oi, y, z] * x[ni, ci, sy, sz]
        return dx, dkernel, dbias

    return out, pullback


def naive_maxpool2d(x, k, stride, pad):
    n, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for y in range(ho):
                for z in range(wo):
                    best = -np.inf
                    for u in range(k):
                        for v in range(k):
                            sy = y * stride + u - pad
                            sz = z * stride + v - pad
                            if 0 <= sy < h and 0 <= sz < w:
                                best = max(best, x[ni, ci, sy, sz])
                    out[ni, ci, y, z] = best
    return out


def naive_maxpool2d_vjp(x, k, stride, pad):
    """Max pooling as one k*k reduction per window, and its pullback by a
    per-window ``argmax`` and an ``np.add.at`` scatter: the library's former
    body, kept as the bit-for-bit reference for ``ops.maxpool2d_vjp``."""
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    padded = np.full((n, c, hp, wp), -np.inf, dtype=np.float64)
    padded[:, :, pad : pad + h, pad : pad + w] = x
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = windows.shape[2], windows.shape[3]

    def pullback(up):
        winner = windows.reshape(n, c, ho, wo, k * k).argmax(axis=4)
        grad_pad = np.zeros((n, c, hp, wp), dtype=np.float64)
        ni, ci, oi, oj = np.indices((n, c, ho, wo))
        rows = oi * stride + winner // k
        cols = oj * stride + winner % k
        np.add.at(grad_pad, (ni, ci, rows, cols), np.reshape(up, (n, c, ho, wo)))
        return (grad_pad[:, :, pad : pad + h, pad : pad + w],)

    return windows.max(axis=(4, 5)), pullback


def naive_matvec(x, weight, bias):
    out = np.zeros(weight.shape[0])
    for i in range(weight.shape[0]):
        acc = bias[i]
        for j in range(weight.shape[1]):
            acc += weight[i, j] * x[j]
        out[i] = acc
    return out


def naive_channel_stats(x):
    n, c, h, w = x.shape
    mx = np.zeros((n, 1, h, w))
    mean = np.zeros((n, 1, h, w))
    for ni in range(n):
        for hi in range(h):
            for wi in range(w):
                values = [x[ni, ci, hi, wi] for ci in range(c)]
                mx[ni, 0, hi, wi] = max(values)
                mean[ni, 0, hi, wi] = sum(values) / c
    return mx, mean


def naive_broadcast_mul(x, w):
    n, c, h, wd = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for hi in range(h):
                for wi in range(wd):
                    if w.shape[1] == c and w.shape[2] == 1:
                        factor = w[ni, ci, 0, 0]
                    else:
                        factor = w[ni, 0, hi, wi]
                    out[ni, ci, hi, wi] = x[ni, ci, hi, wi] * factor
    return out


# ---------------------------------------------------------------------------
# mask geometry


def flood_fill_components(mask):
    """BFS 8-connected labeling; returns a list of frozen pixel sets."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    components = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            queue = [(r, c)]
            seen[r, c] = True
            pixels = []
            while queue:
                cr, cc = queue.pop()
                pixels.append((cr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = cr + dr, cc + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            queue.append((nr, nc))
            components.append(frozenset(pixels))
    return components


def brute_force_edt(mask, border_is_background=True):
    """Exact nearest-background distance by exhaustive integer scan."""
    work = np.pad(mask, 1, constant_values=False) if border_is_background else mask
    fg = np.argwhere(work)
    bg = np.argwhere(~work)
    dist = np.zeros(work.shape, dtype=np.float64)
    if len(fg) and len(bg):
        for start in range(0, len(fg), 512):
            chunk = fg[start : start + 512]
            d2 = ((chunk[:, None, :] - bg[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            dist[chunk[:, 0], chunk[:, 1]] = np.sqrt(d2)
    elif len(fg):
        dist[work] = np.inf
    if border_is_background:
        dist = dist[1:-1, 1:-1]
    return dist


def distance_transform(mask):
    """Exact Euclidean distance from each pixel center to the nearest
    background pixel center; background pixels are 0.

    The plane outside the image counts as background, realised by a
    one-pixel background ring (any farther outside pixel is dominated by the
    ring pixel in the same direction).
    """
    padded = np.pad(np.asarray(mask, dtype=bool), 1, constant_values=False)
    return ndimage.distance_transform_edt(padded)[1:-1, 1:-1]


def reference_thinning(mask):
    """Loop-based two-subiteration thinning (independent of the array code)."""
    h, w = mask.shape
    grid = [[1 if mask[r, c] else 0 for c in range(w)] for r in range(h)]

    def at(r, c):
        if 0 <= r < h and 0 <= c < w:
            return grid[r][c]
        return 0

    def neighbors(r, c):
        return [
            at(r - 1, c), at(r - 1, c + 1), at(r, c + 1), at(r + 1, c + 1),
            at(r + 1, c), at(r + 1, c - 1), at(r, c - 1), at(r - 1, c - 1),
        ]

    changed = True
    while changed:
        changed = False
        for step in (0, 1):
            to_delete = []
            for r in range(h):
                for c in range(w):
                    if grid[r][c] == 0:
                        continue
                    ring = neighbors(r, c)
                    b = sum(ring)
                    if not 2 <= b <= 6:
                        continue
                    a = sum(
                        1 for i in range(8) if ring[i] == 0 and ring[(i + 1) % 8] == 1
                    )
                    if a != 1:
                        continue
                    p2, p4, p6, p8 = ring[0], ring[2], ring[4], ring[6]
                    if step == 0:
                        if p2 * p4 * p6 != 0 or p4 * p6 * p8 != 0:
                            continue
                    else:
                        if p2 * p4 * p8 != 0 or p2 * p6 * p8 != 0:
                            continue
                    to_delete.append((r, c))
            for r, c in to_delete:
                grid[r][c] = 0
            if to_delete:
                changed = True
    return np.array(grid, dtype=bool)


def window_thinning(mask):
    """Two-subiteration thinning that evaluates a bbox window per subiteration.

    The whole frame in the first two subiterations, then the bbox of the
    pixels removed in the previous two, grown by one; it stops when that
    window is empty.  This is the array code that the pixel frontier of
    ``maskgeom.skeletonize`` replaced.  It reads ``maskgeom._REMOVABLE`` and
    ``maskgeom._RING`` at call time, so the tables are shared with the code
    it checks (``reference_thinning`` checks them) and a test that swaps in
    counting tables counts this window's lookups too.
    """
    img = np.pad(np.asarray(mask, dtype=bool), 1).view(np.uint8)
    height, width = mask.shape
    full = (0, height, 0, width)
    removed = [full, full]  # removal bboxes of the last two subiterations
    step = 0
    while True:
        boxes = [box for box in removed if box is not None]
        if not boxes:
            return img[1:-1, 1:-1].astype(bool)
        r0, r1, c0, c1 = zip(*boxes)
        r0, r1 = max(min(r0) - 1, 0), min(max(r1) + 1, height)
        c0, c1 = max(min(c0) - 1, 0), min(max(c1) + 1, width)
        code = np.zeros((r1 - r0, c1 - c0), dtype=np.uint8)
        for bit, (dr, dc) in enumerate(maskgeom._RING):
            code |= img[1 + r0 + dr : 1 + r1 + dr, 1 + c0 + dc : 1 + c1 + dc] << bit
        view = img[1 + r0 : 1 + r1, 1 + c0 : 1 + c1]
        remove = maskgeom._REMOVABLE[step][code] & (view == 1)
        view[remove] = 0
        rows = np.flatnonzero(remove.any(axis=1))
        cols = np.flatnonzero(remove.any(axis=0))
        box = (r0 + rows[0], r0 + rows[-1] + 1, c0 + cols[0], c0 + cols[-1] + 1) if len(rows) else None
        removed = [removed[1], box]
        step ^= 1


def naive_analyze_component(pixels, edt, skeleton):
    """Full-frame width report of the component with the given [k, 2] pixels.

    Builds the component's own full-frame mask, takes the skeleton pixels
    inside it in row-major order with width ``2 * edt - 1``, and counts each
    one's 8-neighbours on the whole (any nonzero) skeleton.  Returns
    ``(profile, report)``: the ``[((r, c), width)]`` profile and the report
    fields as a dict (no mm keys); None when the component has no skeleton
    pixels.  Max over every pixel, min over interior ones (degree >= 2) when
    any exist, first pixel on ties.
    """
    skeleton = np.asarray(skeleton).astype(bool)
    edt = np.asarray(edt, dtype=np.float64)
    h, w = skeleton.shape
    inside = np.zeros((h, w), dtype=bool)
    inside[pixels[:, 0], pixels[:, 1]] = True
    own = np.argwhere(skeleton & inside)
    if len(own) == 0:
        return None
    profile = [((int(r), int(c)), 2.0 * edt[r, c] - 1.0) for r, c in own]

    def degree(r, c):
        return sum(
            1
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr or dc) and 0 <= r + dr < h and 0 <= c + dc < w and skeleton[r + dr, c + dc]
        )

    best = max(range(len(profile)), key=lambda i: profile[i][1])
    interior = [i for i in range(len(profile)) if degree(*profile[i][0]) >= 2]
    worst = min(interior or range(len(profile)), key=lambda i: profile[i][1])
    report = {
        "area_px": len(pixels),
        "max_width_px": profile[best][1],
        "max_width_location": profile[best][0],
        "min_width_px": profile[worst][1],
        "min_width_location": profile[worst][0],
        "skeleton_length_px": len(profile),
    }
    return profile, report


def max_inscribed_disk_width(mask, border_is_background=True):
    """Brute-force maximum width: 2*d - 1 over every foreground pixel,
    where d is the exhaustive nearest-background distance."""
    edt = brute_force_edt(mask, border_is_background)
    if not mask.any():
        return 0.0
    return float(2.0 * edt[mask].max() - 1.0)


def polygon_to_crop(polygon, width: int, height: int):
    """Scanline even-odd fill at pixel centers, inside the polygon's own window.

    ``polygon`` is a [k, 2] array of normalized vertices; x scales by
    ``width``, y by ``height``.  Returns ``(row0, col0, crop)``: ``crop``
    holds frame rows ``row0 ..`` and columns ``col0 ..`` and spans every
    foreground pixel; the rest of the frame is background.  Crossings
    are found in absolute pixel coordinates, so the crop is bit-identical to
    the same window of a full-frame fill.  A zero-area polygon
    rasterizes to an empty ``(0, 0)`` crop.
    """
    pts = np.asarray(polygon, dtype=np.float64) * np.array([width, height])
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    empty = (0, 0, np.zeros((0, 0), dtype=bool))
    if np.sum(x1 * y2 - x2 * y1) == 0.0:
        return empty
    # a row can only be hit when its center lies in [min y, max y)
    first_row = max(0, int(np.ceil(y1.min() - 0.5)))
    rows = np.arange(first_row, min(height, int(np.ceil(y1.max() - 0.5))))
    cy = rows[:, None] + 0.5
    hits = ((y1 <= cy) & (cy < y2)) | ((y2 <= cy) & (cy < y1))  # [rows, edges]
    t = np.divide(cy - y1, y2 - y1, out=np.zeros(hits.shape), where=hits)
    crossings = np.where(hits, x1 + t * (x2 - x1), np.inf)
    crossings.sort(axis=1)
    if crossings.shape[1] % 2:
        crossings = crossings[:, :-1]  # an unpaired last crossing fills nothing
    # centers c + 0.5 in each half-open span [a, b), clipped to the frame
    first = np.clip(np.ceil(crossings[:, 0::2] - 0.5), 0, width)
    last = np.clip(np.ceil(crossings[:, 1::2] - 0.5), 0, width)
    filled = np.isfinite(crossings[:, 1::2]) & (first < last)
    span_rows, span_k = np.nonzero(filled)
    if not len(span_rows):
        return empty
    first = first[span_rows, span_k].astype(np.intp)
    last = last[span_rows, span_k].astype(np.intp)
    row0, col0 = first_row + int(span_rows[0]), int(first.min())
    n_rows, n_cols = int(span_rows[-1] - span_rows[0]) + 1, int(last.max()) - col0
    # spans of one row are disjoint: +1 at each start, -1 at each end, then a running sum
    local = (span_rows - span_rows[0]) * (n_cols + 1)
    size = n_rows * (n_cols + 1)
    edges = np.bincount(local + first - col0, minlength=size)
    edges -= np.bincount(local + last - col0, minlength=size)
    crop = np.cumsum(edges.reshape(n_rows, n_cols + 1)[:, :n_cols], axis=1) > 0
    return row0, col0, crop


def polygon_to_mask(polygon, width, height):
    """The full ``[height, width]`` frame of ``dataio.table_crops`` for a
    one-row table: the crop pasted at its offset.  The tests check this
    frame against :func:`point_in_polygon` at every pixel center."""
    ((row0, col0, crop),) = table_crops(polygon_table([0], [polygon]), width, height)
    mask = np.zeros((height, width), dtype=bool)
    mask[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]] = crop
    return mask


def point_in_polygon(px, py, polygon):
    """Even-odd ray casting from the point toward +x."""
    inside = False
    k = len(polygon)
    for i in range(k):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % k]
        if (y1 <= py < y2) or (y2 <= py < y1):
            t = (py - y1) / (y2 - y1)
            if px < x1 + t * (x2 - x1):
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# metrics


def ap_by_threshold_enumeration(flagged, total_gt):
    """AP via explicit threshold sweep and a direct envelope integral."""
    ordered = sorted(flagged, key=lambda pair: -pair[0])
    thresholds = sorted({score for score, _ in ordered}, reverse=True)
    curve = []
    for t in thresholds:
        kept = [flag for score, flag in ordered if score >= t]
        tp = sum(1 for flag in kept if flag)
        curve.append((tp / total_gt, tp / len(kept)))
    area = 0.0
    prev_r = 0.0
    for i, (r, _p) in enumerate(curve):
        if r > prev_r:
            envelope = max(p for (r2, p) in curve if r2 >= r)
            area += (r - prev_r) * envelope
            prev_r = r
    return area


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


def loop_pr_curve(flagged, total_gt):
    """The PR curve as one :class:`PRPoint` per distinct score, highest
    first, from ``(score, is_tp)`` pairs by a loop over the sorted pairs:
    the library's former body, kept as the bit-for-bit reference for
    ``metrics.pr_curve``."""
    if total_gt < 1:
        raise UndefinedMetric("pr curve undefined without ground truths")
    if not flagged:
        return [PRPoint(threshold=1.0, precision=math.nan, recall=0.0)]
    ordered = sorted(flagged, key=lambda pair: -pair[0])
    points = []
    tp = fp = 0
    for idx, (score, is_tp) in enumerate(ordered):
        if is_tp:
            tp += 1
        else:
            fp += 1
        last_of_threshold = idx + 1 == len(ordered) or ordered[idx + 1][0] != score
        if last_of_threshold:
            points.append(PRPoint(float(score), tp / (tp + fp), tp / total_gt))
    return points


def loop_average_precision(points):
    """AP of a :class:`PRPoint` list by one backward loop for the envelope
    (a running max that skips NaN precisions) and one forward loop for the
    area: the library's former body, kept as the bit-for-bit reference for
    ``metrics.average_precision``."""
    points = list(points)
    if not points:
        raise UndefinedMetric("average precision undefined for an empty curve")
    envelope = []
    running = None
    for point in reversed(points):
        if not math.isnan(point.precision) and (running is None or point.precision >= running):
            running = point.precision
        envelope.append(running)
    envelope.reverse()
    area = 0.0
    prev_recall = 0.0
    for point, level in zip(points, envelope):
        if point.recall > prev_recall:
            if level is None:
                raise UndefinedMetric(
                    f"average precision undefined: no defined precision at recall >= {point.recall}"
                )
            area += (point.recall - prev_recall) * level
            prev_recall = point.recall
    return area


def loop_pr_curve_to_csv(points):
    """The CSV of a :class:`PRPoint` list, one formatted row per point: the
    library's former body, kept as the byte-for-byte reference for
    ``metrics.pr_curve_to_csv``."""
    lines = ["threshold,precision,recall"]
    for p in points:
        lines.append(f"{p.threshold:.6f},{p.precision:.6f},{p.recall:.6f}")
    return "\n".join(lines) + "\n"


def naive_average_precision(points):
    """All-points AP with a fresh max over the rest of the curve at every
    recall step (quadratic); NaN precisions are skipped."""
    points = list(points)
    area = 0.0
    prev_recall = 0.0
    for i, point in enumerate(points):
        if point.recall > prev_recall:
            envelope = max(p.precision for p in points[i:] if not math.isnan(p.precision))
            area += (point.recall - prev_recall) * envelope
            prev_recall = point.recall
    return area


def mask_iou(a, b):
    """Pixel IoU of two equal-extent binary masks; 1.0 when both are empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask extents differ: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def corner_iou(a, b):
    """IoU of two (x0, y0, x1, y1) boxes; 0 when they do not overlap."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def polygon_corners(polygon):
    xs = [float(x) for x, _ in polygon]
    ys = [float(y) for _, y in polygon]
    return min(xs), min(ys), max(xs), max(ys)


def greedy_match_reference(preds, gts, iou_matrix, thresh):
    """Greedy matching over a precomputed IoU matrix; returns tp flags + fn."""
    order = sorted(range(len(preds)), key=lambda i: -preds[i])
    used = set()
    flags = [False] * len(preds)
    for i in order:
        best, best_j = 0.0, None
        for j in range(len(gts)):
            if j in used:
                continue
            if iou_matrix[i][j] > best:
                best, best_j = iou_matrix[i][j], j
        if best_j is not None and best >= thresh:
            used.add(best_j)
            flags[i] = True
    return flags, len(gts) - len(used)


# ---------------------------------------------------------------------------
# synthetic shapes (pixel-center membership tests)


def bar_mask(shape, r0, c0, height, width):
    """Axis-aligned filled bar: rows r0..r0+height-1, cols c0..c0+width-1."""
    mask = np.zeros(shape, dtype=bool)
    mask[r0 : r0 + height, c0 : c0 + width] = True
    return mask


def rotated_bar_mask(shape, center, length, width, angle_deg):
    """Digitized bar: pixels whose center lies within width/2 of a segment."""
    h, w = shape
    angle = math.radians(angle_deg)
    ux, uy = math.cos(angle), math.sin(angle)
    cx, cy = center
    half = length / 2.0
    rows, cols = np.mgrid[0:h, 0:w]
    px = cols + 0.5 - cx
    py = rows + 0.5 - cy
    along = px * ux + py * uy
    clamped = np.clip(along, -half, half)
    dx = px - clamped * ux
    dy = py - clamped * uy
    return np.hypot(dx, dy) <= width / 2.0


def disk_mask(shape, center, radius):
    h, w = shape
    rows, cols = np.mgrid[0:h, 0:w]
    return (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= radius**2


def wedge_mask(shape, tip, base_row, half_width):
    """Triangle from a tip pixel widening linearly toward base_row."""
    h, w = shape
    rows, cols = np.mgrid[0:h, 0:w]
    tr, tc = tip
    span = max(base_row - tr, 1)
    frac = np.clip((rows - tr) / span, 0, None)
    return (rows >= tr) & (rows <= base_row) & (np.abs(cols - tc) <= frac * half_width)


def l_shape_mask(shape, thickness, arm):
    mask = np.zeros(shape, dtype=bool)
    mask[10 : 10 + arm, 10 : 10 + thickness] = True
    mask[10 + arm - thickness : 10 + arm, 10 : 10 + arm] = True
    return mask


# ---------------------------------------------------------------------------
# label and prediction files: one checked record object per line, the
# readers that ``crackscope.dataio``'s one column check replaced, unchanged


def _class_id(value, error) -> int:
    """``value`` as a class id, an integer >= 0; anything else is ``error``."""
    # exact-type test first: the ABC check is slow, and bool is an int
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"class must be an integer, got {value!r}")
        value = int(value)
    if value < 0:
        raise error(f"class id must be >= 0, got {value}")
    return value


def _all_numbers(polygon) -> bool:
    """Whether a ``[k, 2]`` polygon holds only numbers: ``np.asarray`` would
    turn ``"0.5"`` and ``True`` into floats."""
    if isinstance(polygon, np.ndarray):
        return polygon.dtype.kind in "fiu"
    for x, y in polygon:
        # exact types first, as JSON gives them: the ABC checks are slow
        if type(x) is not float or type(y) is not float:
            values = chain.from_iterable(polygon)
            return all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)
    return True


def _polygon(value, error) -> np.ndarray:
    """``value`` as a ``[k >= 3, 2]`` float array.  A bad shape or a value
    that is not a number is ``error``; a value that is not finite and in
    [0, 1] is :class:`OutOfRange`."""
    try:
        poly = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"polygon is not an array of numbers ({exc})") from None
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise error(f"polygon needs >= 3 (x, y) vertices, got shape {poly.shape}")
    if not _all_numbers(value):
        raise error("polygon coordinates must be numbers, not text or bools")
    if not (poly.min() >= 0.0 and poly.max() <= 1.0):  # a NaN fails both
        raise OutOfRange("polygon coordinates must be finite and lie in [0, 1]")
    return poly


@dataclass(frozen=True, eq=False)
class LabelRecord:
    """One labeled polygon: class id plus >= 3 normalized (x, y) vertices."""

    class_id: int
    polygon: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_id", _class_id(self.class_id, MalformedLabel))
        object.__setattr__(self, "polygon", _polygon(self.polygon, MalformedLabel))


@dataclass(frozen=True, eq=False)
class DetectionRecord:
    """One scored prediction: image id, class, confidence and a polygon of
    >= 3 normalized (x, y) vertices."""

    image_id: str
    class_id: int
    score: float
    polygon: np.ndarray

    def __post_init__(self):
        if not isinstance(self.image_id, str):
            raise MalformedPrediction(f"image id must be a string, got {self.image_id!r}")
        object.__setattr__(self, "class_id", _class_id(self.class_id, MalformedPrediction))
        if type(self.score) is not float:
            if isinstance(self.score, bool) or not isinstance(self.score, numbers.Real):
                raise MalformedPrediction(f"score must be a number, got {self.score!r}")
            object.__setattr__(self, "score", float(self.score))
        if not 0.0 <= self.score <= 1.0:
            raise OutOfRange(f"score must be in [0, 1], got {self.score}")
        object.__setattr__(self, "polygon", _polygon(self.polygon, MalformedPrediction))


def parse_label_file(text: str) -> list[LabelRecord]:
    """Parse ``class x1 y1 x2 y2 ...`` lines into records, order preserved."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            class_id = int(tokens[0])
            coords = [float(tok) for tok in tokens[1:]]
        except ValueError as exc:
            raise MalformedLabel(f"line {lineno}: unparseable token ({exc})") from None
        if len(coords) % 2 != 0:
            raise MalformedLabel(f"line {lineno}: odd coordinate count {len(coords)}")
        polygon = np.array(coords, dtype=np.float64).reshape(-1, 2)
        try:
            records.append(LabelRecord(class_id, polygon))
        except (MalformedLabel, OutOfRange) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return records


def read_predictions(text: str) -> list[DetectionRecord]:
    """One JSON object per line: ``image``, ``class``, ``score``, ``polygon``."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedPrediction(f"line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise MalformedPrediction(f"line {lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(doc, dict):
            raise MalformedPrediction(f"line {lineno}: expected a JSON object")
        try:
            fields = doc["image"], doc["class"], doc["score"], doc["polygon"]
        except KeyError as exc:
            raise MalformedPrediction(f"line {lineno}: missing key {exc}") from None
        try:
            records.append(DetectionRecord(*fields))
        except (MalformedPrediction, OutOfRange) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return records
