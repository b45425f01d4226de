"""Dataset ingestion and serialization.

Formats::

    label files        one polygon per line: ``class x1 y1 x2 y2 ...`` with
                       normalized coordinates in [0, 1] and >= 3 vertices
    prediction files   one JSON object per line with keys
                       ``image``, ``class``, ``score``, ``polygon``
    masks              binary (P5) portable graymaps, maxval <= 255, no
                       sample above maxval; written at maxval 255

The train/val/test split shuffles with a pinned 64-bit linear congruential
generator (state' = 6364136223846793005 * state + 1442695040888963407
mod 2^64, drawing indices from the top 31 bits) and a Fisher-Yates pass,
then slices contiguously.  The same items and seed give the identical
partition on every platform.

Polygon rasterization uses scanline even-odd filling with the pixel-center
rule: a pixel is foreground iff its center lies inside the polygon.  One
vectorised body fills only the rows and columns the polygon can cover and
returns that crop with its offset (:func:`polygon_to_crop`);
:func:`polygon_to_mask` places the crop in the full frame.

Each label or prediction file reads into one :class:`PolygonTable`: a
class, score and (for predictions) image id column, every vertex of the
file in one ``[V, 2]`` array with row offsets, and each polygon's bounding
box.  :func:`polygon_table` is the one check, run over whole columns: a
class id is an integer in [0, 2^63), a score a number in [0, 1], an image id
a string, and a polygon >= 3 (x, y) vertices of numbers in [0, 1].  An
error names the first bad line, and within it the first failing check.
"""

from __future__ import annotations

import json
import numbers
import os
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptImage,
    InvalidSplit,
    MalformedLabel,
    MalformedPrediction,
    OutOfRange,
    UnsupportedFormat,
)

__all__ = [
    "PolygonRow",
    "PolygonTable",
    "polygon_table",
    "SplitSpec",
    "parse_label_file",
    "polygon_to_crop",
    "polygon_to_mask",
    "split_dataset",
    "read_pgm",
    "write_pgm",
    "read_predictions",
    "atomic_write_text",
]


class PolygonRow(NamedTuple):
    """An unchecked row view of a :class:`PolygonTable`."""

    image_id: str | None
    class_id: int
    score: float
    polygon: np.ndarray


@dataclass(frozen=True, eq=False)
class PolygonTable:
    """One file's polygons as checked columns (see :func:`polygon_table`):
    int64 ``class_ids``, float64 ``scores``, object ``image_ids`` (None for
    labels), float64 ``vertices`` ``[V, 2]`` with row ``i``'s polygon at
    ``starts[i]:starts[i + 1]``, and ``corners`` ``[n, 4]``, each polygon's
    ``(x0, y0, x1, y1)`` bounds.  An int index gives a :class:`PolygonRow`,
    a slice or an index array the table of those rows."""

    class_ids: np.ndarray
    scores: np.ndarray
    image_ids: np.ndarray | None
    vertices: np.ndarray
    starts: np.ndarray
    corners: np.ndarray

    def __len__(self) -> int:
        return len(self.class_ids)

    def __getitem__(self, index):
        ids = self.image_ids
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]  # its IndexError ends an iteration
            polygon = self.vertices[self.starts[i] : self.starts[i + 1]]
            image_id = None if ids is None else ids[i]
            return PolygonRow(image_id, int(self.class_ids[i]), float(self.scores[i]), polygon)
        rows = np.arange(len(self))[index]
        counts = np.diff(self.starts)[rows]
        starts = np.concatenate([[0], np.cumsum(counts)])
        take = np.repeat(self.starts[rows] - starts[:-1], counts) + np.arange(starts[-1])
        return PolygonTable(self.class_ids[rows], self.scores[rows], ids if ids is None else ids[rows],
                            self.vertices[take], starts, self.corners[rows])


_SHAPE_ERROR = "polygon needs >= 3 (x, y) vertices, got shape {}"


def _stack(polygons, error):
    """``(vertices, counts, failure)``: the polygons' vertices in one float
    ``[V, 2]`` array and the count of each, up to the first polygon that is
    not (x, y) pairs of numbers; ``failure`` is its ``(row, error type,
    message)``.  A polygon of fewer than 3 pairs ends the stack as its last
    row, for the vertex-count check."""
    if set(map(type, polygons)) <= {list}:  # JSON's lists of [x, y] numbers convert at once
        pairs, counts = list(chain.from_iterable(polygons)), list(map(len, polygons))
        if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2} and 0 not in counts:
            coords = list(chain.from_iterable(pairs))
            if set(map(type, coords)) <= {float, int}:
                with suppress(OverflowError):  # an integer beyond float range fails below
                    return np.array(coords, dtype=np.float64).reshape(-1, 2), counts, None
    arrays, failure = [], None
    for row, value in enumerate(polygons):
        try:
            poly = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            failure = row, error, f"polygon is not an array of numbers ({exc})"
            break
        if poly.ndim != 2 or poly.shape[1] != 2:
            failure = row, error, _SHAPE_ERROR.format(poly.shape)
            break
        arrays.append(poly)
        if len(poly) < 3:
            break
        # np.asarray turns "0.5", True and None into floats
        if not (value.dtype.kind in "fiu" if isinstance(value, np.ndarray) else all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in chain.from_iterable(value))):
            failure = row, error, "polygon coordinates must be numbers, not text or bools"
            break
    return np.concatenate(arrays) if arrays else np.zeros((0, 2)), [len(a) for a in arrays], failure


def _first(flags):
    """Index of the first true flag, or None."""
    flags = np.asarray(flags, dtype=bool)
    return int(flags.argmax()) if flags.any() else None


def _score_range_error(score):
    with suppress(OverflowError):  # an integer beyond float range is shown as it is
        score = float(score)
    return f"score must be in [0, 1], got {score}"


def _checked(class_ids, scores, image_ids, lines, stacked) -> PolygonTable:
    """The table of these columns and the polygons ``stacked`` by
    :func:`_stack`, or the first failing check of the first bad row.  Each
    check runs once over its column, in a row's order: image id type, class
    type and range, score type and range, then the polygon's conversion,
    shape and coordinate types (by :func:`_stack`), vertex count and
    coordinate range.  The message starts ``line <lines[row]>: ``, or
    ``row <row>: `` when ``lines`` is None."""
    vertices, counts, failure = stacked
    error = MalformedLabel if image_ids is None else MalformedPrediction
    first = failure or (len(class_ids), None, None)  # (row, error type, message)
    limit = first[0] + 1  # a polygon error ranks after its row's other errors
    for column, bad, kind, message in (
        (image_ids, lambda v: not isinstance(v, str), error,
         lambda v: f"image id must be a string, got {v!r}"),
        (class_ids, lambda v: type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)),
         error, lambda v: f"class must be an integer, got {v!r}"),
        (class_ids, lambda v: v < 0, error, lambda v: f"class id must be >= 0, got {int(v)}"),
        (class_ids, lambda v: v >= 2**63, error, lambda v: f"class id must be < 2^63, got {int(v)}"),
        (scores, lambda v: type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)),
         error, lambda v: f"score must be a number, got {v!r}"),
        (scores, lambda v: not 0.0 <= v <= 1.0, OutOfRange, _score_range_error),
    ):
        row = None if column is None else _first(list(map(bad, column[:limit])))
        if row is not None:
            first, limit = (row, kind, message(column[row])), row
    counts = np.array(counts[: first[0]], dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(counts)])
    short = _first(counts < 3)
    end = starts[len(counts) if short is None else short]  # a NaN is neither >= 0 nor <= 1
    outside = _first(~((vertices[:end] >= 0.0) & (vertices[:end] <= 1.0)).all(axis=1))
    if outside is not None:
        first = (int(np.searchsorted(starts, outside, side="right")) - 1, OutOfRange,
                 "polygon coordinates must be finite and lie in [0, 1]")
    elif short is not None:
        first = short, error, _SHAPE_ERROR.format((int(counts[short]), 2))
    row, kind, message = first
    if kind is not None:
        raise kind(f"row {row}: {message}" if lines is None else f"line {lines[row]}: {message}")
    corners = np.hstack([ufunc.reduceat(vertices, starts[:-1]) for ufunc in (np.minimum, np.maximum)])
    return PolygonTable(np.array([int(v) for v in class_ids], dtype=np.int64),
                        np.ones(len(counts)) if scores is None else np.array(scores, dtype=np.float64),
                        image_ids if image_ids is None else np.array(image_ids, dtype=object),
                        vertices, starts, corners)


def _concat(tables) -> PolygonTable:
    """The rows of prediction ``tables``, in order, as one table."""
    offsets = np.cumsum([0] + [len(t.vertices) for t in tables])
    starts = np.concatenate([t.starts[:-1] + o for t, o in zip(tables, offsets)] + [offsets[-1:]])
    return PolygonTable(np.concatenate([t.class_ids for t in tables]),
                        np.concatenate([t.scores for t in tables]),
                        np.concatenate([t.image_ids for t in tables]),
                        np.concatenate([t.vertices for t in tables]), starts,
                        np.concatenate([t.corners for t in tables]))


def polygon_table(class_ids, polygons, scores=None, image_ids=None) -> PolygonTable:
    """The checked table of one column per field.  ``polygons`` are ``[k, 2]``
    sequences of numbers (never text or bools); labels have no ``scores``
    (all 1.0) and no ``image_ids``.  A bad value raises
    :class:`MalformedLabel`, or :class:`MalformedPrediction` in a table with
    image ids, and a number out of range :class:`OutOfRange`, naming the
    first bad row."""
    error = MalformedLabel if image_ids is None else MalformedPrediction
    return _checked(class_ids, scores, image_ids, None, _stack(polygons, error))


@dataclass(frozen=True)
class SplitSpec:
    """Requested train/val/test sizes and the shuffle seed."""

    train: int
    val: int
    test: int
    seed: int = 0

    def __post_init__(self):
        if min(self.train, self.val, self.test) < 0:
            raise InvalidSplit(f"split sizes must be nonnegative: {self}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSplit(f"seed must be in [0, 2^64), got {self.seed}")

    @property
    def total(self) -> int:
        return self.train + self.val + self.test


# ---------------------------------------------------------------------------
# label files


def parse_label_file(text: str) -> PolygonTable:
    """Parse ``class x1 y1 x2 y2 ...`` lines into a table, order preserved."""
    class_ids, counts, coords, lines = [], [], [], []
    syntax = None  # reported unless an earlier line fails a value check
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            class_id = int(tokens[0])
            values = [float(tok) for tok in tokens[1:]]
        except ValueError as exc:
            syntax = MalformedLabel(f"line {lineno}: unparseable token ({exc})")
            break
        if len(values) % 2 != 0:
            syntax = MalformedLabel(f"line {lineno}: odd coordinate count {len(values)}")
            break
        class_ids.append(class_id)
        counts.append(len(values) // 2)
        coords.extend(values)
        lines.append(lineno)
    vertices = np.array(coords, dtype=np.float64).reshape(-1, 2)
    table = _checked(class_ids, None, None, lines, (vertices, counts, None))
    if syntax is not None:
        raise syntax
    return table


# ---------------------------------------------------------------------------
# rasterization


def polygon_to_crop(polygon, width: int, height: int):
    """Scanline even-odd fill at pixel centers, inside the polygon's own window.

    ``polygon`` is a [k, 2] array of normalized vertices; x scales by
    ``width``, y by ``height``.  Returns ``(row0, col0, crop)``: ``crop``
    holds frame rows ``row0 ..`` and columns ``col0 ..`` and spans every
    foreground pixel; the rest of the frame is background.  Crossings
    are found in absolute pixel coordinates, so the crop is bit-identical to
    the same window of :func:`polygon_to_mask`.  A zero-area polygon
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


def polygon_to_mask(polygon, width: int, height: int) -> np.ndarray:
    """The full ``[height, width]`` frame of :func:`polygon_to_crop`."""
    row0, col0, crop = polygon_to_crop(polygon, width, height)
    mask = np.zeros((height, width), dtype=bool)
    mask[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]] = crop
    return mask


# ---------------------------------------------------------------------------
# dataset split


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class _Lcg:
    """Pinned 64-bit linear congruential generator (cross-platform shuffles)."""

    def __init__(self, seed: int):
        self.state = seed

    def below(self, bound: int) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return (self.state >> 33) % bound


def split_dataset(items, spec: SplitSpec):
    """Seeded shuffle then contiguous train/val/test slices.

    The three lists are disjoint and cover exactly the first
    ``spec.total`` shuffled items; leftovers (when the spec does not use
    every item) are dropped.
    """
    items = list(items)
    if spec.total > len(items):
        raise InvalidSplit(f"split needs {spec.total} items but only {len(items)} given")
    rng = _Lcg(spec.seed)
    shuffled = list(items)
    for i in range(len(shuffled) - 1, 0, -1):  # Fisher-Yates, fixed order
        j = rng.below(i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    train = shuffled[: spec.train]
    val = shuffled[spec.train : spec.train + spec.val]
    test = shuffled[spec.train + spec.val : spec.total]
    return train, val, test


# ---------------------------------------------------------------------------
# portable graymap (binary P5)


def read_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """Parse a binary P5 graymap with maxval <= 255 into a uint8 array and
    its maxval.

    Header comments (``#`` through end of line) are honored; ASCII (P2) and
    other magics are rejected, and so is a sample above maxval.
    """
    if not data.startswith(b"P5"):
        raise UnsupportedFormat("not a binary P5 graymap")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise CorruptImage("truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise CorruptImage(f"unexpected header byte {ch!r}")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise CorruptImage(f"bad extents {width}x{height}")
    if not 0 < maxval <= 255:
        raise UnsupportedFormat(f"maxval {maxval} outside 8-bit range")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise CorruptImage("missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and raster
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise CorruptImage(f"raster has {len(raster)} bytes, needs {width * height}")
    gray = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    if gray.max() > maxval:
        raise CorruptImage(f"sample {gray.max()} exceeds maxval {maxval}")
    return gray, maxval


def write_pgm(image) -> bytes:
    """Serialize an image of integers in [0, 255] as canonical binary P5 at
    maxval 255 (round-trip stable).  Any other value, NaN included, is
    :class:`OutOfRange`."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise CorruptImage(f"image must be nonempty 2-D, got shape {arr.shape}")
    if arr.dtype.kind not in "uif":
        raise OutOfRange(f"image samples must be numbers, got dtype {arr.dtype}")
    # a NaN fails every comparison
    if not (np.all(arr >= 0) and np.all(arr <= 255) and np.all(arr == np.floor(arr))):
        raise OutOfRange("image samples must be integers in [0, 255]")
    height, width = arr.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + arr.astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# prediction files (JSON lines)


_CHUNK_ROWS = 1024  # parsed JSON takes far more memory than its table: check it as it comes


def _json_row(lineno, line):
    """``(lineno, image, class, score, polygon)`` of one prediction line."""
    try:
        doc = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise MalformedPrediction(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
    except RecursionError:
        raise MalformedPrediction(f"line {lineno}: invalid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise MalformedPrediction(f"line {lineno}: expected a JSON object")
    try:
        return lineno, doc["image"], doc["class"], doc["score"], doc["polygon"]
    except KeyError as exc:
        raise MalformedPrediction(f"line {lineno}: missing key {exc}") from None


def read_predictions(text: str) -> PolygonTable:
    """One JSON object per line: ``image``, ``class``, ``score``, ``polygon``."""

    def table(rows):
        lines, image_ids, class_ids, scores, polygons = zip(*rows) if rows else ((),) * 5
        return _checked(class_ids, scores, image_ids, lines, _stack(polygons, MalformedPrediction))

    tables, rows, syntax = [], [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(_json_row(lineno, line))
        except MalformedPrediction as exc:  # reported unless an earlier line fails a value check
            syntax = exc
            break
        if len(rows) == _CHUNK_ROWS:
            tables.append(table(rows))
            rows = []
    tables.append(table(rows))
    if syntax is not None:
        raise syntax
    return _concat(tables)


# ---------------------------------------------------------------------------
# atomic writes (write to a temp file in the target directory, then rename)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` so that a reader sees the old file
    or the whole new one, never a part."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except OSError as exc:  # name the caller's path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
