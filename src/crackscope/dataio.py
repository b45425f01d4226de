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
rule: a pixel is foreground iff its center lies inside the polygon.
:func:`table_crops` fills every row of a :class:`PolygonTable` in one
vectorised pass, each edge only in the rows whose center it spans, and
returns each crop with its offset; a caller that needs the full frame places
the crops in it.  ``eval`` rasterizes once per group of images.

Each label or prediction file reads into one :class:`PolygonTable`: a
class, score and (for predictions) image id column, every vertex of the
file in one ``[V, 2]`` array with row offsets, and each polygon's bounding
box.  :func:`polygon_table` is the one check, run over whole columns: a
class id is an integer in [0, 2^63), a score a number in [0, 1], an image id
a string, and a polygon >= 3 (x, y) vertices of numbers in [0, 1].  Each
column check confirms the column in one pass and scans it value by value
only to name a failure.  An error names the first bad line, and within it
the first failing check.  :func:`parse_label_files` checks all the label
files of a run together, in one table with each file's row bounds.
A step-1 slice of a table gives views, an index array copies.
:func:`read_predictions` pauses the cyclic garbage collector while parsed
JSON is alive: ``json.loads`` builds only acyclic lists and dicts, which
reference counting frees, so a collector pass over them finds nothing.  It
splits its text into lines one block at a time, so only that block's lines
are alive at once.
"""

from __future__ import annotations

import gc
import json
import numbers
import os
import re
import tempfile
from array import array
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptImage,
    CrackscopeError,
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
    "parse_label_files",
    "table_crops",
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
    a slice or an index array the table of those rows: a step-1 slice as
    views of these columns, any other slice or an index array as copies."""

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
        if isinstance(index, slice) and index.step in (None, 1):  # views of every column
            lo, hi, _ = index.indices(len(self))
            hi, starts = max(lo, hi), self.starts[lo : max(lo, hi) + 1]
            return PolygonTable(self.class_ids[lo:hi], self.scores[lo:hi], ids if ids is None else ids[lo:hi],
                                self.vertices[starts[0] : starts[-1]], starts - starts[0], self.corners[lo:hi])
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


def _first_bad(column, confirm, bad):
    """Index of the first ``bad`` value of ``column``, or None.  A column
    that ``confirm`` passes in one pass has none; only one that it fails, or
    raises on, is scanned value by value."""
    with suppress(Exception):  # say an integer beyond float range: the scan names its row
        if confirm(column):
            return None
    return _first(list(map(bad, column)))


def _in_unit(column) -> bool:
    """Every number of a column of floats and ints lies in [0, 1] (a NaN does not)."""
    values = np.array(column, dtype=np.float64)
    return bool(((values >= 0.0) & (values <= 1.0)).all())


def _score_range_error(score):
    with suppress(OverflowError):  # an integer beyond float range is shown as it is
        score = float(score)
    return f"score must be in [0, 1], got {score}"


def _checked(class_ids, scores, image_ids, where, stacked) -> PolygonTable:
    """The table of these columns and the polygons ``stacked`` by
    :func:`_stack`, or the first failing check of the first bad row.  Each
    check runs once over its column, in a row's order: image id type, class
    type and range, score type and range, then the polygon's conversion,
    shape and coordinate types (by :func:`_stack`), vertex count and
    coordinate range (see :func:`_first_bad`).  The message starts
    ``<where(row)>: ``."""
    vertices, counts, failure = stacked
    error = MalformedLabel if image_ids is None else MalformedPrediction
    first = failure or (len(class_ids), None, None)  # (row, error type, message)
    limit = first[0] + 1  # a polygon error ranks after its row's other errors
    for column, confirm, bad, kind, message in (
        (image_ids, lambda c: set(map(type, c)) <= {str},
         lambda v: not isinstance(v, str), error, lambda v: f"image id must be a string, got {v!r}"),
        (class_ids, lambda c: set(map(type, c)) <= {int},
         lambda v: type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)),
         error, lambda v: f"class must be an integer, got {v!r}"),
        (class_ids, lambda c: set(map(type, c)) <= {int} and min(c, default=0) >= 0,
         lambda v: v < 0, error, lambda v: f"class id must be >= 0, got {int(v)}"),
        (class_ids, lambda c: set(map(type, c)) <= {int} and max(c, default=0) < 2**63,
         lambda v: v >= 2**63, error, lambda v: f"class id must be < 2^63, got {int(v)}"),
        (scores, lambda c: set(map(type, c)) <= {float, int},
         lambda v: type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)),
         error, lambda v: f"score must be a number, got {v!r}"),
        (scores, lambda c: set(map(type, c)) <= {float, int} and _in_unit(c),
         lambda v: not 0.0 <= v <= 1.0, OutOfRange, _score_range_error),
    ):
        row = None if column is None else _first_bad(column[:limit], confirm, bad)
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
        raise kind(f"{where(row)}: {message}")
    corners = np.hstack([ufunc.reduceat(vertices, starts[:-1]) for ufunc in (np.minimum, np.maximum)])
    ints = class_ids if set(map(type, class_ids)) <= {int} else [int(v) for v in class_ids]
    return PolygonTable(np.array(ints, dtype=np.int64),
                        # + 0.0 turns a score of -0.0 into 0.0
                        np.ones(len(counts)) if scores is None else np.array(scores, dtype=np.float64) + 0.0,
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
    return _checked(class_ids, scores, image_ids, "row {}".format, _stack(polygons, error))


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
    return parse_label_files([None], lambda _: text)[0]


def parse_label_files(paths, read) -> tuple[PolygonTable, list]:
    """The label files' one table, tokenized one file at a time and checked
    together, and its bounds: file ``k``, read by ``read(path)``, holds rows
    ``bounds[k]:bounds[k + 1]``.  An error starts ``<path>: line N: ``
    (``line N: `` for a path of None) and is the first that parsing each file
    alone in turn would raise: a read or syntax error follows earlier rows' value errors."""
    class_ids, counts, lines, names, ends, coords = [], [], [], [], [], array("d")
    failure = None  # raised unless an earlier row fails a value check
    for path in paths:
        try:
            text = read(path)
        except (OSError, CrackscopeError) as exc:  # a file that cannot be read, or is not UTF-8
            failure = exc
            break
        name = "" if path is None else f"{path}: "
        plain = text.isascii() and "_" not in text  # else int() and float() may read '1_0' or '٣'
        # a line ends at "\n" only: str.splitlines also ends one at "\f", "\x85",
        # "\u2028" and their kin; the "\r" of "\r\n" is whitespace to both readers
        for lineno, line in enumerate(text.split("\n"), start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                if not plain and (odd := [tok for tok in tokens if not tok.isascii() or "_" in tok]):
                    raise ValueError(f"{odd[0]!r} holds '_' or a non-ASCII character")
                class_id = int(tokens[0])
                values = list(map(float, tokens[1:]))
            except ValueError as exc:
                failure = MalformedLabel(f"{name}line {lineno}: unparseable token ({exc})")
                break
            if len(values) % 2 != 0:
                failure = MalformedLabel(f"{name}line {lineno}: odd coordinate count {len(values)}")
                break
            class_ids.append(class_id)
            counts.append(len(values) // 2)
            coords.fromlist(values)
            lines.append(lineno)
        names.append(name)
        ends.append(len(class_ids))
        if failure is not None:
            break
    vertices = np.frombuffer(coords, dtype=np.float64).reshape(-1, 2)
    where = lambda row: f"{names[bisect_right(ends, row)]}line {lines[row]}"  # noqa: E731
    table = _checked(class_ids, None, None, where, (vertices, counts, None))
    if failure is not None:
        raise failure
    return table, [0, *ends]


# ---------------------------------------------------------------------------
# rasterization


_WINDOW_SLOTS = 1 << 20  # bool window slots of one group of images (or of one image that holds more)


def table_crops(table: PolygonTable, width: int, height: int) -> list:
    """Scanline even-odd fill at pixel centers of every row of ``table``.

    Vertices are normalized; x scales by ``width``, y by ``height``.  Returns
    one ``(row0, col0, crop)`` per row: ``crop`` holds frame rows ``row0 ..``
    and columns ``col0 ..`` and spans every foreground pixel of that polygon;
    a polygon of zero signed area, or one that holds no pixel center, gives
    an empty ``(0, 0)`` crop.  Crossings are found in absolute pixel
    coordinates, so a crop is bit-identical to the same window of a
    full-frame fill.

    One pass serves the whole table: every edge's crossings with exactly the
    rows whose center it spans, sorted by (polygon, row, x), pair up into
    spans.  The windows, one spare column per row, lie in one bool buffer:
    each span's start and end toggle their slot, and one running XOR in
    place fills the spans, back at False at the end of every row.
    """
    n = len(table)
    empty = (0, 0, np.zeros((0, 0), dtype=bool))
    pts = table.vertices * np.array([width, height])
    x1, y1 = pts[:, 0], pts[:, 1]
    starts = table.starts
    poly = np.repeat(np.arange(n), np.diff(starts))
    succ = np.arange(1, len(pts) + 1)  # each vertex's successor in its polygon
    succ[starts[1:] - 1] = starts[:-1]
    x2, y2 = x1[succ], y1[succ]
    # signed areas bit for bit as np.sum gives them, 0.0 plus a pairwise sum:
    # each polygon's terms follow a 0.0 that reduceat starts from
    terms = np.zeros(len(pts) + n)
    terms[np.arange(len(pts)) + poly + 1] = x1 * y2 - x2 * y1
    area = np.add.reduceat(terms, starts[:-1] + np.arange(n))
    edge = np.flatnonzero((area[poly] != 0.0) & (y1 != y2))

    def rows_between(low, high):  # rows whose center lies in [low, high): v - 0.5 is exact for v >= 0.5
        first = np.ceil(low - 0.5).astype(np.intp)
        return first, np.ceil(high - 0.5).astype(np.intp) - first

    # each polygon's band of rows, stacked; a zero-area polygon's band is empty
    top, band = rows_between(*(f.reduceat(y1, starts[:-1]) for f in (np.minimum, np.maximum)))
    band[area == 0.0] = 0
    stack = np.cumsum(band) - band
    # each edge's rows: those whose center lies between its ends
    first, count = rows_between(np.minimum(y1, y2)[edge], np.maximum(y1, y2)[edge])
    edge = np.repeat(edge, count)
    rows = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(edge))
    t = (rows + 0.5 - y1[edge]) / (y2[edge] - y1[edge])
    x = x1[edge] + t * (x2[edge] - x1[edge])
    # an edge crosses a row iff its ends lie on either side of the center, so a
    # polygon crosses each row an even number of times: sorted by (polygon,
    # row, x), the crossings pair up 0-1, 2-3, ... within each row, into spans
    # of the centers c + 0.5 in [a, b).  A span needs only ceil(x - 0.5), which
    # rises with x, so one sort of (band row, column) keys pairs the same columns.
    owner = poly[edge]
    column = np.clip(np.ceil(x - 0.5), 0, width).astype(np.intp)
    key = np.sort((stack[owner] + rows - top[owner]) * (width + 1) + column)
    level, on = np.divmod(key[0::2], width + 1)
    off = key[1::2] % (width + 1)
    span = on < off
    level, on, off = level[span], on[span], off[span]
    if not len(level):
        return [empty] * n

    owner = np.searchsorted(stack, level, side="right") - 1  # past the empty bands
    heads = np.flatnonzero(np.append(True, owner[1:] != owner[:-1]))  # each window's first span
    owner = owner[heads]
    row0 = level[heads] - stack[owner] + top[owner]
    n_rows = level[np.append(heads[1:], len(level)) - 1] - level[heads] + 1
    col0 = np.minimum.reduceat(on, heads)
    n_cols = np.maximum.reduceat(off, heads) - col0
    size = n_rows * (n_cols + 1)
    offset = np.cumsum(size) - size
    window = np.repeat(np.arange(len(heads)), np.diff(np.append(heads, len(level))))
    slot = offset[window] + (level - level[heads][window]) * (n_cols[window] + 1) - col0[window]
    # spans are disjoint and nonempty: starts are distinct slots, and so are ends
    filled = np.zeros(int(offset[-1] + size[-1]), dtype=bool)
    filled[on + slot] = True
    filled[off + slot] ^= True
    np.logical_xor.accumulate(filled, out=filled)
    crops = [empty] * n
    for p, r, c, h, w, o in zip(*(v.tolist() for v in (owner, row0, col0, n_rows, n_cols, offset))):
        crops[p] = (r, c, filled[o : o + h * (w + 1)].reshape(h, w + 1)[:, :w])
    return crops


def _group_crops(sides, bounds, width, height):
    """``(images, crops)`` for each group of consecutive images: one image, or as
    many as keep their windows (bounded from the corners) within ``_WINDOW_SLOTS``.
    Image ``k`` holds rows ``bounds[s][k]:bounds[s][k + 1]`` of side ``s``, and
    ``crops[k - images.start]`` its crops on each side, from one :func:`table_crops`
    call per side.  A caller drops a group's crops before it takes the next."""
    slots = 0
    for side, b in zip(sides, bounds):
        x0, y0, x1, y1 = np.ceil(side.corners * [width, height, width, height] - 0.5).T
        total = np.append(0, np.cumsum((y1 - y0) * (x1 - x0 + 2)))  # a spare column and one of slack
        slots = slots + total[b[1:]] - total[b[:-1]]
    cuts, held = [0], 0
    for k, s in enumerate(slots.tolist()):
        if held + s > _WINDOW_SLOTS and k > cuts[-1]:
            cuts.append(k)
            held = 0
        held += s
    for i, j in zip(cuts, [*cuts[1:], len(slots)]):
        crops = [table_crops(side[b[i] : b[j]], width, height) for side, b in zip(sides, bounds)]
        yield range(i, j), [[c[b[k] - b[i] : b[k + 1] - b[i]] for c, b in zip(crops, bounds)]
                            for k in range(i, j)]
        del crops


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


# whitespace and comments between header fields; for bytes, ``\s`` and ``\d``
# are exactly ``bytes.isspace`` and ``isdigit``.  A match takes at most 1024
# comments, since the repeat keeps backtracking state per comment.
_HEADER_GAP = re.compile(rb"\s*(?:#[^\n]*\s*){0,1024}")
_HEADER_DIGITS = re.compile(rb"\d+")


def read_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """Parse a binary P5 graymap with maxval <= 255 into a uint8 array and
    its maxval.

    Header comments (``#`` through end of line) are honored; ASCII (P2) and
    other magics are rejected, and so are a header field of more than 18
    significant digits and a sample above maxval.
    """
    if not data.startswith(b"P5"):
        raise UnsupportedFormat("not a binary P5 graymap")
    pos = 2
    fields = []
    while len(fields) < 3:
        pos = _HEADER_GAP.match(data, pos).end()
        if pos >= len(data):
            raise CorruptImage("truncated header")
        if data.startswith(b"#", pos):  # the gap holds more comments than one match takes
            continue
        field = _HEADER_DIGITS.match(data, pos)
        if field is None:
            raise CorruptImage(f"unexpected header byte {data[pos : pos + 1]!r}")
        pos = field.end()
        digits = field[0].lstrip(b"0")  # checked before int() meets its digit limit
        if len(digits) > 18:
            raise CorruptImage(f"header field of {len(digits)} digits is too large")
        fields.append(int(digits or b"0"))
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


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector in the block, then restore its state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_raw_decode = json.JSONDecoder().raw_decode


def _lines(text, block=1 << 18):
    """The items of ``text.split("\\n")``, split a block of at least ``block``
    characters at a time so that only one block's lines are alive at once."""
    start = 0
    while (end := text.find("\n", start + block)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    yield from text[start:].split("\n")


def _json_row(lineno, line):
    """``(lineno, image, class, score, polygon)`` of one prediction line;
    ``json.loads`` runs only where ``raw_decode`` does not read the line up to
    trailing JSON whitespace (such as the "\\r" of "\\r\\n"), for its message
    or its value."""
    try:
        doc, end = _raw_decode(line)
    except (ValueError, RecursionError):
        end = None
    if end is None or line[end:].strip(" \t\n\r"):
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
        return _checked(class_ids, scores, image_ids, lambda row: f"line {lines[row]}",
                        _stack(polygons, MalformedPrediction))

    tables, rows, syntax = [], [], None
    with _collector_paused():  # json.loads builds no cycles: reference counts free each chunk
        for lineno, line in enumerate(_lines(text), start=1):
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
        del rows  # freed by reference counts, so the collector resumes with no pass due
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
