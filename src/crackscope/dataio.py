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

Label records (:class:`LabelRecord`) and scored predictions
(:class:`DetectionRecord`) share one polygon check and one class-id check:
a polygon is >= 3 (x, y) vertices of finite numbers in [0, 1].  The file
readers prefix the record's error with its line number.
"""

from __future__ import annotations

import json
import numbers
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

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
    "LabelRecord",
    "DetectionRecord",
    "SplitSpec",
    "parse_label_file",
    "serialize_label_file",
    "polygon_to_crop",
    "polygon_to_mask",
    "split_dataset",
    "read_pgm",
    "write_pgm",
    "read_predictions",
    "serialize_predictions",
    "atomic_write_text",
]


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


def serialize_label_file(records) -> str:
    lines = []
    for record in records:
        coords = " ".join(repr(float(v)) for v in record.polygon.ravel())
        lines.append(f"{record.class_id} {coords}")
    return "\n".join(lines) + ("\n" if lines else "")


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


def serialize_predictions(records) -> str:
    lines = []
    for r in records:
        doc = {
            "image": r.image_id,
            "class": r.class_id,
            "score": r.score,
            "polygon": [[float(x), float(y)] for x, y in r.polygon],
        }
        lines.append(json.dumps(doc))
    return "\n".join(lines) + ("\n" if lines else "")


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
