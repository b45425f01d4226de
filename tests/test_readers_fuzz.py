"""The column readers against the per-record oracle readers, on fuzzed files.

Label and prediction files are drawn from valid lines plus per-line
corruptions.  ``crackscope.dataio``'s table must equal the records of
``oracles.parse_label_file`` / ``oracles.read_predictions``, or fail with
the same error type and message: the first bad line wins, and within it
the first failing check.  The documented changes from the oracle:

* a class id >= 2^63 is an error (the oracle keeps it as a Python int);
* a prediction score that is an integer beyond float range is out of
  range (the oracle raises ``OverflowError``);
* a JSON integer over Python's digit limit is invalid JSON (the oracle
  raises ``ValueError``);
* a line ends at ``\\n`` only (the oracle's ``str.splitlines`` also ends one
  at ``\\f``, ``\\x85``, ``\\u2028`` and their kin), so the oracle reads a
  text whose lines are split the same way;
* a label token holding ``_`` or a non-ASCII character is unparseable (the
  oracle's ``int()`` and ``float()`` read ``1_0`` as 10 and ``\\u0663`` as 3).

``main(["eval", ...])`` on the same files exits 0 or 1 and prints at most
one ``error:`` line, which names the file, and never a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crackscope import dataio
from crackscope.cli import main
from crackscope.errors import CrackscopeError, MalformedLabel, MalformedPrediction, OutOfRange

# the readers' check against the oracle is cheap; an ``eval`` run writes files
FUZZ = settings(derandomize=True, max_examples=300, deadline=None)
FUZZ_EVAL = settings(derandomize=True, max_examples=40, deadline=None)


def _polygon_pool(count=60):
    """Valid polygons of 3-5 vertices, on a 1/4 grid or anywhere in [0, 1]."""
    rng = np.random.default_rng(0)
    pool = []
    for k in range(count):
        shape = (int(rng.integers(3, 6)), 2)
        values = rng.integers(0, 5, shape) / 4 if k % 2 else rng.uniform(0.0, 1.0, shape)
        pool.append([(float(x), float(y)) for x, y in values])
    return pool


# one draw per value: hypothesis's own cost per draw dominates these tests
_polygons = st.sampled_from(_polygon_pool())
_scores = st.sampled_from([0.0, 0.25, 1.0, 0.7071067811865476, 1e-9, 0.999999])
_spellings = st.sampled_from([repr, "{:.6g}".format, "{:e}".format])  # how a file spells numbers
_bad_numbers = st.sampled_from(
    ["nan", "inf", "-inf", "1.5", "-0.5", "1e400", "-1e-300", "1_0", "0x1", "x", "True", "",
     "1" + "0" * 30, "1" + "0" * 5000, "٣", "+0.5", "-0", "0.2_5", "\uff11", "\u0660.\u0665", "é"]
)
# every character but \n that str.splitlines ends a line at
_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


# ---------------------------------------------------------------------------
# label files


@st.composite
def _label_line(draw):
    """A valid line with none, one or several faults, so that checks meet on one line."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "   ", "\t"]))
    class_id, spell = str(draw(st.integers(0, 2))), draw(_spellings)
    coords = [spell(v) for pair in draw(_polygons) for v in pair]
    faults = draw(st.integers(0, 255))  # each fault on a quarter of the lines
    for k, fault in enumerate(("class", "coordinate", "odd", "few")):
        if (faults >> 2 * k) & 3 != 3:
            continue
        if fault == "class":
            class_id = draw(st.one_of(_bad_numbers, st.sampled_from(
                ["-1", "1.5", str(2**63 - 1), str(2**63), str(2**64)])))
        elif fault == "coordinate" and coords:
            coords[draw(st.integers(0, len(coords) - 1))] = draw(_bad_numbers)
        elif fault == "odd" and coords:
            coords.pop()
        elif fault == "few":
            coords = coords[: 2 * draw(st.integers(0, 2))]
    sep = draw(st.sampled_from([" ", "  ", "\t", " \x0c "] + _LINE_BREAKS))
    return sep.join([class_id] + [c for c in coords if c != ""])


_newlines = st.sampled_from(["\n", "\r\n"])
_label_files = st.builds(str.join, _newlines, st.lists(_label_line(), min_size=1, max_size=8))


# ---------------------------------------------------------------------------
# prediction files

_NOT_NUMBERS = ["true", "false", "null", '"0.5"', "[]", "{}"]
# per key, bad values by the check they fail first: ordered so that a line
# often fails two checks at once and only their order picks the message
_BAD_VALUES = {
    "image": [_NOT_NUMBERS + ["3", "NaN"]],
    "class": [_NOT_NUMBERS + ["1.5", "1e400", "NaN", "Infinity"],
              ["-1", "-7", str(2**63), str(2**64), "1" + "0" * 5000, str(2**63 - 1)]],
    "score": [_NOT_NUMBERS + ['"1"'],
              ["1.5", "-0.1", "2", "NaN", "Infinity", "-Infinity", "1" + "0" * 400,
               "-1" + "0" * 400, "1" + "0" * 5000]],
    "polygon": [
        _NOT_NUMBERS[:4] + ['"abc"', "0.5", '{"x": 0.1, "y": 0.2}', '[{"x": 0.1}, [0.2, 0.1], [0.2, 0.2]]',
                            '["ab", "cd", "ef"]', "[" * 40 + "0.5" + "]" * 40],
        ["[]", "[[0.1, 0.1]]", "[0.1, 0.2, 0.3]", "[[0.1, 0.1], [0.2, 0.1]]",
         "[[0.1], [0.2, 0.1], [0.2, 0.2]]", "[[0.1, 0.1, 0.1], [0.2, 0.1], [0.2, 0.2]]",
         '[["0.1", "0.1"], [0.2, 0.1]]', "[[true, false]]", "[[1.5, 0.1], [0.2, 0.1]]"],
        ['[["0.1", "0.1"], [0.2, 0.1], [0.2, 0.2]]', "[[true, 0.1], [0.2, 0.1], [0.2, 0.2]]",
         "[[null, 0.1], [0.2, 0.1], [0.2, 0.2]]", "[[1" + "0" * 400 + ", 0.1], [0.2, 0.1], [0.2, 0.2]]"],
        ["[[NaN, 0.1], [0.2, 0.1], [0.2, 0.2]]", "[[1.2, 0.1], [0.2, 0.1], [0.2, 0.2]]",
         "[[0, 0], [1, 0], [1, -1e-9]]", "[[0.1, Infinity], [0.2, 0.1], [0.2, 0.2]]"],
    ],
}


@st.composite
def _prediction_line(draw):
    """A valid line with none, one or several bad values, a missing key or a
    syntax fault."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "  "]))
    spell = draw(_spellings)
    fields = {
        "image": json.dumps(draw(st.sampled_from(["img1", "img2"]))),
        "class": str(draw(st.integers(0, 2))),
        "score": spell(draw(_scores)),
        "polygon": "[" + ", ".join(f"[{spell(x)}, {spell(y)}]" for x, y in draw(_polygons)) + "]",
    }
    if draw(st.booleans()):  # half the lines have bad values, each value bad on half of those
        bad = draw(st.integers(1, 15))
        for k, key in enumerate(sorted(fields)):
            if bad >> k & 1:
                fields[key] = draw(st.sampled_from(draw(st.sampled_from(_BAD_VALUES[key]))))
    if draw(st.integers(0, 9)) == 0:
        del fields[draw(st.sampled_from(sorted(fields)))]
    if draw(st.integers(0, 9)) == 0:  # a line break character in the image id, or as whitespace
        brk = draw(st.sampled_from(_LINE_BREAKS))
        fields["image"] = draw(st.sampled_from([f'"img1{brk}"', f'{brk}"img1"']))
    line = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    if draw(st.integers(0, 9)) == 0:
        line = draw(st.sampled_from([
            line[: len(line) // 2], line + " x", "[" + line + "]", "42", "{not json}",
            "[" * 100_000 + "]" * 100_000, line.replace(":", "=", 1),
        ]))
    return line


_prediction_files = st.builds(str.join, _newlines, st.lists(_prediction_line(), min_size=1, max_size=8))


# ---------------------------------------------------------------------------
# the oracle's verdict, with the documented changes


# the errors a line can fail with before its class id's range is checked
_BEFORE_CLASS_RANGE = ("unparseable token", "odd coordinate count", "invalid JSON",
                       "expected a JSON object", "missing key", "image id must be", "class must be")


def _line_class_id(line):
    """The line's class id, if it is an int."""
    try:
        class_id = json.loads(line)["class"] if line.lstrip().startswith("{") else int(line.split()[0])
    except (ValueError, KeyError, TypeError, IndexError, RecursionError):
        return None
    return class_id if type(class_id) is int else None


class _NewlineText(str):
    """Text whose ``splitlines`` ends a line at ``\\n`` only, as the readers do."""

    def splitlines(self, keepends=False):
        return self.split("\n")


def _line_verdict(parse, error, index, line):
    """The (error type, message) of line ``index + 1`` alone, or None."""
    prefix = f"line {index + 1}: "
    odd = [tok for tok in line.split() if not tok.isascii() or "_" in tok]
    if error is MalformedLabel and odd:
        return error, f"{prefix}unparseable token ({odd[0]!r} holds '_' or a non-ASCII character)"
    try:
        parse(_NewlineText("\n" * index + line))
    except CrackscopeError as exc:
        if str(exc).removeprefix(prefix).startswith(_BEFORE_CLASS_RANGE):
            return type(exc), str(exc)
        failure = exc
    except OverflowError as exc:  # a score beyond float range
        failure = exc
    except ValueError as exc:  # an integer over the digit limit
        return MalformedPrediction, f"{prefix}invalid JSON ({exc})"
    else:
        failure = None
    class_id = _line_class_id(line)
    if class_id is not None and class_id >= 2**63:
        return error, f"{prefix}class id must be < 2^63, got {class_id}"
    if isinstance(failure, OverflowError):
        return OutOfRange, f"{prefix}score must be in [0, 1], got {json.loads(line)['score']}"
    if failure is not None:
        return type(failure), str(failure)
    return None


def _expected(parse, error, text):
    """The oracle's records, or the verdict of the first bad line."""
    for index, line in enumerate(text.split("\n")):
        verdict = _line_verdict(parse, error, index, line)
        if verdict is not None:
            return verdict
    return parse(_NewlineText(text))


def _assert_agrees(read, parse, error, text):
    expected = _expected(parse, error, text)
    try:
        table = read(text)
    except CrackscopeError as exc:
        assert (type(exc), str(exc)) == expected
        return
    assert not isinstance(expected, tuple), expected
    assert table.class_ids.tolist() == [r.class_id for r in expected]
    assert table.scores.tolist() == [getattr(r, "score", 1.0) for r in expected]
    if table.image_ids is not None:
        assert table.image_ids.tolist() == [r.image_id for r in expected]
    assert np.diff(table.starts).tolist() == [len(r.polygon) for r in expected]
    if expected:
        assert np.array_equal(table.vertices, np.concatenate([r.polygon for r in expected]))
    assert table.corners.tolist() == [list(oracles.polygon_corners(r.polygon)) for r in expected]


def _assert_one_error_line(target, labels, predictions):
    """``eval`` exits 0, or 1 with one ``error:`` line naming ``target``."""
    with tempfile.TemporaryDirectory() as tmp:
        gt_dir = os.path.join(tmp, "gt")
        os.mkdir(gt_dir)
        paths = {"labels": os.path.join(gt_dir, "img1.txt"), "preds": os.path.join(tmp, "p.jsonl")}
        with open(os.path.join(gt_dir, "img2.txt"), "w", encoding="utf-8") as fh:
            fh.write("1 0.1 0.1 0.9 0.1 0.5 0.9\n")
        for key, data in (("labels", labels), ("preds", predictions)):
            with open(paths[key], "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--gt", gt_dir, "--pred", paths["preds"]])
        lines = err.getvalue().splitlines()
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        assert len(lines) == (code == 1)
        if code:
            assert lines[0].startswith(f"error: {paths[target]}: "), lines[0]


_VALID_LABELS = b"0 0.2 0.2 0.6 0.2 0.6 0.6 0.2 0.6\n"
_VALID_PREDICTIONS = (
    b'{"image": "img1", "class": 0, "score": 0.9, "polygon": [[0.2, 0.2], [0.6, 0.2], [0.6, 0.6]]}\n'
)


def _bytes(draw, text):
    """``text`` as UTF-8, sometimes with one byte that is not UTF-8."""
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _prediction(polygon="[[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]", image='"img1"', cls="0", score="0.5"):
    return f'{{"image": {image}, "class": {cls}, "score": {score}, "polygon": {polygon}}}'


# files whose first bad line fails two checks, or a check that only one
# polygon form reaches
_TRICKY_LABELS = [
    "0\n", "0 0.1 0.1\n1 0.1 0.1 1.5 0.1 0.5 0.9\n", "0 0.1 0.1 1.5 0.1 0.5 0.9\n0 0.1 0.1\n",
    f"{2**63} 0.1 0.1\n", "-1 nan 0.1 0.9 0.1 0.5 0.9\n", "0 0.1 0.1 0.9 0.1 0.5 0.9\n0 1.5 x\n",
    "0 0.1 0.1 1.5 0.1 0.5 0.9\n0 x\n", "0 0.1 0.1 0.5 0.1 0.5 0.9\n0 x\n1 0.1 0.1 1.5 0.1 0.5 0.9\n",
    "0 0.1 0.1 1.5 0.1 0.5 0.9\n1_0 0.1 0.1 0.9 0.1 0.5 0.9\n", "x 0.1 \u0663\n",
    "0 0.1 0.1 0.9 0.1 0.5 0.9\x0c0 0.1 0.1\n0 x\n", "0 0.1 0.1 0.9 0.1 0.5 0.9\u2028\r\n1 0.1 0.1 1.5\n",
]
_TRICKY_PREDICTIONS = [
    _prediction("[]"), _prediction() + "\n" + _prediction("[]"),
    _prediction('[["0.1", "0.1"], [0.2, 0.1]]'), _prediction("[[true, false]]"),
    _prediction("[]", cls="-1"), _prediction("[]", cls=str(2**63)), _prediction(cls="-1", score='"x"'),
    _prediction(cls=str(2**63), score="1" + "0" * 400), _prediction("[[1.5, 0.1], [0.2, 0.1]]"),
    _prediction("[[0.1, 0.1], [0.5, 0.1], [0.3, 1.6]]") + "\n" + _prediction("[[0.1, 0.1]]"),
    _prediction("[[0.1, 0.1]]") + "\n" + _prediction('"abc"'),
    _prediction(score="1.5") + "\n{not json}", _prediction() + "\n{not json}\n" + _prediction(score="1.5"),
    _prediction(image='"img\u2028x"') + "\r\n" + _prediction(score="1.5"), _prediction(image='\x85"img1"'),
]


@pytest.mark.parametrize("text", _TRICKY_LABELS)
def test_tricky_label_files_match_the_oracle(text):
    _assert_agrees(dataio.parse_label_file, oracles.parse_label_file, MalformedLabel, text)


@pytest.mark.parametrize("text", _TRICKY_PREDICTIONS)
def test_tricky_prediction_files_match_the_oracle(text):
    _assert_agrees(dataio.read_predictions, oracles.read_predictions, MalformedPrediction, text)


class TestLabelReader:
    @FUZZ
    @given(_label_files)
    def test_matches_the_oracle(self, text):
        _assert_agrees(dataio.parse_label_file, oracles.parse_label_file, MalformedLabel, text)

    @FUZZ_EVAL
    @given(st.data(), _label_files)
    def test_eval_gives_one_error_line(self, data, text):
        _assert_one_error_line("labels", _bytes(data.draw, text), _VALID_PREDICTIONS)


class TestPredictionReader:
    @FUZZ
    @given(_prediction_files)
    def test_matches_the_oracle(self, text):
        _assert_agrees(dataio.read_predictions, oracles.read_predictions, MalformedPrediction, text)

    @FUZZ_EVAL
    @given(st.data(), _prediction_files)
    def test_eval_gives_one_error_line(self, data, text):
        _assert_one_error_line("preds", _VALID_LABELS, _bytes(data.draw, text))
