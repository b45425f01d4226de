import gc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from crackscope import dataio
from crackscope.cli import main
from crackscope.dataio import (
    SplitSpec,
    atomic_write_text,
    parse_label_file,
    polygon_table,
    read_pgm,
    read_predictions,
    split_dataset,
    table_crops,
    write_pgm,
)
from crackscope.errors import (
    CorruptImage,
    InvalidSplit,
    MalformedLabel,
    MalformedPrediction,
    OutOfRange,
    UnsupportedFormat,
)


class TestLabelFiles:
    def test_triangle_line(self):
        records = parse_label_file("0 0.1 0.1 0.9 0.1 0.5 0.9\n")
        assert len(records) == 1
        assert records[0].class_id == 0
        assert records[0].polygon.shape == (3, 2)

    def test_empty_file(self):
        for text in ("", "\n\n"):
            table = parse_label_file(text)
            assert len(table) == 0 and not table
            assert table.vertices.shape == (0, 2) and table.corners.shape == (0, 4)

    def test_odd_coordinates_rejected(self):
        with pytest.raises(MalformedLabel):
            parse_label_file("0 0.1 0.2 0.3\n")

    def test_too_few_vertices_rejected(self):
        with pytest.raises(MalformedLabel):
            parse_label_file("0 0.1 0.2 0.3 0.4\n")

    def test_out_of_range_coordinate(self):
        with pytest.raises(OutOfRange):
            parse_label_file("0 0.1 0.1 1.2 0.1 0.5 0.9\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-0.5", "1.0001"])
    def test_non_finite_or_out_of_range_coordinate(self, token):
        with pytest.raises(OutOfRange, match="^line 2: "):
            parse_label_file(f"0 0.1 0.1 0.9 0.1 0.5 0.9\n1 0.1 {token} 0.9 0.1 0.5 0.9\n")

    def test_negative_class_names_line(self):
        with pytest.raises(MalformedLabel, match="^line 1: "):
            parse_label_file("-1 0.1 0.1 0.9 0.1 0.5 0.9\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
    def test_record_checks_coordinates(self, bad):
        polygon = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
        polygon[2, 0] = bad
        with pytest.raises(OutOfRange, match="^row 0: polygon coordinates must be finite"):
            polygon_table([0], [polygon])

    @pytest.mark.parametrize(
        "class_id, polygon",
        [(True, [[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]]), (1.5, [[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]]),
         (0, [["0.1", 0.1], [0.9, 0.1], [0.5, 0.9]]), (0, np.ones((3, 2), dtype=bool))],
        ids=["bool-class", "float-class", "text", "bool-array"],
    )
    def test_record_checks_types_as_a_prediction_does(self, class_id, polygon):
        with pytest.raises(MalformedLabel):
            polygon_table([class_id], [polygon])

    def test_garbage_token(self):
        with pytest.raises(MalformedLabel):
            parse_label_file("0 0.1 0.1 x 0.1 0.5 0.9\n")

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "0.1_5", "\u0660.\u0665"])
    def test_number_with_underscore_or_non_ascii_digit(self, token):
        # int() and float() would read these as 10, 3, 1, 0.15 and 0.5
        for text in (f"{token} 0.1 0.1 0.9 0.1 0.5 0.9\n", f"0 0.1 0.1 0.9 0.1 {token} 0.9\n"):
            with pytest.raises(MalformedLabel, match=f"^line 2: unparseable token \\('{token}' holds"):
                parse_label_file("0 0.1 0.1 0.9 0.1 0.5 0.9\n" + text)

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
    def test_a_line_ends_only_at_newline(self, sep):
        # a form feed and its kin separate tokens; they do not start a line
        with pytest.raises(MalformedLabel, match="^line 2: odd coordinate count 9$"):
            parse_label_file(f"0 0.1 0.1 0.9 0.1 0.5 0.9\r\n0 0.1 0.1 0.9 0.1 0.5 0.9{sep}0 0.1 0.1\n")
        table = parse_label_file(f"1{sep}0.1 0.1 0.9 0.1 0.5 0.9\r\n2 0.1 0.1 0.9 0.1 0.5 0.9\r\n")
        assert table.class_ids.tolist() == [1, 2]


class TestPolygonToMask:
    def test_full_frame_square(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        mask = oracles.polygon_to_mask(square, 16, 12)
        assert mask.all()

    def test_pixel_center_rule(self):
        # thin horizontal sliver: y in [0.3, 0.4) normalized
        sliver = np.array([[0.0, 0.3], [1.0, 0.3], [1.0, 0.4], [0.0, 0.4]])
        # height 4: pixel span [1.2, 1.6) holds only row 1's center 1.5
        mask = oracles.polygon_to_mask(sliver, 4, 4)
        assert mask[1].all() and mask.sum() == 4
        # height 10: pixel span [3.0, 4.0) holds only row 3's center 3.5
        mask = oracles.polygon_to_mask(sliver, 4, 10)
        assert mask[3].all() and mask.sum() == 4

    def test_degenerate_polygon_warns_empty(self):
        """A zero-area polygon rasterizes empty, and without a warning."""
        flat = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = oracles.polygon_to_mask(flat, 8, 8)
        assert not mask.any()

    def test_matches_point_in_polygon_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            # random convex polygon from sorted angles on a circle
            k = int(rng.integers(3, 8))
            angles = np.sort(rng.uniform(0, 2 * np.pi, k))
            cx, cy = rng.uniform(0.35, 0.65, 2)
            radius = rng.uniform(0.1, 0.3)
            poly = np.stack(
                [cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1
            ).clip(0, 1)
            width, height = 32, 24
            mask = oracles.polygon_to_mask(poly, width, height)
            scaled = poly * [width, height]
            for r in range(height):
                for c in range(width):
                    want = oracles.point_in_polygon(c + 0.5, r + 0.5, scaled)
                    assert mask[r, c] == want, (r, c)

    @given(strategies.unit_polygons(max_vertices=10), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_matches_point_in_polygon_at_every_pixel_center(self, poly, width, height):
        """Random, self-intersecting, tiny and frame-touching polygons at
        non-square extents; zero-area polygons are the documented exception."""
        scaled = poly * [width, height]
        x, y = scaled[:, 0], scaled[:, 1]
        assume(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) != 0.0)
        mask = oracles.polygon_to_mask(poly, width, height)
        want = [
            [oracles.point_in_polygon(c + 0.5, r + 0.5, scaled) for c in range(width)]
            for r in range(height)
        ]
        assert np.array_equal(mask, np.array(want, dtype=bool))

    @given(strategies.unit_polygons(max_vertices=10), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_crop_is_the_tight_window_of_the_mask(self, poly, width, height):
        ((row0, col0, crop),) = table_crops(polygon_table([0], [poly]), width, height)
        mask = oracles.polygon_to_mask(poly, width, height)
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        if not mask.any():
            assert crop.shape == (0, 0)
            return
        assert (row0, col0) == (rows[0], cols[0])
        assert crop.shape == (rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
        assert np.array_equal(crop, mask[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]])

    def test_area_convergence(self):
        half = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        mask = oracles.polygon_to_mask(half, 256, 256)
        assert abs(int(mask.sum()) - 16384) <= 256


@st.composite
def _raster_tables(draw):
    """A table of 1-6 polygons and an extent of 1-40 px per side: arbitrary,
    tiny and frame-touching polygons, grid bowties (zero signed area), 8-12
    vertices (where np.sum adds pairwise) and vertices on pixel centers."""
    width, height = (draw(st.one_of(st.just(1), st.integers(1, 40))) for _ in range(2))
    polygons = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "bowtie", "many", "centers"]))
        if kind == "any":
            polygon = draw(strategies.unit_polygons(max_vertices=12))
        elif kind == "bowtie":
            (x0, y0), (x1, y1) = draw(strategies.unit_polygons(max_vertices=3))[:2] * 16 // 1 / 16
            polygon = np.array([[x0, y0], [x1, y1], [x1, y0], [x0, y1]])
        elif kind == "many":
            polygon = draw(strategies.unit_polygons(min_vertices=8, max_vertices=12))
        else:
            k = draw(st.integers(3, 10))
            cols = draw(st.lists(st.integers(0, width - 1), min_size=k, max_size=k))
            rows = draw(st.lists(st.integers(0, height - 1), min_size=k, max_size=k))
            polygon = (np.array([cols, rows]).T + 0.5) / [width, height]
        polygons.append(polygon)
    return polygon_table([0] * len(polygons), polygons), width, height


def _assert_crops_match_the_polygon_reference(table, width, height):
    crops = table_crops(table, width, height)
    assert len(crops) == len(table)
    for row, (row0, col0, crop) in zip(table, crops):
        want_row0, want_col0, want = oracles.polygon_to_crop(row.polygon, width, height)
        assert (row0, col0) == (want_row0, want_col0)
        assert crop.shape == want.shape and crop.dtype == bool
        assert np.array_equal(crop, want)
        x, y = (row.polygon * [width, height]).T
        if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) == 0.0:
            assert crop.shape == (0, 0)


class TestTableCrops:
    """The table body against the one-polygon fill it replaced
    (``oracles.polygon_to_crop``), row by row: offset, shape and bits."""

    @given(_raster_tables(), st.sampled_from([1, 7, 64, None]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_polygon_reference(self, drawn, slots):
        table, width, height = drawn
        with pytest.MonkeyPatch.context() as patch:
            if slots is not None:  # small buffers: every few windows start a new one
                patch.setattr(dataio, "_WINDOW_SLOTS", slots)
            _assert_crops_match_the_polygon_reference(table, width, height)

    def test_bowtie_rows_stay_empty(self):
        bowtie = np.array([[0.25, 0.25], [0.75, 0.75], [0.75, 0.25], [0.25, 0.75]])
        square = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        crops = table_crops(polygon_table([0, 0, 0], [bowtie, square, bowtie]), 16, 16)
        assert [c.shape for *_, c in crops] == [(0, 0), (8, 8), (0, 0)]
        assert crops[1][:2] == (4, 4) and crops[1][2].all()

    def test_windows_larger_than_one_buffer(self):
        # each window holds more slots than one buffer, so each fills alone
        rng = np.random.default_rng(0)
        polygons = [np.clip(0.5 + 0.5 * rng.uniform(-1, 1, (k, 2)), 0, 1) for k in (4, 9, 12, 5)]
        polygons.append(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        table = polygon_table([0] * len(polygons), polygons)
        width, height = 640, 480
        areas = [crop.shape[0] * (crop.shape[1] + 1) for *_, crop in table_crops(table, width, height)]
        assert max(areas) > dataio._WINDOW_SLOTS
        _assert_crops_match_the_polygon_reference(table, width, height)

    def test_empty_table(self):
        assert table_crops(polygon_table([], []), 8, 8) == []


class TestSplit:
    def test_reference_sizes(self):
        items = [f"img_{i:05d}" for i in range(4029)]
        train, val, test = split_dataset(items, SplitSpec(3717, 200, 112, seed=7))
        assert (len(train), len(val), len(test)) == (3717, 200, 112)
        together = train + val + test
        assert len(set(together)) == 4029

    def test_deterministic(self):
        items = [f"f{i}" for i in range(100)]
        spec = SplitSpec(60, 20, 20, seed=123)
        assert split_dataset(items, spec) == split_dataset(list(items), spec)

    def test_all_in_test(self):
        items = list("abcdef")
        train, val, test = split_dataset(items, SplitSpec(0, 0, 6, seed=1))
        assert train == [] and val == []
        assert sorted(test) == items

    def test_partitions_disjoint_cover_prefix(self):
        items = [f"x{i}" for i in range(50)]
        train, val, test = split_dataset(items, SplitSpec(10, 5, 5, seed=9))
        chunks = train + val + test
        assert len(chunks) == 20
        assert len(set(chunks)) == 20

    def test_oversized_spec_rejected(self):
        with pytest.raises(InvalidSplit):
            split_dataset(["a", "b"], SplitSpec(2, 1, 0))
        with pytest.raises(InvalidSplit):
            SplitSpec(-1, 0, 0)

    def test_pinned_shuffle_golden_vector(self):
        # frozen output of the documented LCG + Fisher-Yates; guards the
        # cross-platform reproducibility promise
        train, val, test = split_dataset(list("abcdefgh"), SplitSpec(4, 2, 2, seed=42))
        assert train == list("afbh")
        assert val == list("de")
        assert test == list("cg")


class TestPgm:
    def test_minimal_1x1(self):
        img, maxval = read_pgm(b"P5\n1 1\n255\n\x00")
        assert img.shape == (1, 1) and maxval == 255
        assert img[0, 0] == 0

    def test_comments_in_header(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n\x01\x02"
        img, _ = read_pgm(data)
        assert img.tolist() == [[1, 2]]

    def test_ascii_p2_rejected(self):
        with pytest.raises(UnsupportedFormat):
            read_pgm(b"P2\n1 1\n255\n0")

    def test_truncated_raster_rejected(self):
        with pytest.raises(CorruptImage):
            read_pgm(b"P5\n2 2\n255\n\x00\x01")

    def test_wide_maxval_rejected(self):
        with pytest.raises(UnsupportedFormat):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (7, 5), dtype=np.uint8)
        data = write_pgm(img)
        again, maxval = read_pgm(data)
        assert np.array_equal(img, again) and maxval == 255
        assert write_pgm(again) == data

    def test_maxval_returned(self):
        img, maxval = read_pgm(b"P5\n2 1\n1\n\x00\x01")
        assert img.tolist() == [[0, 1]] and maxval == 1

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(CorruptImage, match="sample 200 exceeds maxval 100"):
            read_pgm(b"P5\n2 1\n100\n\x64\xc8")

    def test_megabyte_comment_and_whitespace_read_as_the_plain_twin(self):
        plain = b"P5\n2 1\n255\n\x00\xff"
        padded = (b"P5#" + b"c" * 2**20 + b"\n2" + b" \t\r\n" * 2**18 + b"1\n# x\n" + b"#\n" * 3000
                  + b"\x0b255\x0c\x00\xff")
        (img, maxval), (want, want_maxval) = read_pgm(padded), read_pgm(plain)
        assert np.array_equal(img, want) and maxval == want_maxval

    @pytest.mark.parametrize(
        "data, error, message",
        [(b"P5\n2 1", CorruptImage, "truncated header"),
         (b"P5\n2 1\n# maxval never comes", CorruptImage, "truncated header"),
         (b"P5\n2 x\n255\n\x00\x00", CorruptImage, "unexpected header byte b'x'"),
         (b"P5\n# c\n-2 1\n255\n\x00\x00", CorruptImage, "unexpected header byte b'-'"),
         (b"P5\n2 1\n" + b"# c\n" * 3000, CorruptImage, "truncated header"),
         (b"P5\n2" + b" #\n" * 3000 + b"x", CorruptImage, "unexpected header byte b'x'"),
         (b"P5\n0 1\n255\n", CorruptImage, "bad extents 0x1"),
         (b"P5\n2 1\n0\n\x00\x00", UnsupportedFormat, "maxval 0 outside 8-bit range"),
         (b"P5\n2 1\n255", CorruptImage, "missing whitespace after maxval"),
         (b"P5\n2 1\n255#c\n\x00\x00", CorruptImage, "missing whitespace after maxval"),
         (b"P5\n2 1\n" + b"9" * 19 + b"\n\x00\x00", CorruptImage,
          "header field of 19 digits is too large")],
        ids=["eof-after-height", "comment-to-eof", "letter", "sign-after-comment",
             "eof-after-3000-comments", "letter-after-3000-comments", "zero-width",
             "zero-maxval", "eof-after-maxval", "comment-after-maxval", "19-digit-maxval"],
    )
    def test_header_errors_name_the_fault(self, data, error, message):
        with pytest.raises(error) as caught:
            read_pgm(data)
        assert str(caught.value) == message

    def test_leading_zeros_do_not_count_toward_the_digit_limit(self):
        img, maxval = read_pgm(b"P5\n" + b"0" * 5000 + b"2 1\n0255\n\x00\xff")
        assert img.tolist() == [[0, 255]] and maxval == 255

    def test_write_accepts_integer_values_of_any_numeric_dtype(self):
        for image in ([[0, 255]], np.array([[0.0, 255.0]]), np.array([[0, 255]], dtype=np.int64)):
            assert write_pgm(image) == b"P5\n2 1\n255\n\x00\xff"

    @pytest.mark.parametrize(
        "image",
        [[[300, 0]], [[-1, 0]], [[2.7, 0]], [[np.nan, 0]], [[np.inf, 0]], [[True, False]],
         [["a", "b"]]],
        ids=["above-255", "negative", "fraction", "nan", "inf", "bool", "text"],
    )
    def test_write_rejects_non_8_bit_integers(self, image):
        with pytest.raises(OutOfRange):
            write_pgm(image)


class TestPredictions:
    def test_single_line(self):
        line = '{"image": "a", "class": 0, "score": 0.9, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        records = read_predictions(line + "\n")
        assert len(records) == 1
        assert records[0].score == 0.9
        assert records[0].polygon.shape == (3, 2)

    def test_score_out_of_range(self):
        line = '{"image": "a", "class": 0, "score": 1.5, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        with pytest.raises(OutOfRange):
            read_predictions(line)

    @pytest.mark.parametrize(
        "field",
        ['"score": 1.5, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]',
         '"score": NaN, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]',
         '"score": 0.5, "polygon": [[0.1, 0.1], [NaN, 0.1], [0.3, 0.6]]',
         '"score": 0.5, "polygon": [[0.1, 0.1], [0.5, 1.1], [0.3, 0.6]]'],
    )
    def test_out_of_range_names_line(self, field):
        good = '{"image": "a", "class": 0, "score": 0.9, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        with pytest.raises(OutOfRange, match="^line 2: "):
            read_predictions(good + '\n{"image": "a", "class": 0, ' + field + "}\n")

    def test_order_preserved(self):
        lines = []
        for i in range(5):
            lines.append(
                '{"image": "img%d", "class": 0, "score": 0.5, '
                '"polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}' % i
            )
        records = read_predictions("\n".join(lines))
        assert [r.image_id for r in records] == [f"img{i}" for i in range(5)]

    def test_malformed_json(self):
        with pytest.raises(MalformedPrediction):
            read_predictions("{not json}\n")

    def test_a_line_ends_only_at_newline(self):
        line = '{"image": "%s", "class": 0, "score": %s, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        table = read_predictions(line % ("a\u2028b\x85c", "0.5") + "\r\n" + line % ("d", "0.5"))
        assert table.image_ids.tolist() == ["a\u2028b\x85c", "d"]
        with pytest.raises(OutOfRange, match="^line 2: score"):
            read_predictions(line % ("a\u2028b", "0.5") + "\n" + line % ("d", "1.5"))

    @pytest.mark.parametrize("end", ["", "\r", " \t\r"])
    def test_a_valid_line_is_decoded_once(self, end, monkeypatch):
        """Only a line that is not one JSON value followed by JSON whitespace
        goes on to json.loads, for its value or its message."""
        calls = []
        loads = dataio.json.loads
        monkeypatch.setattr(dataio.json, "loads", lambda line: calls.append(line) or loads(line))
        line = '{"image": "a", "class": 0, "score": 0.5, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        assert len(read_predictions((line + end + "\n") * 3)) == 3 and calls == []
        assert len(read_predictions(" " + line)) == 1 and len(calls) == 1
        for bad in [line + "\x0c", "\ufeff" + line, line + "x"]:
            with pytest.raises(MalformedPrediction, match="^line 2: invalid JSON"):
                read_predictions(line + "\n" + bad)
        assert len(calls) == 4

    def test_missing_key(self):
        with pytest.raises(MalformedPrediction):
            read_predictions('{"image": "a", "score": 0.5}\n')

    def test_columns_and_row_views(self):
        lines = [
            '{"image": "b", "class": 1, "score": 0.25, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}',
            '{"image": "a", "class": 0, "score": 1, "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]]}',
        ]
        table = read_predictions("\n".join(lines))
        assert table.image_ids.tolist() == ["b", "a"] and table.class_ids.dtype == np.int64
        assert table.scores.tolist() == [0.25, 1.0] and table.starts.tolist() == [0, 3, 7]
        assert table.corners.tolist() == [[0.1, 0.1, 0.5, 0.6], [0.0, 0.0, 1.0, 1.0]]
        row = table[1]
        assert (row.image_id, row.class_id, row.score) == ("a", 0, 1.0)
        assert np.array_equal(row.polygon, [[0, 0], [1, 0], [1, 1], [0, 1]])
        assert list(table)[0].image_id == "b" and table[-1].image_id == "a"

    def test_index_array_reorders_rows(self):
        lines = [
            '{"image": "%s", "class": %d, "score": 0.5, "polygon": %s}'
            % (image, k, [[0.1 * k, 0.1]] + [[0.5, 0.1]] * (k + 2))
            for k, image in enumerate("abc")
        ]
        table = read_predictions("\n".join(lines))
        picked = table[np.array([2, 0])]
        assert picked.image_ids.tolist() == ["c", "a"] and picked.class_ids.tolist() == [2, 0]
        assert picked.starts.tolist() == [0, 5, 8]
        assert np.array_equal(picked[0].polygon, table[2].polygon)
        assert np.array_equal(picked[1].polygon, table[0].polygon)
        assert np.array_equal(picked.corners, table.corners[[2, 0]])
        assert len(table[1:1]) == 0

    def test_rows_past_a_chunk_join_in_order(self):
        line = '{"image": "a%d", "class": 0, "score": 0.5, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        count = 2 * dataio._CHUNK_ROWS + 3
        table = read_predictions("\n".join(line % i for i in range(count)))
        assert table.image_ids.tolist() == [f"a{i}" for i in range(count)]
        assert table.starts.tolist() == list(range(0, 3 * count + 1, 3))
        bad = "\n".join(line % i for i in range(count - 1)) + "\n" + (line % 0).replace("0.3", "1.3")
        with pytest.raises(OutOfRange, match=f"^line {count}: "):
            read_predictions(bad)

    @pytest.mark.parametrize("block", [0, 1, 2, 5, 64, 1 << 18])
    def test_lines_split_block_by_block_as_one_split(self, block):
        for text in ["", "\n", "a", "a\n\nbc\r\n  \n" * 7 + "d", "\n\nx\n" * 5]:
            assert list(dataio._lines(text, block)) == text.split("\n")

    def test_line_numbers_run_on_across_blocks(self):
        """A file several times longer than one block of the line splitter,
        with blank lines: each row and a late error keep their line numbers."""
        line = '{"image": "a%d", "class": 0, "score": 0.5, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}'
        count = 3 * (1 << 18) // len(line)
        text = "".join(line % i + ("\n\n  \n" if i % 7 == 0 else "\n") for i in range(count))
        assert read_predictions(text).image_ids.tolist() == [f"a{i}" for i in range(count)]
        lines = text.split("\n")
        last = max(k for k, row in enumerate(lines) if row.startswith("{"))
        lines[last] = lines[last].replace('"score": 0.5', '"score": 2')
        with pytest.raises(OutOfRange, match=f"^line {last + 1}: score"):
            read_predictions("\n".join(lines))


def _prediction_lines(rows, rng):
    """``rows`` valid prediction lines of 3 to 6 vertices over images a-d."""
    lines = []
    for i in range(rows):
        polygon = np.round(rng.uniform(0, 1, (int(rng.integers(3, 7)), 2)), 4).tolist()
        lines.append('{"image": "%s", "class": %d, "score": %s, "polygon": %s}'
                     % ("abcd"[i % 4], i % 3, round(float(rng.uniform()), 4), polygon))
    return lines


def _label_text(rows, rng):
    return "".join(f"{i % 3} " + " ".join(map(str, np.round(rng.uniform(0, 1, 2 * int(rng.integers(3, 7))), 4)))
                   + "\n" for i in range(rows))


def _columns(table):
    return [table.class_ids, table.scores, table.image_ids, table.vertices, table.starts, table.corners]


class TestSliceViews:
    """A step-1 slice gives views that equal the copying index-array path."""

    @pytest.mark.parametrize("kind", ["labels", "predictions"])
    def test_slices_equal_the_index_path(self, kind):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 7, 40):
            table = (parse_label_file(_label_text(n, rng)) if kind == "labels"
                     else read_predictions("\n".join(_prediction_lines(n, rng))))
            bounds = [None, *range(-n - 3, n + 4)]
            for lo, hi in [(None, None), (0, n), (n, n + 5), (-n - 3, n + 3)] + [
                    tuple(rng.choice(bounds, 2)) for _ in range(60)]:
                view, copy = table[lo:hi], table[np.arange(len(table))[lo:hi]]
                assert len(view) == len(copy)
                for got, want in zip(_columns(view), _columns(copy)):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                if len(view):
                    assert np.shares_memory(view.vertices, table.vertices)

    def test_other_steps_still_match_the_index_path(self):
        table = read_predictions("\n".join(_prediction_lines(9, np.random.default_rng(4))))
        for index in (slice(None, None, 2), slice(None, None, -1), slice(7, 1, -3)):
            picked, want = table[index], table[np.arange(len(table))[index]]
            for got, expected in zip(_columns(picked), _columns(want)):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert not np.shares_memory(picked.vertices, table.vertices)


@contextmanager
def _collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """read_predictions parses with the cyclic collector paused and leaves it
    as the caller had it."""

    ROWS = 2 * dataio._CHUNK_ROWS + 3

    def _text(self, last_line=None):
        lines = _prediction_lines(self.ROWS, np.random.default_rng(5))
        return "\n".join(lines[:-1] + [last_line or lines[-1]])

    def test_parse_runs_no_collection(self):
        """CPython counts container allocations while the collector is off,
        so switching it back on may start one young-generation pass; the
        parse itself starts none (an unpaused parse of this file starts
        about twenty, some of them older-generation)."""
        text = self._text()
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        with _collector(True):
            gc.callbacks.append(hook)
            try:
                table = read_predictions(text)
            finally:
                gc.callbacks.remove(hook)
        assert len(table) == self.ROWS and starts in ([], [0])

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("last_line, error", [
        (None, None),
        ("{not json}", MalformedPrediction),
        ('{"image": "a", "class": 0, "score": 1.5, "polygon": [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]}',
         OutOfRange),
    ])
    def test_collector_state_is_restored(self, enabled, last_line, error):
        text = self._text(last_line)
        with _collector(enabled):
            if error is None:
                assert len(read_predictions(text)) == self.ROWS
            else:
                with pytest.raises(error, match=f"^line {self.ROWS}: "):
                    read_predictions(text)
            assert gc.isenabled() == enabled

    def test_eval_bytes_do_not_depend_on_the_collector(self, tmp_path):
        gt = tmp_path / "gt"
        gt.mkdir()
        rng = np.random.default_rng(6)
        for image in "abcd":
            (gt / f"{image}.txt").write_text(_label_text(5, rng))
        pred = tmp_path / "pred.jsonl"
        pred.write_text("\n".join(_prediction_lines(40, rng)) + "\n")
        outputs = []
        for enabled in (True, False):
            with _collector(enabled):
                for mode in (["--match", "box"], ["--match", "mask"]):
                    out = tmp_path / f"{enabled}{mode[1]}"
                    assert main(["eval", "--gt", str(gt), "--pred", str(pred), *mode, "--raster-size", "64",
                                 "--out", f"{out}.json", "--pr-out", f"{out}.csv"]) == 0
                    outputs += [(tmp_path / f"{out}.{ext}").read_bytes() for ext in ("json", "csv")]
                assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--mode", "pixel",
                             "--raster-size", "64", "--out", str(tmp_path / f"{enabled}pixel.json")]) == 0
                outputs.append((tmp_path / f"{enabled}pixel.json").read_bytes())
                assert gc.isenabled() == enabled
        assert outputs[:5] == outputs[5:]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "one\n")
        atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter
