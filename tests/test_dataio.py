import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from crackscope import dataio
from crackscope.dataio import (
    SplitSpec,
    atomic_write_text,
    parse_label_file,
    polygon_table,
    polygon_to_crop,
    polygon_to_mask,
    read_pgm,
    read_predictions,
    split_dataset,
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


class TestPolygonToMask:
    def test_full_frame_square(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        mask = polygon_to_mask(square, 16, 12)
        assert mask.all()

    def test_pixel_center_rule(self):
        # thin horizontal sliver: y in [0.3, 0.4) normalized
        sliver = np.array([[0.0, 0.3], [1.0, 0.3], [1.0, 0.4], [0.0, 0.4]])
        # height 4: pixel span [1.2, 1.6) holds only row 1's center 1.5
        mask = polygon_to_mask(sliver, 4, 4)
        assert mask[1].all() and mask.sum() == 4
        # height 10: pixel span [3.0, 4.0) holds only row 3's center 3.5
        mask = polygon_to_mask(sliver, 4, 10)
        assert mask[3].all() and mask.sum() == 4

    def test_degenerate_polygon_warns_empty(self):
        """A zero-area polygon rasterizes empty, and without a warning."""
        flat = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = polygon_to_mask(flat, 8, 8)
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
            mask = polygon_to_mask(poly, width, height)
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
        mask = polygon_to_mask(poly, width, height)
        want = [
            [oracles.point_in_polygon(c + 0.5, r + 0.5, scaled) for c in range(width)]
            for r in range(height)
        ]
        assert np.array_equal(mask, np.array(want, dtype=bool))

    @given(strategies.unit_polygons(max_vertices=10), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_crop_is_the_tight_window_of_the_mask(self, poly, width, height):
        row0, col0, crop = polygon_to_crop(poly, width, height)
        mask = polygon_to_mask(poly, width, height)
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        if not mask.any():
            assert crop.shape == (0, 0)
            return
        assert (row0, col0) == (rows[0], cols[0])
        assert crop.shape == (rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
        assert np.array_equal(crop, mask[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]])

    def test_area_convergence(self):
        half = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        mask = polygon_to_mask(half, 256, 256)
        assert abs(int(mask.sum()) - 16384) <= 256


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


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "one\n")
        atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter
