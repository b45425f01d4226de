import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from crackscope.boxes import BBox
from crackscope.dataio import DetectionRecord, polygon_to_mask
from crackscope.errors import CrackscopeError, OutOfRange, UndefinedMetric
from crackscope.metrics import (
    ConfusionCounts,
    PRPoint,
    accuracy,
    average_precision,
    match_instances,
    pixel_confusion,
    pr_curve,
    pr_curve_to_csv,
    precision,
    recall,
)


class TestConfusionMetrics:
    def test_recall_cases(self):
        assert recall(ConfusionCounts(tp=78, fn=22)) == 0.78
        assert recall(ConfusionCounts(tp=5, fn=0)) == 1.0
        assert recall(ConfusionCounts(tp=0, fn=7)) == 0.0

    def test_precision_cases(self):
        assert precision(ConfusionCounts(tp=9, fp=1)) == 0.9
        assert precision(ConfusionCounts(tp=0, fp=3)) == 0.0
        assert precision(ConfusionCounts(tp=4, fp=4)) == 0.5

    def test_accuracy_cases(self):
        assert accuracy(ConfusionCounts(tp=3, fp=1, fn=1, tn=5)) == 0.8
        assert accuracy(ConfusionCounts(tn=9)) == 1.0
        assert accuracy(ConfusionCounts(tp=1, fp=1, fn=1, tn=1)) == 0.5

    def test_undefined_denominators(self):
        with pytest.raises(UndefinedMetric):
            recall(ConfusionCounts(fp=3))
        with pytest.raises(UndefinedMetric):
            precision(ConfusionCounts(fn=3))
        with pytest.raises(UndefinedMetric):
            accuracy(ConfusionCounts())

    def test_negative_counts_rejected(self):
        with pytest.raises(OutOfRange):
            ConfusionCounts(tp=-1)

    def test_formulas_on_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
            c = ConfusionCounts(tp, fp, fn, tn)
            if tp + fn:
                assert recall(c) == tp / (tp + fn)
            if tp + fp:
                assert precision(c) == tp / (tp + fp)
            if tp + fp + fn + tn:
                a = accuracy(c)
                assert a == (tp + tn) / (tp + fp + fn + tn)
                assert 0.0 <= a <= 1.0
                assert (a == 1.0) == (fp == 0 and fn == 0)


class TestMaskIou:
    def test_identical(self):
        rng = np.random.default_rng(1)
        m = rng.random((8, 8)) < 0.5
        assert oracles.mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert oracles.mask_iou(a, b) == 0.0

    def test_half_overlap_equal_area(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0:2] = True
        b[0, 1:3] = True
        assert oracles.mask_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_both_empty(self):
        z = np.zeros((3, 3), dtype=bool)
        assert oracles.mask_iou(z, z) == 1.0

    def test_extent_mismatch(self):
        with pytest.raises(ValueError):
            oracles.mask_iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


class TestPixelConfusion:
    def test_identical_masks(self):
        rng = np.random.default_rng(2)
        m = rng.random((6, 6)) < 0.5
        c = pixel_confusion(m, m)
        assert c.fp == 0 and c.fn == 0
        assert c.tp == int(m.sum())

    def test_complementary_masks(self):
        m = np.zeros((4, 4), dtype=bool)
        m[:2] = True
        c = pixel_confusion(m, ~m)
        assert c.tp == 0 and c.tn == 0
        assert c.fp == 8 and c.fn == 8

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        pred = rng.random((7, 9)) < 0.4
        gt = rng.random((7, 9)) < 0.4
        c = pixel_confusion(pred, gt)
        tp = fp = fn = tn = 0
        for r in range(7):
            for col in range(9):
                if pred[r, col] and gt[r, col]:
                    tp += 1
                elif pred[r, col]:
                    fp += 1
                elif gt[r, col]:
                    fn += 1
                else:
                    tn += 1
        assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)


def _rect(box):
    """``box``, in pixels of a 16-px frame, as a normalized rectangle:
    dividing by a power of two leaves every IoU, ties included, exact."""
    x0, y0, x1, y1 = np.array(box.corners) / 16
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def _pred(score, box, image="img", cls=0):
    return DetectionRecord(image, cls, score, _rect(box))


def _gt(box, cls=0):
    return DetectionRecord("img", cls, 1.0, _rect(box))


_TRIANGLE = [[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]]


class TestMatchInstances:
    def test_exact_hit(self):
        box = BBox(5, 5, 4, 4)
        flags, fn = match_instances([_pred(0.9, box)], [_gt(box)], 0.5)
        assert flags == [True]
        assert fn == 0

    def test_two_preds_one_gt(self):
        box = BBox(5, 5, 4, 4)
        preds = [_pred(0.7, box), _pred(0.9, box)]
        flags, fn = match_instances(preds, [_gt(box)], 0.5)
        assert flags == [False, True]  # higher score wins the single match
        assert fn == 0

    def test_class_mismatch_never_matches(self):
        box = BBox(5, 5, 4, 4)
        flags, fn = match_instances([_pred(0.9, box, cls=1)], [_gt(box, cls=0)], 0.5)
        assert flags == [False]
        assert fn == 1

    def test_score_tie_keeps_input_order(self):
        near = BBox(5, 5, 4, 4)
        far = BBox(5.5, 5, 4, 4)
        preds = [_pred(0.8, far), _pred(0.8, near)]
        flags, _fn = match_instances(preds, [_gt(near)], 0.5)
        assert flags == [True, False]  # first tied pred claims the gt

    def test_counts_balance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            preds = [
                _pred(float(rng.uniform(0, 1)), BBox(*rng.uniform(2, 8, 2), *rng.uniform(1, 4, 2)))
                for _ in range(int(rng.integers(0, 6)))
            ]
            gts = [
                _gt(BBox(*rng.uniform(2, 8, 2), *rng.uniform(1, 4, 2)))
                for _ in range(int(rng.integers(0, 5)))
            ]
            flags, fn = match_instances(preds, gts, 0.5)
            tp = sum(flags)
            assert tp + fn == len(gts)
            assert tp <= len(preds)

    def test_matches_reference_greedy(self):
        from crackscope.boxes import iou as box_iou

        rng = np.random.default_rng(5)
        for _ in range(200):
            pred_boxes = [
                (float(rng.uniform(0, 1)), BBox(*rng.uniform(2, 8, 2), *rng.uniform(1, 4, 2)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            gt_boxes = [
                BBox(*rng.uniform(2, 8, 2), *rng.uniform(1, 4, 2))
                for _ in range(int(rng.integers(1, 5)))
            ]
            preds = [_pred(score, box) for score, box in pred_boxes]
            gts = [_gt(box) for box in gt_boxes]
            flags, fn = match_instances(preds, gts, 0.3)
            matrix = [[box_iou(p, g) for g in gt_boxes] for _, p in pred_boxes]
            want_flags, want_fn = oracles.greedy_match_reference(
                [p.score for p in preds], [1] * len(gts), matrix, 0.3
            )
            assert flags == want_flags
            assert fn == want_fn

    def test_mask_mode_uses_polygon_rasters(self):
        square = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        offset = square + 0.05
        pred = DetectionRecord("img", 0, 0.9, polygon=offset)
        gt = DetectionRecord("img", 0, 1.0, polygon=square)
        flags, fn = match_instances([pred], [gt], 0.5, mode="mask", extent=(64, 64))
        assert flags == [True] and fn == 0
        flags, fn = match_instances([pred], [gt], 0.95, mode="mask", extent=(64, 64))
        assert flags == [False] and fn == 1

    def test_unknown_mode_is_a_library_error(self):
        box = BBox(5, 5, 4, 4)
        with pytest.raises(CrackscopeError, match="unknown matching mode 'poly'"):
            match_instances([_pred(0.9, box)], [_gt(box)], 0.5, mode="poly")

    def test_iou_tie_picks_first_ground_truth(self):
        box = BBox(5, 5, 4, 4)
        flags, fn = match_instances([_pred(0.9, box)], [_gt(BBox(9, 9, 1, 1)), _gt(box), _gt(box)], 0.5)
        assert flags == [True] and fn == 2
        # left and right shifts tie at IoU 0.6; the left one is listed first and
        # taken, so the later prediction, which only clears 0.5 on it, misses
        left, right = _gt(BBox(4, 5, 4, 4)), _gt(BBox(6, 5, 4, 4))
        flags, fn = match_instances([_pred(0.9, box), _pred(0.8, BBox(3.5, 5, 4, 4))], [left, right], 0.5)
        assert flags == [True, False] and fn == 1
        flags, fn = match_instances([_pred(0.9, box), _pred(0.8, BBox(3.5, 5, 4, 4))], [right, left], 0.5)
        assert flags == [True, True] and fn == 0

    def test_bad_threshold_rejected(self):
        with pytest.raises(OutOfRange):
            match_instances([], [], 0.0)


class TestPrCurve:
    def test_all_correct(self):
        points = pr_curve([(0.9, True), (0.8, True)], total_gt=2)
        assert all(p.precision == 1.0 for p in points)
        assert points[-1].recall == 1.0

    def test_all_wrong(self):
        points = pr_curve([(0.9, False), (0.8, False)], total_gt=2)
        assert all(p.precision == 0.0 for p in points)
        assert all(p.recall == 0.0 for p in points)

    def test_worked_example(self):
        points = pr_curve([(0.9, True), (0.8, False), (0.7, True)], total_gt=2)
        assert [(p.precision, p.recall) for p in points] == [
            (1.0, 0.5),
            (0.5, 0.5),
            (2.0 / 3.0, 1.0),
        ]
        assert [p.threshold for p in points] == [0.9, 0.8, 0.7]

    def test_no_predictions_single_flagged_point(self):
        points = pr_curve([], total_gt=3)
        assert len(points) == 1
        assert math.isnan(points[0].precision)
        assert points[0].recall == 0.0

    def test_thresholds_strictly_decreasing_recall_non_decreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            flagged = [
                (float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])), bool(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 20)))
            ]
            points = pr_curve(flagged, total_gt=10)
            thresholds = [p.threshold for p in points]
            recalls = [p.recall for p in points]
            assert thresholds == sorted(thresholds, reverse=True)
            assert len(set(thresholds)) == len(thresholds)
            assert recalls == sorted(recalls)

    def test_zero_gt_rejected(self):
        with pytest.raises(UndefinedMetric):
            pr_curve([(0.9, True)], total_gt=0)

    def test_pipeline_consistency_with_counts(self):
        rng = np.random.default_rng(7)
        flagged = [(float(rng.uniform(0, 1)), bool(rng.integers(0, 2))) for _ in range(25)]
        total_gt = 30
        points = pr_curve(flagged, total_gt)
        tp = sum(1 for _, f in flagged if f)
        counts = ConfusionCounts(tp=tp, fp=len(flagged) - tp, fn=total_gt - tp)
        assert points[-1].precision == pytest.approx(precision(counts))
        assert points[-1].recall == pytest.approx(recall(counts))


class TestAveragePrecision:
    def test_perfect_detector(self):
        points = pr_curve([(0.9, True), (0.8, True)], total_gt=2)
        assert average_precision(points) == 1.0

    def test_worked_example(self):
        points = pr_curve([(0.9, True), (0.8, False), (0.7, True)], total_gt=2)
        assert average_precision(points) == pytest.approx(0.5 + 0.5 * 2.0 / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            flagged = [
                (float(rng.uniform(0, 1)), bool(rng.integers(0, 2))) for _ in range(n)
            ]
            total_gt = max(1, sum(1 for _, f in flagged if f) + int(rng.integers(0, 5)))
            got = average_precision(pr_curve(flagged, total_gt))
            want = oracles.ap_by_threshold_enumeration(flagged, total_gt)
            assert abs(got - want) <= 1e-9

    def test_invariant_under_monotone_score_rescale(self):
        rng = np.random.default_rng(9)
        flagged = [(float(rng.uniform(0, 1)), bool(rng.integers(0, 2))) for _ in range(20)]
        total_gt = 15
        base = average_precision(pr_curve(flagged, total_gt))
        squashed = [(s**3 * 0.5 + 0.1, f) for s, f in flagged]
        assert average_precision(pr_curve(squashed, total_gt)) == pytest.approx(base)

    def test_empty_curve_rejected(self):
        with pytest.raises(UndefinedMetric):
            average_precision([])

    def test_no_prediction_curve_gives_zero(self):
        assert average_precision(pr_curve([], total_gt=4)) == 0.0

    def test_envelope_non_increasing(self):
        rng = np.random.default_rng(10)
        points = pr_curve(
            [(float(rng.uniform(0, 1)), bool(rng.integers(0, 2))) for _ in range(30)], 20
        )
        envelope = []
        for i, p in enumerate(points):
            envelope.append(max(q.precision for q in points[i:]))
        assert envelope == sorted(envelope, reverse=True)


_flagged = st.lists(st.tuples(strategies.scores, st.booleans()), max_size=60)


class TestAveragePrecisionOracle:
    """The one-pass envelope against the quadratic body it replaced."""

    @given(_flagged, st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_equals_quadratic_oracle_on_pr_curves(self, flagged, extra_gt):
        total_gt = max(1, sum(1 for _, f in flagged if f) + extra_gt)
        points = pr_curve(flagged, total_gt)
        got = average_precision(points)
        assert got == oracles.naive_average_precision(points)
        if flagged:
            assert abs(got - oracles.ap_by_threshold_enumeration(flagged, total_gt)) <= 1e-9

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(st.just(math.nan), st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_quadratic_oracle_on_raw_curves(self, steps):
        """Arbitrary curves with NaN precisions and repeated recalls: the same
        bits where the oracle's envelope exists, UndefinedMetric where it does not."""
        recall_steps = np.cumsum([step for step, _ in steps]) / (4.0 * len(steps))
        points = [PRPoint(1.0, p, float(r)) for r, (_, p) in zip(recall_steps, steps)]
        try:
            want = oracles.naive_average_precision(points)
        except ValueError:  # max() of an empty sequence: every remaining precision is NaN
            with pytest.raises(UndefinedMetric):
                average_precision(points)
        else:
            assert average_precision(points) == want

    def test_single_nan_point(self):
        points = [PRPoint(1.0, math.nan, 0.0)]
        assert average_precision(points) == oracles.naive_average_precision(points) == 0.0

    def test_nan_envelope_raises_undefined_metric(self):
        with pytest.raises(UndefinedMetric):
            average_precision([PRPoint(0.9, 1.0, 0.2), PRPoint(0.5, math.nan, 0.4)])


@st.composite
def _image(draw, max_preds=8, max_gts=6):
    """Detections and ground truths of one image, with mixed classes and
    score ties; ground truths and predictions often copy an earlier ground
    truth's polygon, which ties IoUs along a row."""
    gts = []
    for _ in range(draw(st.integers(0, max_gts))):
        if gts and draw(st.booleans()):
            polygon = gts[draw(st.integers(0, len(gts) - 1))].polygon
        else:
            polygon = draw(strategies.unit_polygons())
        gts.append(DetectionRecord("img", draw(strategies.classes), 1.0, polygon=polygon))
    preds = []
    for _ in range(draw(st.integers(0, max_preds))):
        if gts and draw(st.booleans()):
            polygon = gts[draw(st.integers(0, len(gts) - 1))].polygon
        else:
            polygon = draw(strategies.unit_polygons())
        preds.append(DetectionRecord("img", draw(strategies.classes), draw(strategies.scores),
                                     polygon=polygon))
    return preds, gts


def _reference_match(preds, gts, thresh, pair_iou):
    matrix = [
        [pair_iou(p, g) if p.class_id == g.class_id else 0.0 for g in gts] for p in preds
    ]
    return oracles.greedy_match_reference([p.score for p in preds], gts, matrix, thresh)


_thresholds = st.sampled_from([0.05, 0.3, 0.5, 1.0])


class TestMatchInstancesOracle:
    """Per-image IoU matrix matching against a pair-by-pair greedy reference."""

    @given(_image(), _thresholds)
    @settings(max_examples=200, deadline=None)
    def test_box_mode(self, image, thresh):
        preds, gts = image

        def pair_iou(p, g):
            return oracles.corner_iou(
                oracles.polygon_corners(p.polygon), oracles.polygon_corners(g.polygon)
            )

        assert match_instances(preds, gts, thresh) == _reference_match(preds, gts, thresh, pair_iou)

    @given(_image(), _thresholds, st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_mask_mode(self, image, thresh, width, height):
        preds, gts = image

        def pair_iou(p, g):
            return oracles.mask_iou(
                polygon_to_mask(p.polygon, width, height), polygon_to_mask(g.polygon, width, height)
            )

        got = match_instances(preds, gts, thresh, mode="mask", extent=(width, height))
        assert got == _reference_match(preds, gts, thresh, pair_iou)

    def test_empty_rasters_match_each_other(self):
        """Two polygons too small to cover a pixel center score IoU 1.0, as in oracles.mask_iou."""
        speck = np.array([[0.501, 0.501], [0.502, 0.501], [0.502, 0.502]])
        pred = DetectionRecord("img", 0, 0.9, polygon=speck)
        gt = DetectionRecord("img", 0, 1.0, polygon=speck + 0.3)
        assert match_instances([pred], [gt], 1.0, mode="mask", extent=(8, 8)) == ([True], 0)


class TestCsvExport:
    def test_format(self):
        points = [PRPoint(0.9, 1.0, 0.5), PRPoint(0.8, 0.5, 0.5)]
        text = pr_curve_to_csv(points)
        lines = text.splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert lines[1] == "0.900000,1.000000,0.500000"
        assert text.endswith("\n")


class TestDetectionRecord:
    def test_score_out_of_range(self):
        with pytest.raises(OutOfRange):
            DetectionRecord("a", 0, 1.5, _TRIANGLE)

    def test_needs_geometry(self):
        from crackscope.errors import MalformedPrediction

        with pytest.raises(MalformedPrediction):
            DetectionRecord("a", 0, 0.5, None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.1])
    def test_polygon_coordinates_checked(self, bad):
        polygon = np.array([[0.1, 0.1], [0.5, 0.1], [0.3, 0.6]])
        polygon[1, 1] = bad
        with pytest.raises(OutOfRange):
            DetectionRecord("a", 0, 0.5, polygon=polygon)

    @pytest.mark.parametrize(
        "image, cls, score",
        [(3, 0, 0.5), ("a", True, 0.5), ("a", 1.5, 0.5), ("a", math.inf, 0.5), ("a", -1, 0.5),
         ("a", 0, True), ("a", 0, "0.5")],
    )
    def test_field_types_checked(self, image, cls, score):
        from crackscope.errors import MalformedPrediction

        with pytest.raises(MalformedPrediction):
            DetectionRecord(image, cls, score, _TRIANGLE)

    @pytest.mark.parametrize(
        "polygon",
        [[["0.1", "0.1"], [0.5, 0.1], [0.3, 0.6]], [[True, 0.1], [0.5, 0.1], [0.3, 0.6]],
         [[10**400, 0.1], [0.5, 0.1], [0.3, 0.6]], np.ones((3, 2), dtype=bool)],
        ids=["text", "bool", "huge-int", "bool-array"],
    )
    def test_polygon_coordinate_types_checked(self, polygon):
        from crackscope.errors import MalformedPrediction

        with pytest.raises(MalformedPrediction):
            DetectionRecord("a", 0, 0.5, polygon=polygon)

    def test_numpy_and_integer_values_accepted(self):
        record = DetectionRecord("a", np.int64(2), 1, _TRIANGLE)
        assert type(record.class_id) is int and record.class_id == 2
        assert type(record.score) is float and record.score == 1.0
        record = DetectionRecord("a", 0, 0.5, polygon=[[0, 0], [1, np.float32(0.5)], [0.5, 1]])
        assert np.array_equal(record.polygon, [[0, 0], [1, 0.5], [0.5, 1]])

    def test_short_polygon_rejected(self):
        from crackscope.errors import MalformedPrediction

        with pytest.raises(MalformedPrediction):
            DetectionRecord("a", 0, 0.5, polygon=np.array([[0.1, 0.1], [0.2, 0.2]]))
