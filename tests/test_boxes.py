import math

import numpy as np
import pytest

from crackscope.boxes import (
    BBox,
    GridCellPred,
    ciou_grad,
    ciou_loss,
    ciou_vjp,
    decode_anchor_free,
    iou,
)
from crackscope.errors import InvalidBox, InvalidPrediction
from crackscope.gradcheck import gradcheck_fn


def _random_box(rng):
    return BBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))


class TestIou:
    def test_identical_boxes(self):
        b = BBox(1.0, 2.0, 3.0, 4.0)
        assert iou(b, b) == 1.0

    def test_hand_case_one_third(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 0, 2, 2)
        assert math.isclose(iou(a, b), 1.0 / 3.0)

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(10, 0, 1, 1)) == 0.0

    def test_fuzz_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a, b = _random_box(rng), _random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)
        assert iou(a, a) == 1.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(InvalidBox):
            BBox(0, 0, 0.0, 1.0)
        with pytest.raises(InvalidBox):
            BBox(0, 0, 1.0, -2.0)


def _scripted_ciou(pred, gt):
    """Term-by-term re-evaluation of the loss definition, written directly."""
    px0, py0, px1, py1 = pred.corners
    gx0, gy0, gx1, gy1 = gt.corners
    iw = max(0.0, min(px1, gx1) - max(px0, gx0))
    ih = max(0.0, min(py1, gy1) - max(py0, gy0))
    inter = iw * ih
    union = pred.w * pred.h + gt.w * gt.h - inter
    overlap = inter / union
    rho2 = (pred.cx - gt.cx) ** 2 + (pred.cy - gt.cy) ** 2
    c2 = (max(px1, gx1) - min(px0, gx0)) ** 2 + (max(py1, gy1) - min(py0, gy0)) ** 2
    v = 4.0 / math.pi**2 * (math.atan(gt.w / gt.h) - math.atan(pred.w / pred.h)) ** 2
    alpha = v / ((1.0 - overlap) + v) if v else 0.0
    return (1.0 - overlap) + rho2 / c2 + alpha * v


class TestCiouLoss:
    def test_zero_iff_identical(self):
        b = BBox(3.0, -1.0, 2.0, 5.0)
        assert ciou_loss(b, b) == 0.0

    def test_hand_case(self):
        # disjoint unit-aspect squares: 1 - 0 + 4/20 + 0 = 1.2
        loss = ciou_loss(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2))
        assert abs(loss - 1.2) <= 1e-9

    def test_same_center_different_aspect_matches_script(self):
        pred = BBox(0, 0, 2, 2)
        gt = BBox(0, 0, 2, 4)
        assert math.isclose(ciou_loss(pred, gt), _scripted_ciou(pred, gt), rel_tol=1e-12)

    def test_fuzz_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            a, b = _random_box(rng), _random_box(rng)
            loss = ciou_loss(a, b)
            assert loss >= 0.0
            assert abs(loss - ciou_loss(b, a)) <= 1e-9
            assert abs(loss - _scripted_ciou(a, b)) <= 1e-9
            t = rng.uniform(-10, 10, 2)
            shifted = abs(ciou_loss(a.shifted(*t), b.shifted(*t)) - loss)
            assert shifted <= 1e-9
            s = rng.uniform(0.1, 10)
            scaled = abs(ciou_loss(a.scaled(s), b.scaled(s)) - loss)
            assert scaled <= 1e-9
            assert ciou_loss(a, a) == 0.0


class TestCiouGrad:
    def test_center_components_stationary_at_match(self):
        b = BBox(1.0, 2.0, 3.0, 2.0)
        grad, at_kink = ciou_grad(b, b)
        assert at_kink  # every corner ties
        assert abs(grad[0]) <= 1e-12 and abs(grad[1]) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        eps = 1e-6
        checked = 0
        while checked < 100:
            pred, gt = _random_box(rng), _random_box(rng)
            grad, at_kink = ciou_grad(pred, gt)
            if at_kink:
                continue
            overlap, _, v = ciou_vjp(pred, gt)[0]
            alpha = v / ((1.0 - overlap) + v) if v else 0.0

            def frozen(vec):
                overlap, center, v = ciou_vjp(BBox(*vec), gt)[0]
                return (1.0 - overlap) + center + alpha * v

            vec = np.array([pred.cx, pred.cy, pred.w, pred.h])
            for i in range(4):
                hi, lo = vec.copy(), vec.copy()
                hi[i] += eps
                lo[i] -= eps
                numeric = (frozen(hi) - frozen(lo)) / (2 * eps)
                scale = max(1.0, abs(grad[i]), abs(numeric))
                assert abs(grad[i] - numeric) / scale <= 1e-4
            checked += 1

    def test_touching_boxes_flagged_as_kink(self):
        _, at_kink = ciou_grad(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2))
        assert at_kink

    def test_smooth_interior_not_flagged(self):
        _, at_kink = ciou_grad(BBox(0.1, 0.2, 2, 2), BBox(0.5, 0.3, 3, 1))
        assert not at_kink


class TestCiouVjp:
    def test_iou_loss_and_grad_read_the_terms_and_pullback(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            pred, gt = _random_box(rng), _random_box(rng)
            terms, pullback = ciou_vjp(pred, gt)
            assert terms.shape == (3,) and terms.dtype == np.float64
            overlap, center, v = terms
            alpha = v / ((1.0 - overlap) + v) if v else 0.0
            assert iou(pred, gt) == overlap
            assert ciou_loss(pred, gt) == (1.0 - overlap) + center + alpha * v
            (grad,) = pullback(np.array([-1.0, 1.0, alpha]))
            assert np.array_equal(ciou_grad(pred, gt)[0], grad)

    @pytest.mark.parametrize("side", range(4))
    def test_a_tie_takes_the_gt_side(self, side):
        # pred's corner coordinate `side` (x0, y0, x1, y1) equals gt's, so
        # each selection takes gt's: each term's gradient is the one at a gt
        # moved a hair to where it wins the selection strictly, inward for the
        # intersection (IoU), outward for the enclosure (rho^2/c^2)
        pred = BBox(0.0, 0.0, 2.0, 2.0)  # corners -1, -1, 1, 1
        corners = [-0.5, -0.5, 1.5, 0.75]
        corners[side] = pred.corners[side]
        outward = 2.0**-30 * (-1 if side < 2 else 1)

        def gt_at(shift):
            c = list(corners)
            c[side] += shift
            return BBox((c[0] + c[2]) / 2, (c[1] + c[3]) / 2, c[2] - c[0], c[3] - c[1])

        assert gt_at(0.0).corners[side] == pred.corners[side]
        assert ciou_grad(pred, gt_at(0.0))[1]
        for up, shift in (([1.0, 0.0, 0.0], -outward), ([0.0, 1.0, 0.0], outward)):
            (tied,) = ciou_vjp(pred, gt_at(0.0))[1](np.array(up))
            (strict,) = ciou_vjp(pred, gt_at(shift))[1](np.array(up))
            assert np.allclose(tied, strict, rtol=1e-6, atol=1e-8)

    def test_per_term_check_catches_what_the_weighted_sum_hides(self):
        """A 1% error in v's gradient is scaled by alpha in the loss gradient,
        so the loss hides it when alpha is small; a random upstream does not."""
        pred, gt = BBox(0.0, 0.0, 1.0, 2.0), BBox(0.6, 0.3, 1.6, 2.0)
        (overlap, _, v), _ = ciou_vjp(pred, gt)
        alpha = v / ((1.0 - overlap) + v)
        assert alpha < 0.05

        def mutated(vec):
            terms, pullback = ciou_vjp(BBox(*vec), gt)

            def scaled_v(up):  # the v term's gradient times 1.01
                (grad,) = pullback(up)
                (grad_v,) = pullback(np.array([0.0, 0.0, up[2]]))
                return (grad + 0.01 * grad_v,)

            return terms, scaled_v

        vec = np.array([pred.cx, pred.cy, pred.w, pred.h])
        loss_weights = np.array([-1.0, 1.0, alpha])
        hidden = mutated(vec)[1](loss_weights)[0] - ciou_vjp(pred, gt)[1](loss_weights)[0]
        assert np.abs(hidden).max() < 1e-4  # under the loss check's tolerance
        exact = gradcheck_fn("ciou", lambda x: ciou_vjp(BBox(*x), gt), (vec,))
        assert exact.passed
        report = gradcheck_fn("ciou", mutated, (vec,))
        assert not report.passed and not report.at_kink


class TestDecode:
    def test_zero_raw_centers_cell(self):
        box = decode_anchor_free(GridCellPred(0, 0, 8.0, (0.0, 0.0, 0.0, 0.0)))
        assert (box.cx, box.cy, box.w, box.h) == (4.0, 4.0, 8.0, 8.0)

    def test_log_size_doubles_width(self):
        box = decode_anchor_free(GridCellPred(0, 0, 8.0, (0.0, 0.0, math.log(2.0), 0.0)))
        assert math.isclose(box.w, 16.0)
        assert math.isclose(box.h, 8.0)

    def test_hand_case_cell_3_2_stride_16(self):
        box = decode_anchor_free(GridCellPred(3, 2, 16.0, (0.0, 0.0, 0.0, 0.0)))
        assert (box.cx, box.cy, box.w, box.h) == (56.0, 40.0, 16.0, 16.0)

    def test_non_finite_raw_rejected(self):
        with pytest.raises(InvalidPrediction):
            decode_anchor_free(GridCellPred(0, 0, 8.0, (math.nan, 0.0, 0.0, 0.0)))
        with pytest.raises(InvalidPrediction):
            decode_anchor_free(GridCellPred(0, 0, 8.0, (0.0, math.inf, 0.0, 0.0)))

    def test_invalid_cell_rejected(self):
        with pytest.raises(InvalidPrediction):
            GridCellPred(-1, 0, 8.0, (0, 0, 0, 0))
        with pytest.raises(InvalidPrediction):
            GridCellPred(0, 0, 0.0, (0, 0, 0, 0))

    def test_fuzz_center_in_cell_and_positive_size(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            gx, gy = int(rng.integers(0, 20)), int(rng.integers(0, 20))
            stride = float(rng.uniform(1, 32))
            raw = tuple(rng.uniform(-6, 6, 4))
            box = decode_anchor_free(GridCellPred(gx, gy, stride, raw))
            assert box.w > 0 and box.h > 0
            assert gx * stride < box.cx < (gx + 1) * stride
            assert gy * stride < box.cy < (gy + 1) * stride
