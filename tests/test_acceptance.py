"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import time

import numpy as np
import pytest

import oracles
from crackscope import attention, boxes, maskgeom, metrics, ops
from crackscope.cli import main
from crackscope.dataio import SplitSpec, split_dataset, write_pgm
from crackscope.gradcheck import run_gradient_suite


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_1_gradient_suite():
    def check():
        start = time.monotonic()
        reports = run_gradient_suite(seed=20240501, eps=1e-5, tol=1e-4, cases=100)
        elapsed = time.monotonic() - start
        names = {r.op for r in reports}
        assert {"eca", "cam", "sam", "cbam", "sppf", "pipeline", "ciou"} <= names
        assert set(ops.VJP_OPS) <= names
        for r in reports:
            assert r.passed, f"{r.op}: {r.max_rel_error:.3e}"
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"

    _report(1, "all ops and blocks pass 100-case finite-difference checks in < 60 s", check)


def test_criterion_2_zero_parameter_identities():
    def check():
        rng = np.random.default_rng(2)
        eca0 = attention.init_eca(6, zero=True)
        cam0 = attention.init_cam(6, zero=True)
        sam0 = attention.init_sam(zero=True)
        for _ in range(50):
            x = rng.uniform(-3, 3, (2, 6, 5, 7))
            assert np.abs(attention.eca_forward(x, eca0) - 0.5 * x).max() <= 1e-12
            assert np.abs(attention.cam_forward(x, cam0) - 0.5 * x).max() <= 1e-12
            assert np.abs(attention.sam_forward(x, sam0) - 0.5 * x).max() <= 1e-12
            assert np.abs(attention.cbam_forward(x, cam0, sam0) - 0.25 * x).max() <= 1e-12

    _report(2, "zero-init identities: eca/cam/sam = 0.5x, cbam = 0.25x (<= 1e-12)", check)


def test_criterion_3_permutation_invariances():
    def check():
        rng = np.random.default_rng(3)
        eca = attention.init_eca(6, seed=1)
        cam = attention.init_cam(6, seed=2)
        sam = attention.init_sam(seed=3)
        for _ in range(50):
            x = rng.uniform(-2, 2, (1, 6, 6, 6))
            spatial = rng.permutation(36)
            shuffled = x.reshape(1, 6, 36)[:, :, spatial].reshape(1, 6, 6, 6)
            assert np.abs(
                attention.eca_weights(x, eca) - attention.eca_weights(shuffled, eca)
            ).max() <= 1e-12
            assert np.abs(
                attention.cam_weights(x, cam) - attention.cam_weights(shuffled, cam)
            ).max() <= 1e-12
            channels = rng.permutation(6)
            assert np.abs(
                attention.sam_map(x, sam) - attention.sam_map(x[:, channels], sam)
            ).max() <= 1e-12

    _report(3, "eca/cam weights spatial-shuffle invariant; sam map channel-shuffle invariant", check)


def test_criterion_4_sppf_stacked_pool_equivalence():
    def check():
        rng = np.random.default_rng(4)
        for _ in range(50):
            y0 = rng.uniform(-1, 1, (1, 3, 10, 11))
            y1 = ops.maxpool2d(y0, 5)
            y2 = ops.maxpool2d(y1, 5)
            y3 = ops.maxpool2d(y2, 5)
            assert np.array_equal(y2, ops.maxpool2d(y0, 9))
            assert np.array_equal(y3, ops.maxpool2d(y0, 13))

    _report(4, "chained 5-pools equal single 9- and 13-pools exactly", check)


def test_criterion_5_ciou_properties():
    def check():
        loss = boxes.ciou_loss(boxes.BBox(0, 0, 2, 2), boxes.BBox(2, 0, 2, 2))
        assert abs(loss - 1.2) <= 1e-9
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            a = boxes.BBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))
            b = boxes.BBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))
            assert boxes.ciou_loss(a, a) <= 1e-12
            base = boxes.ciou_loss(a, b)
            assert abs(base - boxes.ciou_loss(b, a)) <= 1e-9
            dx, dy = rng.uniform(-10, 10, 2)
            assert abs(boxes.ciou_loss(a.shifted(dx, dy), b.shifted(dx, dy)) - base) <= 1e-9
            s = float(rng.uniform(0.1, 10))
            assert abs(boxes.ciou_loss(a.scaled(s), b.scaled(s)) - base) <= 1e-9

    _report(5, "ciou: zero at identity, symmetric, translation/scale invariant, hand case 1.2", check)


def test_criterion_6_edt_bit_exact():
    def check():
        rng = np.random.default_rng(6)
        start = time.monotonic()
        for _ in range(100):
            mask = rng.random((64, 64)) < rng.uniform(0.15, 0.85)
            flat = np.flatnonzero(mask)  # every foreground pixel
            got = np.sqrt(maskgeom._squared_edt_at(mask, flat))
            want = oracles.brute_force_edt(mask).ravel()[flat]
            assert np.array_equal(got, want)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"edt comparison took {elapsed:.1f}s"

    _report(6, "edt bit-exact vs brute force at every foreground pixel, 100 random 64x64 masks, < 10 s", check)


def test_criterion_7_width_metrology():
    def check():
        rng = np.random.default_rng(7)
        # (label, tolerance, mask); diagonal digitization features get 1.5 px:
        # 45-degree bars, and L elbows whose largest disk sits on the corner
        # bisector (a 45-degree pocket the thinned skeleton passes beside)
        shapes = [
            ("bar-0", 1.0, oracles.rotated_bar_mask((64, 64), (32, 32), 40, 9, 0)),
            ("bar-45", 1.5, oracles.rotated_bar_mask((64, 64), (32, 32), 40, 9, 45)),
            ("bar-90", 1.0, oracles.rotated_bar_mask((64, 64), (32, 32), 40, 9, 90)),
            ("disk-13", 1.0, oracles.disk_mask((64, 64), (32, 32), 13)),
            ("disk-22", 1.0, oracles.disk_mask((80, 80), (40, 40), 22)),
            ("wedge", 1.0, oracles.wedge_mask((64, 64), (6, 32), 50, 16)),
            ("l-9", 1.5, oracles.l_shape_mask((64, 64), 9, 42)),
            ("l-5", 1.5, oracles.l_shape_mask((64, 64), 5, 30)),
        ]
        for i in range(12):
            angle = float(rng.uniform(0, 180))
            off_axis = min(angle % 90.0, 90.0 - angle % 90.0) > 10.0
            shapes.append(
                (
                    f"bar-rand-{i}",
                    1.5 if off_axis else 1.0,
                    oracles.rotated_bar_mask(
                        (64, 64), (32, 32), rng.uniform(25, 45), rng.uniform(4, 13), angle
                    ),
                )
            )
        assert len(shapes) >= 20
        for label, tol, mask in shapes:
            reports = maskgeom.analyze_mask(mask)
            assert reports, label
            skeleton = maskgeom.skeletonize(mask)
            for r in reports:
                assert 0 < r.min_width_px <= r.max_width_px, label
                assert skeleton[r.max_width_location], label
                assert skeleton[r.min_width_location], label
            got = max(r.max_width_px for r in reports)
            want = oracles.max_inscribed_disk_width(mask)
            assert abs(got - want) <= tol, (label, got, want)

    _report(7, "max widths within +-1 px (+-1.5 diagonal) of inscribed-disk oracle on 20+ shapes", check)


def test_criterion_8_metric_equivalences():
    def check():
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 40, 4))
            c = metrics.ConfusionCounts(tp, fp, fn, tn)
            if tp + fn:
                assert metrics.recall(c) == tp / (tp + fn)
            if tp + fp:
                assert metrics.precision(c) == tp / (tp + fp)
            if tp + fp + fn + tn:
                assert metrics.accuracy(c) == (tp + tn) / (tp + fp + fn + tn)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            flagged = [(float(rng.uniform(0, 1)), bool(rng.integers(0, 2))) for _ in range(n)]
            total_gt = max(1, sum(f for _, f in flagged) + int(rng.integers(0, 4)))
            scores, flags = zip(*flagged)
            got = metrics.average_precision(*metrics.pr_curve(scores, flags, total_gt)[1:])
            want = oracles.ap_by_threshold_enumeration(flagged, total_gt)
            assert abs(got - want) <= 1e-9
        worked = metrics.average_precision(
            *metrics.pr_curve([0.9, 0.8, 0.7], [True, False, True], total_gt=2)[1:]
        )
        assert abs(worked - (0.5 + 0.5 * 2 / 3)) <= 1e-12

    _report(8, "recall/precision/accuracy match the defining ratios; ap matches brute force", check)


def test_criterion_9_split_reproduction():
    def check():
        items = [f"image_{i:05d}.jpg" for i in range(4029)]
        spec = SplitSpec(train=3717, val=200, test=112, seed=20240501)
        first = split_dataset(items, spec)
        second = split_dataset(list(items), spec)
        assert tuple(len(part) for part in first) == (3717, 200, 112)
        assert first == second
        union = set(first[0]) | set(first[1]) | set(first[2])
        assert len(union) == 4029
        # platform-independence guard: the pinned generator's output is frozen
        small = split_dataset(list("abcdefgh"), SplitSpec(4, 2, 2, seed=42))
        assert small == (list("afbh"), list("de"), list("cg"))

    _report(9, "4029 items split exactly 3717/200/112, identical across runs (pinned prng)", check)


def test_criterion_10_end_to_end_cli(tmp_path, capsys):
    def check():
        # analyze: a 7 px wide synthetic crack bar
        gray = np.zeros((40, 80), dtype=np.uint8)
        gray[16:23, 6:74] = 200
        mask_path = tmp_path / "bar.pgm"
        mask_path.write_bytes(write_pgm(gray))
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--mask", str(mask_path), "--out", str(report_path)]) == 0
        (report,) = json.loads(report_path.read_text())
        assert abs(report["max_width_px"] - 7.0) <= 1.0

        # eval: constructed scene with hand-counted tp=2, fp=1, fn=1
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        square = "0.2 0.2 0.6 0.2 0.6 0.6 0.2 0.6"
        far = "0.7 0.7 0.9 0.7 0.9 0.9 0.7 0.9"
        (gt_dir / "img1.txt").write_text(f"0 {square}\n")
        (gt_dir / "img2.txt").write_text(f"0 {square}\n0 {far}\n")

        def poly(csv):
            vals = [float(v) for v in csv.split()]
            return [[vals[i], vals[i + 1]] for i in range(0, len(vals), 2)]

        preds = [
            {"image": "img1", "class": 0, "score": 0.9, "polygon": poly(square)},
            {"image": "img1", "class": 0, "score": 0.8, "polygon": poly(far)},
            {"image": "img2", "class": 0, "score": 0.7, "polygon": poly(square)},
        ]
        pred_path = tmp_path / "preds.jsonl"
        pred_path.write_text("".join(json.dumps(p) + "\n" for p in preds))
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["eval", "--gt", str(gt_dir), "--pred", str(pred_path), "--out", str(metrics_path)]
        )
        assert code == 0
        doc = json.loads(metrics_path.read_text())
        assert (doc["tp"], doc["fp"], doc["fn"]) == (2, 1, 1)
        assert doc["precision"] == pytest.approx(2 / 3)
        assert doc["recall"] == pytest.approx(2 / 3)

        # gradcheck exits 0
        assert main(["gradcheck", "--seed", "11", "--cases", "3"]) == 0

    _report(10, "cli: analyze reports the 7 px bar, eval reproduces hand counts, gradcheck exits 0", check)
