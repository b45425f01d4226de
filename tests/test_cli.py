import json
import os
import subprocess
import sys

import numpy as np
import pytest

from crackscope.cli import main
from crackscope.dataio import write_pgm


@pytest.fixture
def bar_mask_path(tmp_path):
    """Synthetic crack: horizontal bar exactly 7 px tall."""
    gray = np.zeros((32, 64), dtype=np.uint8)
    gray[12:19, 4:60] = 255
    path = tmp_path / "crack.pgm"
    path.write_bytes(write_pgm(gray))
    return path


@pytest.fixture
def eval_fixture(tmp_path):
    """Two images, three GTs, three predictions with hand-countable outcome.

    img1: one GT square, one matching pred @0.9 and one far miss @0.8.
    img2: two GT squares, one matching pred @0.7.
    Expected at IoU 0.5 (box mode): tp=2, fp=1, fn=1.
    """
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    square = "0.2 0.2 0.6 0.2 0.6 0.6 0.2 0.6"
    far = "0.7 0.7 0.9 0.7 0.9 0.9 0.7 0.9"
    (gt_dir / "img1.txt").write_text(f"0 {square}\n")
    (gt_dir / "img2.txt").write_text(f"0 {square}\n0 {far}\n")

    def poly(coords):
        vals = [float(v) for v in coords.split()]
        return [[vals[i], vals[i + 1]] for i in range(0, len(vals), 2)]

    preds = [
        {"image": "img1", "class": 0, "score": 0.9, "polygon": poly(square)},
        {"image": "img1", "class": 0, "score": 0.8, "polygon": poly(far)},  # no gt there
        {"image": "img2", "class": 0, "score": 0.7, "polygon": poly(square)},
    ]
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("".join(json.dumps(p) + "\n" for p in preds))
    return gt_dir, pred_path


class TestAnalyze:
    def test_bar_reports_width_seven(self, bar_mask_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--mask", str(bar_mask_path), "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        assert abs(reports[0]["max_width_px"] - 7.0) <= 1.0
        assert reports[0]["component_id"] == 1
        assert "max_width_mm" not in reports[0]

    def test_scale_flag_adds_mm(self, bar_mask_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--mask", str(bar_mask_path), "--out", str(out),
             "--scale-mm-per-px", "2.0"]
        )
        assert code == 0
        (report,) = json.loads(out.read_text())
        assert report["max_width_mm"] == report["max_width_px"] * 2.0

    def test_scale_overflowing_to_infinity_exits_1(self, tmp_path, capsys):
        # 5 px * 1e308 mm/px is infinite, which a JSON report cannot hold
        full = tmp_path / "full.pgm"
        full.write_bytes(write_pgm(np.full((5, 5), 255, dtype=np.uint8)))
        out = tmp_path / "o.json"
        argv = ["analyze", "--mask", str(full), "--out", str(out), "--scale-mm-per-px", "1e308"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: mm_per_px 1e+308 is too large: "
            "component 1's max width of 5.0 px is infinite in mm\n"
        )
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["analyze", "--mask", str(tmp_path / "nope.pgm"), "--out", "x.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_format_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n1 1\n255\n0")
        code = main(["analyze", "--mask", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: not a binary P5 graymap\n"

    def test_component_without_skeleton_exits_1(self, tmp_path, capsys):
        # a 2x2 speck thins away entirely; analyze reports it rather than
        # silently dropping the component
        gray = np.zeros((8, 8), dtype=np.uint8)
        gray[3:5, 3:5] = 255
        speck = tmp_path / "speck.pgm"
        speck.write_bytes(write_pgm(gray))
        code = main(["analyze", "--mask", str(speck), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: component 1 (rows 3-4, cols 3-4) has no skeleton pixels\n"


    def test_maxval_1_mask_reports_as_its_maxval_255_twin(self, tmp_path, capsys):
        # a 2 px wide crack: at maxval 1 its samples are 1, which a fixed
        # threshold of 128 would read as background
        crack = np.zeros((12, 40), dtype=np.uint8)
        crack[5:7, 3:37] = 1
        header = b"P5\n40 12\n1\n"
        (tmp_path / "one.pgm").write_bytes(header + crack.tobytes())
        (tmp_path / "full.pgm").write_bytes(write_pgm(255 * crack))
        for name in ("one", "full"):
            argv = ["analyze", "--mask", str(tmp_path / f"{name}.pgm"),
                    "--out", str(tmp_path / f"{name}.json")]
            assert main(argv) == 0
        assert "1 component(s) analyzed" in capsys.readouterr().out
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "full.json").read_bytes()

    def test_sample_above_maxval_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 1\n100\n\x00\xc8")
        code = main(["analyze", "--mask", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: sample 200 exceeds maxval 100\n"
        assert not (tmp_path / "o.json").exists()

    def test_truncated_header_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2")
        code = main(["analyze", "--mask", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: truncated header\n"

    @pytest.mark.parametrize("target", ["nodir/m.json", "."])
    def test_failed_write_names_the_out_path(self, bar_mask_path, tmp_path, target, capsys):
        # a missing directory, then a directory where the file should go
        out = tmp_path / target
        code = main(["analyze", "--mask", str(bar_mask_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: [Errno ")
        assert err.endswith(f": {str(out)!r}\n")
        assert sorted(os.listdir(tmp_path)) == ["crack.pgm"]  # no temporary file left


class TestEval:
    def test_instance_mode_hand_counts(self, eval_fixture, tmp_path, capsys):
        gt_dir, pred_path = eval_fixture
        out = tmp_path / "metrics.json"
        pr_out = tmp_path / "pr.csv"
        code = main(
            ["eval", "--gt", str(gt_dir), "--pred", str(pred_path),
             "--out", str(out), "--pr-out", str(pr_out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "instance"
        assert (doc["tp"], doc["fp"], doc["fn"]) == (2, 1, 1)
        assert doc["precision"] == pytest.approx(2 / 3)
        assert doc["recall"] == pytest.approx(2 / 3)
        assert doc["tn"] is None and doc["accuracy"] is None
        assert doc["iou_threshold"] == 0.5
        # curve: tp@.9, fp@.8, tp@.7 over 3 gts -> envelope area
        assert doc["ap"] == pytest.approx((1 / 3) * 1.0 + (1 / 3) * (2 / 3))
        lines = pr_out.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) == 4
        assert list(doc) == [
            "mode", "iou_threshold", "tp", "fp", "fn", "tn",
            "precision", "recall", "accuracy", "ap",
        ]

    def test_pixel_mode(self, eval_fixture, tmp_path):
        gt_dir, pred_path = eval_fixture
        out = tmp_path / "metrics.json"
        code = main(
            ["eval", "--gt", str(gt_dir), "--pred", str(pred_path),
             "--mode", "pixel", "--out", str(out), "--raster-size", "64"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "pixel"
        assert doc["tn"] > 0
        assert doc["accuracy"] is not None
        assert doc["ap"] is None and doc["iou_threshold"] is None
        # center square: 25 px side (625 px), far square: 13 px side (169 px);
        # img1 adds 169 fp px, img2 misses 169 fn px -> P = R = 1250/1419
        assert doc["precision"] == pytest.approx(1250 / 1419)
        assert doc["recall"] == pytest.approx(1250 / 1419)

    def test_mask_matching_mode(self, eval_fixture, tmp_path):
        gt_dir, pred_path = eval_fixture
        out = tmp_path / "metrics.json"
        code = main(
            ["eval", "--gt", str(gt_dir), "--pred", str(pred_path),
             "--match", "mask", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert (doc["tp"], doc["fp"], doc["fn"]) == (2, 1, 1)

    def test_pr_out_rejected_in_pixel_mode(self, eval_fixture, tmp_path, capsys):
        gt_dir, pred_path = eval_fixture
        pr_out = tmp_path / "pr.csv"
        code = main(
            ["eval", "--gt", str(gt_dir), "--pred", str(pred_path),
             "--mode", "pixel", "--pr-out", str(pr_out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not pr_out.exists()

    def test_unknown_image_id_exits_1(self, eval_fixture, tmp_path, capsys):
        gt_dir, pred_path = eval_fixture
        extra = {"image": "ghost", "class": 0, "score": 0.5,
                 "polygon": [[0.1, 0.1], [0.2, 0.1], [0.2, 0.2]]}
        pred_path.write_text(pred_path.read_text() + json.dumps(extra) + "\n")
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: predictions reference 1 unknown image id(s): 'ghost'\n"
        )

    def test_stdout_when_no_out_flag(self, eval_fixture, capsys):
        gt_dir, pred_path = eval_fixture
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tp"] == 2

    def test_thread_env_var_does_not_change_results(self, eval_fixture, tmp_path):
        gt_dir, pred_path = eval_fixture
        single = tmp_path / "m1.json"
        multi = tmp_path / "m4.json"
        main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path), "--out", str(single)])
        os.environ["CRACKSCOPE_THREADS"] = "4"
        try:
            main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path), "--out", str(multi)])
        finally:
            del os.environ["CRACKSCOPE_THREADS"]
        assert single.read_text() == multi.read_text()


# (key, raw JSON value) of one bad prediction line
BAD_PREDICTION_VALUES = [
    ("polygon", "[[NaN, 0.1], [0.2, 0.1], [0.2, 0.2]]"),
    ("polygon", "[[0.1, 0.1], [1.2, 0.1], [0.2, 0.2]]"),
    ("polygon", "[[0.1, 0.1], [0.2, -0.1], [0.2, 0.2]]"),
    ("polygon", "[[0.1, 0.1], [Infinity, 0.1], [0.2, 0.2]]"),
    ("polygon", '[["0.1", "0.1"], [0.2, 0.1], [0.2, 0.2]]'),
    ("polygon", "[[true, 0.1], [0.2, 0.1], [0.2, 0.2]]"),
    ("class", "1e400"),
    ("class", "1.5"),
    ("class", "true"),
    ("class", "-1"),
    ("score", '"0.5"'),
    ("image", "3"),
]


def _one_error_line(err):
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


class TestBadValues:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--raster-size", "-5", "--match", "mask"],
            ["--raster-size", "-5", "--mode", "pixel"],
            ["--raster-size", "-5"],
            ["--raster-size", "0", "--match", "mask"],
            ["--raster-size", "0", "--mode", "pixel"],
            # too large to allocate: pixel mode asks for the 10^16-byte frame
            # before it touches a page (mask mode would first rasterize polygons)
            ["--raster-size", "100000000", "--mode", "pixel"],
            # too large for numpy to size the array at all: rejected up front
            ["--raster-size", "3000000000000", "--mode", "pixel"],
            ["--raster-size", "3000000000000", "--match", "mask"],
        ],
    )
    def test_bad_raster_size(self, eval_fixture, flags, capsys):
        gt_dir, pred_path = eval_fixture
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path), *flags])
        assert code in (1, 2)
        err = capsys.readouterr().err
        _one_error_line(err)
        if flags[1] != "100000000":  # that one fails at the allocation
            assert "--raster-size" in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_scale(self, bar_mask_path, tmp_path, value, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--mask", str(bar_mask_path), "--out", str(out),
                     "--scale-mm-per-px", value])
        assert code in (1, 2)
        _one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "coords",
        ["nan 0.1 0.9 0.1 0.5 0.9", "0.1 0.1 inf 0.1 0.5 0.9", "0.1 0.1 1.5 0.1 0.5 0.9",
         "0.1 -0.2 0.9 0.1 0.5 0.9"],
    )
    def test_bad_label_coordinates(self, eval_fixture, coords, capsys):
        gt_dir, pred_path = eval_fixture
        (gt_dir / "img1.txt").write_text(f"0 {coords}\n")
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)])
        assert code in (1, 2)
        err = capsys.readouterr().err
        _one_error_line(err)
        assert f"error: {gt_dir / 'img1.txt'}: line 1: polygon coordinates must be" in err

    @pytest.mark.parametrize(
        "field, value",
        BAD_PREDICTION_VALUES,
        ids=[v if f == "polygon" else f"{f}={v}" for f, v in BAD_PREDICTION_VALUES],
    )
    def test_bad_prediction_polygon(self, eval_fixture, field, value, capsys):
        """A bad polygon, class, score or image id is one error naming its file and line."""
        gt_dir, pred_path = eval_fixture
        fields = {"image": '"img1"', "class": "0", "score": "0.5",
                  "polygon": "[[0.1, 0.1], [0.2, 0.1], [0.2, 0.2]]", field: value}
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        pred_path.write_text(pred_path.read_text() + bad + "\n")
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)])
        assert code in (1, 2)
        err = capsys.readouterr().err
        _one_error_line(err)
        assert f"error: {pred_path}: line 4: " in err

    @pytest.mark.parametrize(
        "line",
        ["[" * 100_000 + "]" * 100_000,
         '{"image": "img1", "class": 0, "score": 0.5, "polygon": '
         + "[" * 5_000 + "0.1" + "]" * 5_000 + "}"],
        ids=["nested-array", "nested-polygon"],
    )
    def test_deeply_nested_json(self, eval_fixture, line, capsys):
        gt_dir, pred_path = eval_fixture
        pred_path.write_text(pred_path.read_text() + line + "\n")
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)])
        assert code == 1
        err = capsys.readouterr().err
        _one_error_line(err)
        assert err.startswith(f"error: {pred_path}: line 4: invalid JSON")

    @pytest.mark.parametrize(
        "field, value, message",
        [("score", "1" + "0" * 400, "score must be in [0, 1], got 1" + "0" * 400),
         ("class", "1" + "0" * 5000, "invalid JSON (Exceeds the limit (4300 digits)"),
         ("class", str(2**63), "class id must be < 2^63, got 9223372036854775808")],
        ids=["score-beyond-float", "integer-over-digit-limit", "class-beyond-int64"],
    )
    def test_huge_prediction_integers(self, eval_fixture, field, value, message, capsys):
        gt_dir, pred_path = eval_fixture
        fields = {"image": '"img1"', "class": "0", "score": "0.5",
                  "polygon": "[[0.1, 0.1], [0.2, 0.1], [0.2, 0.2]]", field: value}
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        pred_path.write_text(pred_path.read_text() + bad + "\n")
        assert main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)]) == 1
        err = capsys.readouterr().err
        _one_error_line(err)
        assert err.startswith(f"error: {pred_path}: line 4: {message}")

    def test_label_class_beyond_int64(self, eval_fixture, capsys):
        gt_dir, pred_path = eval_fixture
        (gt_dir / "img2.txt").write_text(f"0 0.1 0.1 0.9 0.1 0.5 0.9\n{2**63} 0.1 0.1 0.9 0.1 0.5 0.9\n")
        assert main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {gt_dir / 'img2.txt'}: line 2: class id must be < 2^63, got {2**63}\n")

    def test_label_files_naming_one_image_twice(self, eval_fixture, capsys):
        # a.txt and a.TXT both label image "a": neither may silently replace the other
        gt_dir, pred_path = eval_fixture
        (gt_dir / "img1.TXT").write_text("0 0.7 0.7 0.9 0.7 0.9 0.9 0.7 0.9\n")
        assert main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {gt_dir / 'img1.TXT'} and {gt_dir / 'img1.txt'} both label image 'img1'\n")

    @pytest.mark.parametrize("target", ["label", "pred", "list"])
    def test_non_utf8_input_names_the_file(self, eval_fixture, tmp_path, target, capsys):
        gt_dir, pred_path = eval_fixture
        bad = {"label": gt_dir / "img2.txt", "pred": pred_path, "list": tmp_path / "all.txt"}
        # the bad byte lies past the first 8 KiB read buffer, at offset 9005
        bad[target].write_bytes(b"0 0.1" + b" " * 9000 + b"\xff 0.1 0.9 0.1 0.5 0.9\n")
        if target == "list":
            argv = ["split", str(bad[target]), "--train", "1", "--val", "0", "--test", "0",
                    "--out-dir", str(tmp_path / "splits")]
        else:
            argv = ["eval", "--gt", str(gt_dir), "--pred", str(pred_path)]
        code = main(argv)
        assert code in (1, 2)
        err = capsys.readouterr().err
        _one_error_line(err)
        assert str(bad[target]) in err
        assert "offset 9005" in err

    def test_unknown_ids_give_one_line(self, eval_fixture, capsys):
        gt_dir, pred_path = eval_fixture
        ghosts = [
            {"image": image_id, "class": 0, "score": 0.5,
             "polygon": [[0.1, 0.1], [0.2, 0.1], [0.2, 0.2]]}
            for image_id in ("zed", "ghost")
        ]
        pred_path.write_text(pred_path.read_text() + "".join(json.dumps(g) + "\n" for g in ghosts))
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_path)])
        assert code in (1, 2)
        err = capsys.readouterr().err
        _one_error_line(err)
        assert "2 unknown image id(s): 'ghost', 'zed'" in err


class TestSplit:
    def test_writes_three_files(self, tmp_path, capsys):
        listing = tmp_path / "all.txt"
        listing.write_text("".join(f"img{i}\n" for i in range(10)))
        out_dir = tmp_path / "splits"
        code = main(
            ["split", str(listing), "--train", "6", "--val", "2", "--test", "2",
             "--seed", "5", "--out-dir", str(out_dir)]
        )
        assert code == 0
        train = (out_dir / "train.txt").read_text().splitlines()
        val = (out_dir / "val.txt").read_text().splitlines()
        test = (out_dir / "test.txt").read_text().splitlines()
        assert (len(train), len(val), len(test)) == (6, 2, 2)
        assert len(set(train + val + test)) == 10

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_1(self, tmp_path, seed, capsys):
        listing = tmp_path / "all.txt"
        listing.write_text("a\nb\n")
        code = main(["split", str(listing), "--train", "1", "--val", "1", "--test", "0",
                     "--seed", seed, "--out-dir", str(tmp_path / "splits")])
        assert code == 1
        assert capsys.readouterr().err == f"error: seed must be in [0, 2^64), got {seed}\n"
        assert not (tmp_path / "splits").exists()

    def test_oversized_split_exits_1(self, tmp_path, capsys):
        listing = tmp_path / "all.txt"
        listing.write_text("a\nb\n")
        code = main(["split", str(listing), "--train", "5", "--val", "0", "--test", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestGradcheckCommand:
    def test_exits_zero_when_all_pass(self, capsys):
        code = main(["gradcheck", "--seed", "42", "--tol", "1e-4", "--cases", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out
        assert "conv2d" in out and "cbam" in out and "ciou" in out

    def test_seed_295_passes(self, capsys):
        assert main(["gradcheck", "--seed", "295", "--cases", "1"]) == 0

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["gradcheck", "--cases", "1", "--tol", "1e-18"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "--seed 0 --cases 1 reruns" in captured.err
        assert "FAIL case=0 shapes=" in captured.out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cases", "0"],
            ["--cases", "-3"],
            ["--eps", "0"],
            ["--eps", "-1"],
            ["--eps", "nan"],
            ["--eps", "inf"],
            ["--tol", "-1"],
            ["--tol", "nan"],
            ["--seed", "-1"],
            ["--eps", "0.1"],  # too coarse: finite differences miss the tolerance
            ["--eps", "0.6"],  # a ciou probe would leave the box domain
            ["--eps", "1e300"],
        ],
    )
    def test_bad_argument_exits_1_with_one_error_line(self, flags, capsys):
        code = main(["gradcheck", "--cases", "1", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        if flags != ["--eps", "0.1"]:  # a rejected argument, not a failed check
            assert f"{flags[0][2:]} must" in err


CBAM_WEIGHT_LINES = {
    0: "min=0.286933 mean=0.518668 max=0.689010",
    1: "min=0.264180 mean=0.495404 max=0.691306",
    2: "min=0.347509 mean=0.563180 max=0.796616",
    3: "min=0.558708 mean=0.819245 max=0.951341",
}


class TestAttnDemo:
    @pytest.mark.parametrize("block", ["eca", "cam", "sam", "cbam", "sppf"])
    def test_runs_each_block(self, block, capsys):
        code = main(["attn-demo", "--block", block, "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"block: {block}" in out
        assert "output shape" in out

    def test_cbam_output_pinned(self, capsys):
        """The cbam lines are those of CAM's output fed once to SAM."""
        for seed, weights in CBAM_WEIGHT_LINES.items():
            assert main(["attn-demo", "--block", "cbam", "--seed", str(seed)]) == 0
            assert capsys.readouterr().out == (
                "block: cbam\n"
                "input shape:  (1, 8, 12, 12)\n"
                "output shape: (1, 8, 12, 12)\n"
                f"attention weights: {weights}\n"
                "zero-init identity |out - 0.25*x| = 0.000e+00\n"
            )

    @pytest.mark.parametrize("seed", ["-1", "-2147483648"])
    def test_negative_seed_exits_1_with_one_error_line(self, seed, capsys):
        code = main(["attn-demo", "--block", "sppf", "--seed", seed])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be >= 0, got {seed}\n"

    def test_zero_init_identity_reported(self, capsys):
        main(["attn-demo", "--block", "cbam", "--seed", "1"])
        out = capsys.readouterr().out
        assert "0.25*x" in out


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["analyze", "--mask", "x", "--out", "y", "--bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["analyze", "--mask", "x"]) == 2


def test_module_entry_point(tmp_path):
    gray = np.zeros((16, 16), dtype=np.uint8)
    gray[5:10, 2:14] = 255
    mask = tmp_path / "m.pgm"
    mask.write_bytes(write_pgm(gray))
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "crackscope", "analyze", "--mask", str(mask), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
