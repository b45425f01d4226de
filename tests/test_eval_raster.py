"""``eval --match mask`` and ``eval --mode pixel`` through the table
rasterizer: byte-identical outputs to the one-polygon fill it replaced, one
rasterizer call per side for each group of images, and a bounded allocation
peak at a large raster."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from crackscope import dataio
from crackscope.cli import main


def _per_polygon_crops(table, width, height):
    """The rasterization ``eval`` did before the table body: one
    ``oracles.polygon_to_crop`` call per row."""
    return [oracles.polygon_to_crop(row.polygon, width, height) for row in table]


def _run_with(body, argv):
    """``main(argv)`` with ``body`` as the table rasterizer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "table_crops", body)
        return main(argv)


def _write_corpus(directory, images):
    """Label files and a prediction file for ``images``, a list of
    ``(ground truths, predictions)``: ``(class, polygon)`` and ``(class,
    score, polygon)`` tuples."""
    gt_dir = directory / "labels"
    gt_dir.mkdir()
    lines = []
    for i, (gts, preds) in enumerate(images):
        labels = [f"{c} " + " ".join(repr(float(v)) for v in np.ravel(p)) + "\n" for c, p in gts]
        (gt_dir / f"img{i}.txt").write_text("".join(labels))
        for c, score, p in preds:
            doc = {"image": f"img{i}", "class": c, "score": score, "polygon": np.asarray(p).tolist()}
            lines.append(json.dumps(doc) + "\n")
    (directory / "preds.jsonl").write_text("".join(lines))
    return ["--gt", str(gt_dir), "--pred", str(directory / "preds.jsonl")]


def _star(rng, cx, cy, radius):
    """A 12-vertex star-shaped polygon around (cx, cy), as the benchmark draws them."""
    angles = (np.arange(12) + rng.uniform(-0.3, 0.3, 12)) * (2.0 * np.pi / 12)
    radii = radius * rng.uniform(0.7, 1.0, 12)
    points = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
    return np.round(np.clip(points, 0.0, 1.0), 6)


def _bench_like_images(count, gts_per_image, seed=0):
    """Crack-sized stars: per ground truth a jittered copy scored in [0.5, 1)
    and a false alarm anywhere scored below 0.5."""
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        gts, preds = [], []
        for j in range(gts_per_image):
            radius = rng.uniform(0.03, 0.12)
            cx, cy = rng.uniform(radius, 1.0 - radius, 2)
            gts.append((j % 2, _star(rng, cx, cy, radius)))
            dx, dy = rng.uniform(-0.15, 0.15, 2) * radius
            copy = _star(rng, cx + dx, cy + dy, radius * rng.uniform(0.9, 1.1))
            preds.append((j % 2, round(0.5 + 0.5 * rng.uniform(), 9), copy))
            alarm = _star(rng, *rng.uniform(radius, 1.0 - radius, 2), radius)
            preds.append((j % 2, round(0.5 * rng.uniform(), 9), alarm))
        images.append((gts, preds))
    return images


@st.composite
def _corpora(draw):
    """1-3 images of 0-4 ground truths and 0-5 predictions, half of them
    copies of a ground truth, at a raster of 1-48 px."""
    images = []
    for _ in range(draw(st.integers(1, 3))):
        polygon = strategies.unit_polygons(max_vertices=12)
        gts = draw(st.lists(st.tuples(strategies.classes, polygon), max_size=4))
        preds = []
        for _ in range(draw(st.integers(0, 5))):
            if gts and draw(st.booleans()):
                shape = gts[draw(st.integers(0, len(gts) - 1))][1]
            else:
                shape = draw(polygon)
            preds.append((draw(strategies.classes), draw(strategies.scores), shape))
        images.append((gts, preds))
    return images, draw(st.integers(1, 48))


@given(_corpora())
@settings(max_examples=200, deadline=None)
def test_outputs_are_byte_identical_to_the_per_polygon_fill(corpus):
    images, size = corpus
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = _write_corpus(tmp, images)
        outputs = []
        for body in (dataio.table_crops, _per_polygon_crops):
            codes = [
                _run_with(body, ["eval", *files, "--match", "mask", "--raster-size", str(size),
                                 "--out", str(tmp / "mask.json"), "--pr-out", str(tmp / "pr.csv")]),
                _run_with(body, ["eval", *files, "--mode", "pixel", "--raster-size", str(size),
                                 "--out", str(tmp / "pixel.json")]),
            ]
            outputs.append((codes, *((tmp / name).read_bytes() for name in ("mask.json", "pr.csv", "pixel.json"))))
    assert outputs[0] == outputs[1]


class TestRasterizerCalls:
    """Mask matching and pixel mode rasterize each side once for a run whose
    windows fit in ``_WINDOW_SLOTS``, however many images and polygons it
    holds: one call for the predictions and one for the ground truths."""

    @staticmethod
    def calls(tmp_path, gts_per_image, flags, per_polygon=False, images=3):
        """Rasterizer calls of one ``eval`` on bench-like images: calls of
        the table body, or of the one-polygon fill when ``per_polygon``."""
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(1)
                return fn(*args)
            return wrapper

        directory = tmp_path / f"{images}-{gts_per_image}"
        directory.mkdir()
        files = _write_corpus(directory, _bench_like_images(images, gts_per_image))
        argv = ["eval", *files, "--raster-size", "64", "--out", str(directory / "out.json"), *flags]
        with pytest.MonkeyPatch.context() as patch:
            if per_polygon:
                patch.setattr(oracles, "polygon_to_crop", counting(oracles.polygon_to_crop))
                assert _run_with(_per_polygon_crops, argv) == 0
            else:
                assert _run_with(counting(dataio.table_crops), argv) == 0
        return len(calls)

    @pytest.mark.parametrize("flags", [["--match", "mask"], ["--mode", "pixel"]])
    def test_one_call_per_table(self, tmp_path, flags):
        counts = [self.calls(tmp_path, n, flags, images=images) for images in (3, 6) for n in (4, 8)]
        assert counts == [2, 2, 2, 2]

    @pytest.mark.parametrize("flags", [["--match", "mask"], ["--mode", "pixel"]])
    def test_the_per_polygon_fill_fails_the_gate(self, tmp_path, flags):
        counts = [self.calls(tmp_path, n, flags, per_polygon=True) for n in (4, 8)]
        assert counts[0] > 2 * 3 and counts[1] > counts[0]


# the tracemalloc peaks of one eval with the one-polygon fill on this corpus
# at --raster-size 2048, numpy 2.4 (a repeat run peaks at 6.97e6 in mask mode)
_PER_POLYGON_PEAK = {"mask": 7.17e6, "pixel": 16.97e6}


class TestRasterMemory:
    """At a 2048 px raster the table body's allocation peak stays within
    1.25x that of the one-polygon fill: each side is rasterized for a group
    of images whose windows total about ``_WINDOW_SLOTS`` slots, not for the
    whole run at once."""

    FLAGS = {"mask": ["--match", "mask"], "pixel": ["--mode", "pixel"]}

    @classmethod
    def peak(cls, directory, mode):
        files = _write_corpus(directory, _bench_like_images(6, 15))
        argv = ["eval", *files, "--raster-size", "2048", "--out", str(directory / "out.json"), *cls.FLAGS[mode]]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ["mask", "pixel"])
    def test_peak_within_a_quarter_of_the_per_polygon_fill(self, tmp_path, mode):
        peak = self.peak(tmp_path, mode)
        assert peak <= 1.25 * _PER_POLYGON_PEAK[mode], f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("mode", ["mask", "pixel"])
    def test_one_buffer_per_table_fails_the_gate(self, tmp_path, mode, monkeypatch):
        monkeypatch.setattr(dataio, "_WINDOW_SLOTS", 2**62)
        assert self.peak(tmp_path, mode) > 1.25 * _PER_POLYGON_PEAK[mode]
