"""Time each stage of ``crackscope eval`` over a size sweep of one of the
benchmark's eval corpora.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/bench_eval.py --out BENCH.json
    PYTHONPATH=src python3 scripts/bench_eval.py --sweep raster --out BENCH.json

The corpora come from ``perfbench/corpus.py``'s generators (read only), at
the ``full`` scale's 15 ground truths and 30 detections per image.

``--sweep box`` (the default) times ``eval --match box`` stage by stage, each
alone, with as many images as give about 2k, 8k and 32k detections, and
counts the garbage collections the prediction read starts.  The stages are
the ones ``cli._cmd_eval`` runs: the prediction read (``read_predictions`` on
the file's text), the label load (every label file, read and parsed), the
per-image split (one stable sort by image id, then each image's row bounds),
box matching of the whole run (``metrics._match_images``: every pair's IoU,
then the greedy of all images in lockstep), ``split_match``, the sum of those
two, the PR curve with its AP, and the CSV; plus the whole command, in
process.  Each stage's slope is the least-squares slope of log(time)
against log(detections).  ``read_collections`` counts the
cyclic collector's passes, by generation, during one prediction read.

``--sweep raster`` runs the ``eval-raster`` workload's commands, ``eval
--match mask`` then ``eval --mode pixel``, on its corpus (seed 0, stream 3,
6 images) at ``--raster-size`` 256, 512, 1024 and 2048.  The stages are
timed inside the whole commands, by wrapping the functions the commands
call at the names they resolve: the label load (``cli._load_ground_truth``)
and the prediction read, both commands' rasterization (``table_crops``, in
``dataio`` and in ``metrics`` where it is imported there), and the rest of
each command: mask IoU with matching in the first, the pixel fill with its
counts in the second.  Only those public or long-standing names are used,
so the same script times any revision of ``src/``.  Each stage's slope is
taken against log(pixels).

Every time is the best of ``--repeats`` rounds in milliseconds, on one
thread of whatever host runs the script; the document names the host.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from corpus import SCALES, make_eval_images, write_eval_corpus  # noqa: E402

from crackscope import cli, dataio, metrics  # noqa: E402

DETECTIONS = (2000, 8000, 32000)
SEED, STREAM = 0, 2  # the eval-box workload's corpus stream
STAGES = ("read_predictions", "load_labels", "split", "match", "split_match", "pr_ap", "csv", "cli_total")
RASTER_SIZES = (256, 512, 1024, 2048)
RASTER_SEED, RASTER_STREAM = 0, 3  # the eval-raster workload's corpus stream
RASTER_STAGES = ("load_labels", "read_predictions", "rasterize", "mask_match", "pixel_fill",
                 "cli_total")


def best_ms(fn, repeats: int) -> float:
    """Best of ``repeats`` calls of ``fn``, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def split(preds, image_ids):
    """The per-image split of ``cli._cmd_eval``: the table sorted by image id
    and each image's row bounds in it."""
    preds = preds[np.argsort(preds.image_ids, kind="stable")]
    return preds, [*np.searchsorted(preds.image_ids, image_ids).tolist(), len(preds)]


def collections(fn) -> list[int]:
    """Passes the cyclic collector starts while ``fn`` runs, by generation."""
    counts = [0, 0, 0]

    def hook(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(hook)
    try:
        fn()
    finally:
        gc.callbacks.remove(hook)
    return counts


def measure(images: int, workdir: str, repeats: int) -> dict:
    """One row of the sweep: the corpus at ``images`` images, each stage timed alone."""
    corpus = make_eval_images(SEED, images, "full", STREAM)
    gt_dir, pred_path = write_eval_corpus(corpus, workdir)
    with open(pred_path, encoding="utf-8") as fh:
        text = fh.read()
    preds = dataio.read_predictions(text)
    image_ids, gts, gt_bounds = cli._load_ground_truth(gt_dir)
    ordered, pred_bounds = split(preds, image_ids)

    def match():
        return metrics._match_images(ordered, gts, (pred_bounds, gt_bounds), 0.5, "box", (256, 256))

    flags = match()[0]
    total_gt = len(gts)
    curve = metrics.pr_curve(ordered.scores, flags, total_gt)
    argv = ["eval", "--gt", gt_dir, "--pred", pred_path, "--match", "box",
            "--out", os.path.join(workdir, "m.json"), "--pr-out", os.path.join(workdir, "pr.csv")]
    with open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            cli_ms = best_ms(lambda: cli.main(argv), repeats)
        finally:
            sys.stdout = stdout
    times = {
        "read_predictions": best_ms(lambda: dataio.read_predictions(text), repeats),
        "load_labels": best_ms(lambda: cli._load_ground_truth(gt_dir), repeats),
        "split": best_ms(lambda: split(preds, image_ids), repeats),
        "match": best_ms(match, repeats),
        "pr_ap": best_ms(lambda: metrics.average_precision(
            *metrics.pr_curve(ordered.scores, flags, total_gt)[1:]), repeats),
        "csv": best_ms(lambda: metrics.pr_curve_to_csv(*curve), repeats),
        "cli_total": cli_ms,
    }
    times["split_match"] = times["split"] + times["match"]
    return {
        "images": images,
        "detections": len(preds),
        "ground_truths": total_gt,
        "iou_pairs": int(np.dot(np.diff(pred_bounds), np.diff(gt_bounds))),
        "read_collections": collections(lambda: dataio.read_predictions(text)),
        "ms": times,
    }


def raster_stages(argv_mask, argv_pixel) -> dict:
    """One run of both raster commands, in ms: each stage's time inside them
    (see the module docstring), the table rasterizer's calls, and their total."""
    spent = dict.fromkeys(("load_labels", "read_predictions", "rasterize"), 0.0)
    calls = [0]
    targets = [(cli, "_load_ground_truth", "load_labels"), (dataio, "read_predictions", "read_predictions"),
               (dataio, "table_crops", "rasterize"), (metrics, "table_crops", "rasterize")]
    installed = []
    for module, attr, stage in targets:
        fn = getattr(module, attr, None)
        if fn is None:
            continue

        def timed(*args, _fn=fn, _stage=stage, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[_stage] += time.perf_counter() - start
                calls[0] += _stage == "rasterize"

        installed.append((module, attr, fn))
        setattr(module, attr, timed)
    totals = []
    try:
        for argv in (argv_mask, argv_pixel):
            before = sum(spent.values())
            start = time.perf_counter()
            if cli.main(argv) != 0:
                raise RuntimeError(f"eval failed: {argv}")
            totals.append(time.perf_counter() - start)
            totals.append(totals[-1] - (sum(spent.values()) - before))  # the command's own rest
    finally:
        for module, attr, fn in installed:
            setattr(module, attr, fn)
    times = {**spent, "mask_match": totals[1], "pixel_fill": totals[3], "cli_total": totals[0] + totals[2]}
    return {stage: 1e3 * times[stage] for stage in RASTER_STAGES}, calls[0]


def measure_raster(size: int, gt_dir: str, pred_path: str, workdir: str, repeats: int) -> dict:
    """One row of the raster sweep: the best of ``repeats`` runs, stage by stage."""
    common = ["eval", "--gt", gt_dir, "--pred", pred_path, "--raster-size", str(size)]
    argv_mask = [*common, "--match", "mask", "--out", os.path.join(workdir, "m.json"),
                 "--pr-out", os.path.join(workdir, "pr.csv")]
    argv_pixel = [*common, "--mode", "pixel", "--out", os.path.join(workdir, "p.json")]
    runs = []
    with open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            for _ in range(repeats):
                runs.append(raster_stages(argv_mask, argv_pixel))
        finally:
            sys.stdout = stdout
    return {
        "raster_size": size,
        "pixels": size * size,
        "rasterizer_calls": runs[0][1],
        "ms": {stage: min(times[stage] for times, _ in runs) for stage in RASTER_STAGES},
    }


def host() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def box_sweep(repeats: int) -> dict:
    per_image = SCALES["full"]["pred_per_image"]
    rows = []
    for detections in DETECTIONS:
        with tempfile.TemporaryDirectory() as workdir:
            row = measure(round(detections / per_image), workdir, repeats)
        rows.append(row)
        print(f"{row['detections']:6d} detections: "
              + "  ".join(f"{k} {v:8.2f}" for k, v in row["ms"].items())
              + f"  read collections {row['read_collections']}")
    sizes = [row["detections"] for row in rows]
    slopes = {stage: slope(sizes, [row["ms"][stage] for row in rows]) for stage in STAGES}
    print("log-log slopes: " + "  ".join(f"{k} {v:.3f}" for k, v in slopes.items()))
    return {
        "what": "per-stage time of eval --match box on the benchmark's box corpus at about 2k, 8k"
        " and 32k detections (best of --repeats rounds), the collector passes of one prediction"
        " read, and each stage's log-log slope against detections",
        "host": host(),
        "repeats": repeats,
        "corpus": {"seed": SEED, "stream": STREAM, "gt_per_image": SCALES["full"]["gt_per_image"],
                   "pred_per_image": per_image},
        "sweep": rows,
        "slopes": slopes,
    }


def raster_sweep(repeats: int) -> dict:
    images = SCALES["full"]["raster_images"]
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        gt_dir, pred_path = write_eval_corpus(
            make_eval_images(RASTER_SEED, images, "full", RASTER_STREAM), workdir)
        for size in RASTER_SIZES:
            row = measure_raster(size, gt_dir, pred_path, workdir, repeats)
            rows.append(row)
            print(f"{size:5d} px: " + "  ".join(f"{k} {v:8.2f}" for k, v in row["ms"].items())
                  + f"  rasterizer calls {row['rasterizer_calls']}")
    pixels = [row["pixels"] for row in rows]
    slopes = {stage: slope(pixels, [row["ms"][stage] for row in rows]) for stage in RASTER_STAGES}
    print("log-log slopes: " + "  ".join(f"{k} {v:.3f}" for k, v in slopes.items()))
    return {
        "what": "per-stage time of eval --match mask then eval --mode pixel on the eval-raster"
        " workload's corpus at --raster-size 256, 512, 1024 and 2048 (best of --repeats rounds,"
        " each stage timed inside the whole commands), the rasterizer calls of both commands, and"
        " each stage's log-log slope against pixels",
        "host": host(),
        "repeats": repeats,
        "corpus": {"seed": RASTER_SEED, "stream": RASTER_STREAM, "images": images,
                   "gt_per_image": SCALES["full"]["gt_per_image"],
                   "pred_per_image": SCALES["full"]["pred_per_image"]},
        "sweep": rows,
        "slopes": slopes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON document to write")
    parser.add_argument("--repeats", type=int, default=5, help="timed rounds per figure")
    parser.add_argument("--sweep", choices=("box", "raster"), default="box",
                        help="the box corpus by detections, or the raster corpus by --raster-size")
    args = parser.parse_args(argv)
    document = (box_sweep if args.sweep == "box" else raster_sweep)(args.repeats)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
