"""Time each stage of ``crackscope eval --match box`` alone over a size
sweep of the benchmark's box corpus, and count the garbage collections the
prediction read starts.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/bench_eval.py --out BENCH.json

The corpora come from ``perfbench/corpus.py``'s generators (read only), at
the ``full`` scale's 15 ground truths and 30 detections per image, with as
many images as give about 2k, 8k and 32k detections.  The stages are the
ones ``cli._cmd_eval`` runs: the prediction read (``read_predictions`` on
the file's text), the label load (every label file, read and parsed), the
per-image split (one stable sort by image id, then a view per image),
box matching of every image, the PR curve with its AP, and the CSV; plus
the whole command, in process.  Every time is the best of ``--repeats``
rounds in milliseconds, on one thread of whatever host runs the script; the
document names the host.  Each stage's slope is the least-squares slope of
log(time) against log(detections).  ``read_collections`` counts the cyclic
collector's passes, by generation, during one prediction read.
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
STAGES = ("read_predictions", "load_labels", "split", "match", "pr_ap", "csv", "cli_total")


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
    and each image's view of it."""
    preds = preds[np.argsort(preds.image_ids, kind="stable")]
    los, his = (np.searchsorted(preds.image_ids, image_ids, side).tolist() for side in ("left", "right"))
    return preds, {image_id: preds[lo:hi] for image_id, lo, hi in zip(image_ids, los, his)}


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
    gts = cli._load_ground_truth(gt_dir)
    image_ids = np.array(sorted(gts), dtype=object)
    ordered, by_image = split(preds, image_ids)

    def match():
        return [metrics.match_instances(by_image[i], gts[i], 0.5) for i in image_ids]

    flags = np.concatenate([f for f, _ in match()])
    total_gt = sum(len(g) for g in gts.values())
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
    return {
        "images": images,
        "detections": len(preds),
        "ground_truths": total_gt,
        "iou_pairs": sum(len(by_image[i]) * len(gts[i]) for i in image_ids),
        "read_collections": collections(lambda: dataio.read_predictions(text)),
        "ms": times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON document to write")
    parser.add_argument("--repeats", type=int, default=5, help="timed rounds per figure")
    args = parser.parse_args(argv)

    per_image = SCALES["full"]["pred_per_image"]
    rows = []
    for detections in DETECTIONS:
        with tempfile.TemporaryDirectory() as workdir:
            row = measure(round(detections / per_image), workdir, args.repeats)
        rows.append(row)
        print(f"{row['detections']:6d} detections: "
              + "  ".join(f"{k} {v:8.2f}" for k, v in row["ms"].items())
              + f"  read collections {row['read_collections']}")
    sizes = [row["detections"] for row in rows]
    slopes = {stage: slope(sizes, [row["ms"][stage] for row in rows]) for stage in STAGES}
    print("log-log slopes: " + "  ".join(f"{k} {v:.3f}" for k, v in slopes.items()))

    document = {
        "what": "per-stage time of eval --match box on the benchmark's box corpus at about 2k, 8k"
        " and 32k detections (best of --repeats rounds), the collector passes of one prediction"
        " read, and each stage's log-log slope against detections",
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": args.repeats,
        "corpus": {"seed": SEED, "stream": STREAM, "gt_per_image": SCALES["full"]["gt_per_image"],
                   "pred_per_image": per_image},
        "sweep": rows,
        "slopes": slopes,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
