"""Command-line interface.

Subcommands::

    analyze    binary mask (P5 graymap) -> per-component width reports (JSON)
    eval       ground-truth label dir + prediction file -> metrics JSON + PR CSV
    split      file list -> shuffled train/val/test list files
    gradcheck  finite-difference verification of every op and block
    attn-demo  run one attention block on seeded data and show its behavior

Exit codes: 0 success, 1 validation error (single ``error: ...`` line on
stderr), 2 usage error.  Every command runs on one thread; ``eval`` visits
images in sorted id order.  Input text files must be UTF-8.  All file writes
are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dataio, metrics
from .errors import CrackscopeError

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _read_text(path) -> str:
    """The file's UTF-8 text; a file that is not UTF-8 is an error naming the
    offset of its first bad byte (``read()`` decodes the whole file in one
    call, so the decoder's offset counts from the start of the file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CrackscopeError(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from None


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parse_file(parse, path, read=_read_text):
    """``parse`` of ``read(path)``, the file's text by default; its error,
    which names the line or header field, is prefixed with the file."""
    data = read(path)
    try:
        return parse(data)
    except CrackscopeError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _json_value(x):
    if x is None:
        return None
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    from . import maskgeom  # here, not at the top: only analyze needs scipy

    gray, maxval = _parse_file(dataio.read_pgm, args.mask, read=_read_bytes)
    mask = maskgeom.threshold_mask(gray, maxval)
    scale = None if args.scale_mm_per_px is None else maskgeom.ScaleConfig(args.scale_mm_per_px)
    reports = maskgeom.analyze_mask(mask, scale)
    doc = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    dataio.atomic_write_text(args.out, doc)
    print(f"{len(reports)} component(s) analyzed -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _load_ground_truth(gt_dir):
    paths = {}
    for name in sorted(os.listdir(gt_dir)):
        stem, ext = os.path.splitext(name)
        if ext.lower() != ".txt":
            continue
        path = os.path.join(gt_dir, name)
        if stem in paths:
            raise CrackscopeError(f"{paths[stem]} and {path} both label image {stem!r}")
        paths[stem] = path
    if not paths:
        raise CrackscopeError(f"no label files (*.txt) found in {gt_dir}")
    return {stem: _parse_file(dataio.parse_label_file, path) for stem, path in paths.items()}


def _cmd_eval(args) -> int:
    if args.pr_out and args.mode != "instance":
        raise CrackscopeError("--pr-out requires --mode instance")
    if args.raster_size < 1:
        raise CrackscopeError(f"--raster-size must be >= 1, got {args.raster_size}")
    # a rasterizer row is raster_size + 1 int64 counters wide
    if 8 * args.raster_size * (args.raster_size + 1) > np.iinfo(np.intp).max:
        raise CrackscopeError(f"--raster-size {args.raster_size} is too large to rasterize")
    gts = _load_ground_truth(args.gt)
    preds = _parse_file(dataio.read_predictions, args.pred)
    unknown = sorted(set(preds.image_ids) - set(gts))
    if unknown:
        raise CrackscopeError(
            f"predictions reference {len(unknown)} unknown image id(s): "
            + ", ".join(repr(image_id) for image_id in unknown)
        )

    # each image's rows of the file, in file order
    image_ids = np.array(sorted(gts), dtype=object)
    order = np.argsort(preds.image_ids, kind="stable")
    ids = preds.image_ids[order]
    los, his = np.searchsorted(ids, image_ids, "left"), np.searchsorted(ids, image_ids, "right")
    by_image = {image_id: preds[order[lo:hi]] for image_id, lo, hi in zip(image_ids, los, his)}
    width = height = args.raster_size

    instance = args.mode == "instance"
    points = None
    if instance:
        flagged, fn_total = [], 0
        for image_id in image_ids:
            flags, fn = metrics.match_instances(by_image[image_id], gts[image_id], args.iou,
                                                mode=args.match, extent=(width, height))
            flagged.extend(zip(by_image[image_id].scores.tolist(), flags))
            fn_total += fn
        tp = sum(flag for _, flag in flagged)
        counts = metrics.ConfusionCounts(tp=tp, fp=len(flagged) - tp, fn=fn_total)
        total_gt = sum(len(g) for g in gts.values())
        points = metrics.pr_curve(flagged, total_gt) if total_gt else []
    else:  # pixel
        counts = sum((metrics.pixel_confusion(_union_mask(by_image[image_id], width, height),
                                              _union_mask(gts[image_id], width, height))
                      for image_id in image_ids), metrics.ConfusionCounts())
    summary = {
        "mode": args.mode,
        "iou_threshold": args.iou if instance else None,
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "tn": None if instance else counts.tn,
        "precision": _try_metric(metrics.precision, counts),
        "recall": _try_metric(metrics.recall, counts),
        "accuracy": None if instance else _try_metric(metrics.accuracy, counts),
        "ap": metrics.average_precision(points) if points else None,
    }

    doc = json.dumps({k: _json_value(v) for k, v in summary.items()}, indent=2) + "\n"
    if args.out:
        dataio.atomic_write_text(args.out, doc)
        print(f"metrics -> {args.out}")
    else:
        print(doc, end="")
    if args.pr_out and points is not None:
        dataio.atomic_write_text(args.pr_out, metrics.pr_curve_to_csv(points))
        print(f"pr curve -> {args.pr_out}")
    return 0


def _union_mask(table, width, height):
    mask = np.zeros((height, width), dtype=bool)
    starts = table.starts.tolist()
    for lo, hi in zip(starts, starts[1:]):
        row0, col0, crop = dataio.polygon_to_crop(table.vertices[lo:hi], width, height)
        mask[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]] |= crop
    return mask


def _try_metric(fn, counts):
    try:
        return fn(counts)
    except CrackscopeError:
        return None


# ---------------------------------------------------------------------------
# split


def _cmd_split(args) -> int:
    items = [line.strip() for line in _read_text(args.list).split("\n") if line.strip()]
    spec = dataio.SplitSpec(train=args.train, val=args.val, test=args.test, seed=args.seed)
    train, val, test = dataio.split_dataset(items, spec)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, chunk in (("train", train), ("val", val), ("test", test)):
        path = os.path.join(args.out_dir, f"{name}.txt")
        dataio.atomic_write_text(path, "".join(line + "\n" for line in chunk))
        print(f"{name}: {len(chunk)} item(s) -> {path}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _cmd_gradcheck(args) -> int:
    from . import gradcheck  # here, not at the top: only gradcheck needs the ops

    reports = gradcheck.run_gradient_suite(
        seed=args.seed, eps=args.eps, tol=args.tol, cases=args.cases
    )
    for report in reports:
        print(report)
    failed = [r for r in reports if not r.passed]
    if failed:
        last = max(r.case for r in failed)
        print(
            f"error: {len(failed)} gradient check(s) failed; --seed {args.seed} "
            f"--cases {last + 1} reruns up to the last failing case",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(reports)} gradient checks passed")
    return 0


# ---------------------------------------------------------------------------
# attn-demo


def _cmd_attn_demo(args) -> int:
    from . import attention  # here, not at the top: only attn-demo needs the blocks

    if args.seed < 0:
        raise CrackscopeError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-1, 1, (1, 8, 12, 12))
    block = args.block

    if block == "eca":
        params = attention.init_eca(8, seed=args.seed)
        out = attention.eca_forward(x, params)
        weights = attention.eca_weights(x, params)
        zero_out = attention.eca_forward(x, attention.init_eca(8, zero=True))
    elif block == "cam":
        params = attention.init_cam(8, seed=args.seed)
        out = attention.cam_forward(x, params)
        weights = attention.cam_weights(x, params)
        zero_out = attention.cam_forward(x, attention.init_cam(8, zero=True))
    elif block == "sam":
        params = attention.init_sam(seed=args.seed)
        out = attention.sam_forward(x, params)
        weights = attention.sam_map(x, params)
        zero_out = attention.sam_forward(x, attention.init_sam(zero=True))
    elif block == "cbam":
        cam = attention.init_cam(8, seed=args.seed)
        sam = attention.init_sam(seed=args.seed + 1)
        y = attention.cam_forward(x, cam)
        out = attention.sam_forward(y, sam)
        weights = attention.sam_map(y, sam)
        zero_out = attention.cbam_forward(
            x, attention.init_cam(8, zero=True), attention.init_sam(zero=True)
        )
    else:  # sppf
        params = attention.init_sppf(8, 4, 8, seed=args.seed)
        out = attention.sppf_forward(x, params)
        weights = None
        zero_out = None

    print(f"block: {block}")
    print(f"input shape:  {x.shape}")
    print(f"output shape: {out.shape}")
    if weights is not None:
        print(
            "attention weights: "
            f"min={weights.min():.6f} mean={weights.mean():.6f} max={weights.max():.6f}"
        )
    if zero_out is not None:
        factor = 0.25 if block == "cbam" else 0.5
        residual = float(np.abs(zero_out - factor * x).max())
        print(f"zero-init identity |out - {factor}*x| = {residual:.3e}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="crackscope")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="measure crack widths in a binary mask")
    p.add_argument("--mask", required=True, help="input P5 graymap")
    p.add_argument("--out", required=True, help="output JSON report")
    p.add_argument("--scale-mm-per-px", type=float, default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="directory of label .txt files")
    p.add_argument("--pred", required=True, help="JSON-lines prediction file")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--mode", choices=("instance", "pixel"), default="instance")
    p.add_argument("--match", choices=("box", "mask"), default="box",
                   help="instance-mode IoU geometry")
    p.add_argument("--raster-size", type=int, default=256,
                   help="raster extent for mask/pixel operations")
    p.add_argument("--out", default=None, help="metrics JSON path (stdout if omitted)")
    p.add_argument("--pr-out", default=None, help="PR curve CSV path")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("split", help="deterministic train/val/test split")
    p.add_argument("list", help="file with one item per line")
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--val", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("gradcheck", help="verify every gradient against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--cases", type=int, default=10, help="random cases per op/block")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("attn-demo", help="demonstrate one block on seeded data")
    p.add_argument("--block", choices=("eca", "cam", "sam", "cbam", "sppf"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_attn_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (CrackscopeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
