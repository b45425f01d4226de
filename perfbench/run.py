"""crackscope benchmark: four closed-loop workloads, one client, one thread.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 20 --trace 0

Workloads (``--workload``):

* ``analyze``     ``crackscope analyze`` on 768x768 crack masks: ~200
                  components, three wide cracks, hairline networks, specks.
* ``eval-box``    ``eval --match box --pr-out`` on 600 images x (15 GT, 30
                  predictions): parsing, greedy matching, PR curve and AP.
* ``eval-raster`` ``eval --match mask`` then ``eval --mode pixel`` on 6
                  such images at ``--raster-size 256``: rasterization.
* ``blocks``      ``attention.demo_pipeline`` plus ``pipeline_input_grad``
                  on 1x3x80x80 inputs, 64 channels, cmid 32, cout 64.

Each op is timed from outside around the public entry point (``cli.main``
or the ``attention`` functions) and its output is checked: against
expectations recomputed without crackscope (see ``reference.py``) on every
seed, and against the committed golden values (``golden.json``) on the
golden seed.  Every CLI op writes to paths that do not exist yet and the
files are removed outside the timed interval, because replacing an
existing file costs far more than creating one on some filesystems.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the ops
untraced and then traced, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--scale smoke``
runs one op on a tiny corpus (for the benchmark's own test).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 0
SETUP_REPEATS = 3
BLOCK_RTOL = 1e-9  # golden projections; crackscope gradcheck's tolerance is 1e-4
FD_TOL = 1e-4


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "crackscope", "__init__.py")):
        print(f"error: no crackscope sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import crackscope  # noqa: F401


# ---------------------------------------------------------------------------
# helpers


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def call_cli(argv, allow_failure=False):
    """Run ``cli.main(argv)`` in process and time only the call; returns
    (seconds, exit code, stdout, stderr).  A nonzero exit raises unless
    ``allow_failure``."""
    from crackscope import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    if code != 0 and not allow_failure:
        raise Failure(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return elapsed, code, out.getvalue(), err.getvalue()


class Failure(Exception):
    pass


def write_pgm_file(path, mask):
    import numpy as np

    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((mask.astype(np.uint8) * 255).tobytes())


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One corpus plus its op.  ``setup`` builds and validates the corpus
    (timed as set-up), ``expect`` prepares the checks (untimed),
    ``op`` runs op ``i`` and returns (seconds, output), ``check`` returns
    the problems of an output, ``golden_value`` the value committed for an
    output of the golden seed.  Op ``i`` uses pool input ``i % pool``."""

    def __init__(self, seed, scale, workdir, golden):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.golden = golden  # list per pool entry, or None off the golden seed
        self.first = {}  # pool index -> golden value of its first output
        self.stats = {}

    def pool_index(self, i):
        return i % self.pool

    def expect(self):
        pass

    def check_output(self, i, output):
        k = self.pool_index(i)
        problems = self.check(k, output)
        value = self.golden_value(output)
        reference = self.first.setdefault(k, value)
        if not self.same(value, reference):
            problems.append(f"output for input {k} differs from its first run")
        if self.golden is not None and not self.same(value, self.golden[k]):
            problems.append(f"output for input {k} differs from the golden value")
        return problems

    def same(self, a, b):
        return a == b


class Analyze(Workload):
    name = "analyze"

    def setup(self):
        import numpy as np
        from scipy import ndimage

        from corpus import SCALES, make_mask
        from crackscope import maskgeom

        self.pool = SCALES[self.scale]["mask_pool"]
        self.masks, self.paths = [], []
        components = foreground = skeleton_px = 0
        for k in range(self.pool):
            mask = make_mask(self.seed, k, self.scale)
            path = os.path.join(self.workdir, f"mask{k}.pgm")
            write_pgm_file(path, mask)
            labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
            skeleton = maskgeom.skeletonize(mask)
            kept = np.unique(labels[skeleton])
            if kept.size != count:
                raise Failure(f"mask {k}: {count - kept.size} component(s) thin away")
            self.masks.append(mask)
            self.paths.append(path)
            components += count
            foreground += int(mask.sum())
            skeleton_px += int(skeleton.sum())
        self.stats = {
            "masks": self.pool,
            "mask_side_px": self.masks[0].shape[0],
            "components_per_mask": components / self.pool,
            "foreground_px_per_mask": foreground / self.pool,
            "skeleton_px_per_mask": skeleton_px / self.pool,
        }

    def expect(self):
        from reference import MaskFacts

        self.facts = [MaskFacts(m) for m in self.masks]

    def op(self, i, outdir):
        out = os.path.join(outdir, f"op{i}.json")
        elapsed = call_cli(["analyze", "--mask", self.paths[self.pool_index(i)], "--out", out])[0]
        return elapsed, read_bytes(out)

    def check(self, k, output):
        return self.facts[k].problems(output)

    def golden_value(self, output):
        return sha256(output)


class EvalBox(Workload):
    name = "eval-box"
    images_key, stream, mode = "box_images", 2, "box"

    def setup(self):
        from corpus import SCALES, make_eval_images, write_eval_corpus
        from crackscope import dataio
        from reference import candidate_pairs

        cfg = SCALES[self.scale]
        self.pool = 1
        self.raster = cfg["raster_size"]
        self.images = make_eval_images(self.seed, cfg[self.images_key], self.scale, self.stream)
        self.gt_dir, self.pred_path = write_eval_corpus(self.images, self.workdir)
        labels = 0
        for name in sorted(os.listdir(self.gt_dir)):
            with open(os.path.join(self.gt_dir, name), encoding="utf-8") as fh:
                labels += len(dataio.parse_label_file(fh.read()))
        with open(self.pred_path, encoding="utf-8") as fh:
            detections = len(dataio.read_predictions(fh.read()))
        if labels != sum(len(im.gt) for im in self.images):
            raise Failure("label files lost records")
        if detections != sum(len(im.preds) for im in self.images):
            raise Failure("prediction file lost records")
        self.stats = {
            "images": len(self.images),
            "ground_truths": labels,
            "detections": detections,
            "candidate_pairs": candidate_pairs(self.images),
        }

    def expect(self):
        from reference import instance_outputs

        doc, csv, evaluated = instance_outputs(self.images, self.mode, raster=self.raster)
        self.expected = [doc.encode(), csv.encode()]
        self.stats["iou_pairs"] = evaluated

    def op(self, i, outdir):
        doc, csv = (os.path.join(outdir, f"op{i}.{ext}") for ext in ("json", "csv"))
        argv = ["eval", "--gt", self.gt_dir, "--pred", self.pred_path, "--match", self.mode,
                "--raster-size", str(self.raster), "--out", doc, "--pr-out", csv]
        elapsed = call_cli(argv)[0]
        return elapsed, [read_bytes(doc), read_bytes(csv)]

    def check(self, k, output):
        names = ["metrics JSON", "PR CSV", "pixel metrics JSON"]
        return [f"{n} differs from the reference"
                for n, a, b in zip(names, output, self.expected) if a != b]

    def golden_value(self, output):
        return [sha256(b) for b in output]


class EvalRaster(EvalBox):
    name = "eval-raster"
    images_key, stream, mode = "raster_images", 3, "mask"

    def setup(self):
        super().setup()
        polygons = self.stats["ground_truths"] + self.stats["detections"]
        self.stats["pixel_rasterizations"] = polygons

    def expect(self):
        from reference import pixel_output

        super().expect()
        self.expected.append(pixel_output(self.images, self.raster).encode())
        self.stats["mask_rasterizations"] = 2 * self.stats["iou_pairs"]

    def op(self, i, outdir):
        elapsed, outputs = super().op(i, outdir)
        doc = os.path.join(outdir, f"op{i}-pixel.json")
        argv = ["eval", "--gt", self.gt_dir, "--pred", self.pred_path, "--mode", "pixel",
                "--raster-size", str(self.raster), "--out", doc]
        pixel_elapsed = call_cli(argv)[0]
        return elapsed + pixel_elapsed, outputs + [read_bytes(doc)]


class Blocks(Workload):
    name = "blocks"

    def setup(self):
        import numpy as np

        from corpus import SCALES, make_block_cases
        from crackscope import attention

        cfg = SCALES[self.scale]
        channels, cmid, cout = cfg["block_dims"]
        self.params = attention.init_pipeline(
            cfg["block_shape"][1], channels, cmid, cout, seed=self.seed
        )
        self.cases = make_block_cases(self.seed, self.scale)
        self.pool = len(self.cases)
        # fixed projections, independent of the workload seed
        rng = np.random.default_rng(20250417)
        n, _, h, w = cfg["block_shape"]
        self.out_proj = rng.standard_normal((3, n, cout, h, w))
        self.grad_proj = rng.standard_normal((3,) + tuple(cfg["block_shape"]))
        self.stats = {
            "inputs": self.pool,
            "input_shape": list(cfg["block_shape"]),
            "channels_cmid_cout": [channels, cmid, cout],
        }

    def expect(self):
        import numpy as np

        from crackscope import attention
        from reference import directional_gap

        rng = np.random.default_rng([self.seed, 6])
        case = self.cases[0]
        grad = attention.pipeline_input_grad(case.x, self.params, case.upstream)
        forward = lambda x: attention.demo_pipeline(x, self.params)  # noqa: E731
        self.fd_gap = directional_gap(forward, case.x, case.upstream, grad, rng)
        self.stats["fd_directional_gap"] = self.fd_gap

    def op(self, i, outdir):
        from crackscope import attention

        case = self.cases[self.pool_index(i)]
        t0 = time.perf_counter()
        out = attention.demo_pipeline(case.x, self.params)
        grad = attention.pipeline_input_grad(case.x, self.params, case.upstream)
        return time.perf_counter() - t0, (out, grad)

    def check(self, k, output):
        import numpy as np

        out, grad = output
        problems = []
        if self.fd_gap > FD_TOL:
            problems.append(f"input gradient off a finite difference by {self.fd_gap:.2e}")
        if out.shape != self.out_proj.shape[1:] or grad.shape != self.cases[k].x.shape:
            problems.append(f"shapes {out.shape} / {grad.shape}")
        elif not (np.isfinite(out).all() and np.isfinite(grad).all()):
            problems.append("non-finite values")
        return problems

    def golden_value(self, output):
        out, grad = output
        if out.shape != self.out_proj.shape[1:] or grad.shape != self.grad_proj.shape[1:]:
            return []
        return [float((p * out).sum()) for p in self.out_proj] + [
            float((p * grad).sum()) for p in self.grad_proj
        ]

    def same(self, a, b):
        return len(a) == len(b) and all(
            abs(x - y) <= BLOCK_RTOL * max(1.0, abs(x), abs(y)) for x, y in zip(a, b)
        )


WORKLOADS = {w.name: w for w in (Analyze, EvalBox, EvalRaster, Blocks)}


# ---------------------------------------------------------------------------
# tracing: the public names each layer exposes, at the names callers resolve


def install_layers(tracer):
    import numpy as np

    from crackscope import attention, cli, dataio, maskgeom, metrics

    tracer.install(cli, "main", "cli.main")

    def count_sum(key):
        def hook(counts, args, result):
            counts[key] += int(np.count_nonzero(result))
        return hook

    seen = set()

    def count_raster(counts, args, result):
        poly = np.asarray(getattr(args[0], "polygon", args[0]))
        seen.add((tracer.op_id, poly.tobytes(), args[1:]))
        counts["raster.distinct"] = len(seen)

    def count_pairs(counts, args, result):
        preds, gts = args[0], args[1]
        counts["detections"] += len(preds)
        if not preds or not gts:
            return
        box = lambda rs: np.array([[r.polygon[:, 0].min(), r.polygon[:, 1].min(),  # noqa: E731
                                    r.polygon[:, 0].max(), r.polygon[:, 1].max()] for r in rs])
        p, g = box(preds), box(gts)
        same = (np.array([r.class_id for r in preds])[:, None]
                == np.array([r.class_id for r in gts])[None, :])
        iw = np.minimum(p[:, None, 2], g[None, :, 2]) - np.maximum(p[:, None, 0], g[None, :, 0])
        ih = np.minimum(p[:, None, 3], g[None, :, 3]) - np.maximum(p[:, None, 1], g[None, :, 1])
        counts["pairs"] += int(same.sum())
        counts["pairs.overlapping"] += int((same & (iw > 0) & (ih > 0)).sum())

    def count_conv(counts, args, result):
        kernel = np.asarray(args[1])
        cout, cin, kh, kw = kernel.shape
        counts["conv.flop"] += 2.0 * result.size * cin * kh * kw

    def count_pool(counts, args, result):
        counts["pool.bytes"] += 8.0 * (np.asarray(args[0]).size + result.size)

    for name in ("read_pgm", "parse_label_file", "read_predictions", "atomic_write_text"):
        tracer.install(dataio, name, f"dataio.{name}")
    tracer.install(dataio, "polygon_to_mask", "dataio.polygon_to_mask", count_raster)

    for name in ("connected_components", "distance_transform", "analyze_component",
                 "width_profile"):
        tracer.install(maskgeom, name, f"maskgeom.{name}")
    tracer.install(maskgeom, "threshold_mask", "maskgeom.threshold_mask", count_sum("fg"))
    tracer.install(maskgeom, "skeletonize", "maskgeom.skeletonize", count_sum("skeleton"))

    for name in ("mask_iou", "pixel_confusion", "pr_curve", "average_precision",
                 "pr_curve_to_csv"):
        tracer.install(metrics, name, f"metrics.{name}")
    tracer.install(metrics, "match_instances", "metrics.match_instances", count_pairs)

    for block in ("eca", "cam", "sam", "cbam", "sppf"):
        for kind in ("forward", "input_grad"):
            tracer.install(attention, f"{block}_{kind}", f"attention.{block}_{kind}")
    tracer.install(attention, "demo_pipeline", "attention.demo_pipeline")
    tracer.install(attention, "pipeline_input_grad", "attention.pipeline_input_grad")
    # ops as the attention module resolves them
    for name in ("broadcast_mul", "channel_stats", "concat_channels", "conv1d_channels",
                 "global_avg_pool", "global_max_pool", "relu", "sigmoid"):
        tracer.install(attention, name, f"ops.{name}")
    tracer.install(attention, "conv2d", "ops.conv2d", count_conv)
    tracer.install(attention, "maxpool2d", "ops.maxpool2d", count_pool)
    tracer.install(attention, "vjp", lambda args: f"ops.vjp.{args[0]}")


def layer_metrics(tracer, n_ops, overhead):
    """Per-layer metrics per traced op: ``.ms`` is self time unless noted
    inclusive (attention blocks), ``.calls`` is calls."""
    calls, self_s, incl_s = tracer.totals()
    counts = tracer.counts
    per = lambda v: v / n_ops  # noqa: E731
    ms = lambda name: 1000.0 * self_s[name] / n_ops  # noqa: E731
    incl_ms = lambda name: 1000.0 * incl_s[name] / n_ops  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {"cli.self_ms": (ms("cli.main"), "ms")}
    for name in ("read_pgm", "parse_label_file", "read_predictions", "polygon_to_mask",
                 "atomic_write_text"):
        m[f"dataio.{name}.ms"] = (ms(f"dataio.{name}"), "ms")
    rasters = calls["dataio.polygon_to_mask"]
    m["dataio.polygon_to_mask.calls"] = (per(rasters), "count")
    m["dataio.polygon_to_mask.useful_ratio"] = (ratio(counts["raster.distinct"], rasters), "ratio")
    for name in ("threshold_mask", "connected_components", "distance_transform", "skeletonize",
                 "analyze_component", "width_profile"):
        m[f"maskgeom.{name}.ms"] = (ms(f"maskgeom.{name}"), "ms")
    m["maskgeom.analyze_component.calls"] = (per(calls["maskgeom.analyze_component"]), "count")
    m["maskgeom.foreground_px"] = (per(counts["fg"]), "px")
    m["maskgeom.skeleton_px"] = (per(counts["skeleton"]), "px")
    m["metrics.match_instances.ms"] = (ms("metrics.match_instances"), "ms")
    m["metrics.match_instances.calls"] = (per(calls["metrics.match_instances"]), "count")
    m["metrics.mask_iou.ms"] = (ms("metrics.mask_iou"), "ms")
    m["metrics.mask_iou.calls"] = (per(calls["metrics.mask_iou"]), "count")
    for name in ("pixel_confusion", "pr_curve", "average_precision", "pr_curve_to_csv"):
        m[f"metrics.{name}.ms"] = (ms(f"metrics.{name}"), "ms")
    m["metrics.detections"] = (per(counts["detections"]), "count")
    m["metrics.candidate_pairs"] = (per(counts["pairs"]), "count")
    m["metrics.overlapping_pairs_ratio"] = (
        ratio(counts["pairs.overlapping"], counts["pairs"]), "ratio")
    for name in ("eca_forward", "cbam_forward", "sppf_forward", "eca_input_grad",
                 "cbam_input_grad", "sppf_input_grad"):
        m[f"attention.{name}.ms"] = (incl_ms(f"attention.{name}"), "ms")
    forwards = sum(calls[f"attention.{b}_forward"] for b in ("eca", "cam", "sam", "cbam", "sppf"))
    m["attention.forward_calls"] = (per(forwards), "count")
    named = ("ops.maxpool2d", "ops.conv2d", "ops.vjp.maxpool2d", "ops.vjp.conv2d")
    m["ops.maxpool2d.ms"] = (ms("ops.maxpool2d"), "ms")
    m["ops.maxpool2d.calls"] = (per(calls["ops.maxpool2d"]), "count")
    m["ops.conv2d.ms"] = (ms("ops.conv2d"), "ms")
    m["ops.conv2d.calls"] = (per(calls["ops.conv2d"]), "count")
    m["ops.vjp.maxpool2d.ms"] = (ms("ops.vjp.maxpool2d"), "ms")
    m["ops.vjp.conv2d.ms"] = (ms("ops.vjp.conv2d"), "ms")
    other = sum(v for k, v in self_s.items() if k.startswith("ops.") and k not in named)
    m["ops.other.ms"] = (1000.0 * other / n_ops, "ms")
    m["ops.conv2d.gflop"] = (per(counts["conv.flop"]) / 1e9, "GFLOP")
    m["ops.maxpool2d.mb_computed"] = (per(counts["pool.bytes"]) / 1e6, "MB")
    m["ops.conv2d.gflop_per_s"] = (ratio(counts["conv.flop"] / 1e9, self_s["ops.conv2d"]),
                                   "GFLOP/s")
    m["ops.maxpool2d.gb_per_s"] = (ratio(counts["pool.bytes"] / 1e9, self_s["ops.maxpool2d"]),
                                   "GB/s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------
# running a workload


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_golden(scale, workload, seed):
    if seed != GOLDEN_SEED or not os.path.exists(GOLDEN_PATH):
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(scale, {}).get(workload)


def build(cls, seed, scale, workdir, golden, repeats):
    """Build the corpus ``repeats`` times in fresh directories (keeping the
    last); returns the workload and the median build seconds."""
    times = []
    for r in range(repeats):
        directory = os.path.join(workdir, f"corpus{r}")
        os.makedirs(directory)
        t0 = time.perf_counter()
        workload = cls(seed, scale, directory, golden)
        workload.setup()
        times.append(time.perf_counter() - t0)
        if r + 1 < repeats:
            shutil.rmtree(directory)
    return workload, statistics.median(times)


class Loop:
    """Closed loop, one client: run op after op until ``seconds`` of op time
    have been measured (or ``max_ops`` ops).  Failed ops are counted and
    their time is left out; a wall-clock deadline ends a loop whose ops
    keep failing."""

    def __init__(self, workload, outdir):
        self.workload, self.outdir = workload, outdir
        self.next_op = 0
        self.attempted = self.failed = 0
        self.problems = []
        self.tracer = None

    def one(self):
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = i
        opdir = os.path.join(self.outdir, f"op{i}")
        os.makedirs(opdir)
        try:
            elapsed, output = self.workload.op(i, opdir)
            problems = self.workload.check_output(i, output)
        except Exception as exc:  # any op failure is counted, never fatal
            elapsed, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(opdir)
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems[:3]]
        return elapsed

    def run(self, seconds, max_ops=None):
        latencies = []
        deadline = time.perf_counter() + 2 * seconds + 60
        ops = 0
        while sum(latencies) < seconds and time.perf_counter() < deadline:
            if max_ops is not None and ops == max_ops:
                break
            ops += 1
            elapsed = self.one()
            if elapsed is not None:
                latencies.append(elapsed)
        return latencies


def run(workload_name, seed, seconds, trace, scale="full"):
    """Run one workload; returns the report lines and the result object."""
    from tracer import Tracer

    t_import = time.perf_counter() - _T0
    os.environ.pop("CRACKSCOPE_THREADS", None)  # the default single thread
    smoke = scale == "smoke"
    work = os.path.join(HERE, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        golden = load_golden(scale, workload_name, seed)
        workload, corpus_s = build(WORKLOADS[workload_name], seed, scale, work, golden,
                                   1 if smoke else SETUP_REPEATS)
        loop = Loop(workload, os.path.join(work, "ops"))
        os.makedirs(loop.outdir)
        workload.expect()
        t0 = time.perf_counter()
        loop.one()  # warm-up: caches fill, lazy set-up finishes
        warmup_s = time.perf_counter() - t0
        setup_s = t_import + corpus_s + warmup_s
        latencies = loop.run(seconds, 1 if smoke else None)
        p50 = statistics.median(latencies) if latencies else 0.0  # 0: nothing measured
        lines = [f"workload {workload_name} seed {seed} scale {scale}",
                 f"environment {json.dumps(environment())}",
                 f"corpus {json.dumps(workload.stats)}",
                 f"setup import_s={t_import:.3f} corpus_s={corpus_s:.3f} "
                 f"warmup_s={warmup_s:.3f}",
                 "op_ms " + " ".join(f"{1000 * t:.1f}" for t in latencies)]
        if trace:
            loop.tracer = tracer = Tracer()
            install_layers(tracer)
            first = loop.next_op
            try:
                traced = loop.run(seconds, 1 if smoke else None)
            finally:
                tracer.uninstall()
            lines.append("traced_op_ms " + " ".join(f"{1000 * t:.1f}" for t in traced))
            overhead = statistics.median(traced) / p50 if traced and p50 else 0.0
            metrics = layer_metrics(tracer, loop.next_op - first, overhead)
            if tracer.missing:
                lines.append(f"not traced (missing): {', '.join(tracer.missing)}")
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tracer.dump(os.path.join(HERE, "out", f"trace-{workload_name}-{seed}.jsonl"))
        else:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "ops_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
                "op_p50_ms": (1000.0 * p50, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (rss_mib, "MiB"),
            }
        lines.append(f"attempted {loop.attempted} failed {loop.failed} "
                     f"failed_ratio {loop.failed / loop.attempted:.4f}")
        lines += loop.problems[:20]
        lines += [f"metric {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        result = {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return lines, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    _import_program()
    lines, result = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
