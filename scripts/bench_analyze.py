"""Time each stage of ``crackscope analyze`` alone over a size sweep of tiles
of a benchmark crack mask.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/bench_analyze.py --out BENCH.json

The mask is ``perfbench/corpus.py``'s ``make_mask(3, 0, "full")`` (read
only), a 768x768 crack mask, tiled and cropped to 768², 1536², 3072² and
4096².  The stages are the ones ``crackscope analyze`` runs: the PGM read
(``dataio.read_pgm`` on the file's bytes), the threshold, labeling,
thinning, the EDT at the skeleton pixels, the reports (``analyze_mask`` with
labeling, thinning and the EDT replaced by their results, so only its own
work is timed) and the JSON dump; plus ``analyze_mask`` whole and the whole
command, in process.  Labeling, thinning and the EDT are timed on the very
arguments ``analyze_mask`` passes them.  Every time is the best of
``--repeats`` rounds in milliseconds, on one thread of whatever host runs
the script; the document names the host.  Each stage's slope is the
least-squares slope of log(time) against log(pixels).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from corpus import make_mask  # noqa: E402

from crackscope import cli, dataio, maskgeom  # noqa: E402

SIDES = (768, 1536, 3072, 4096)
SEED, INDEX = 3, 0
# the labeling analyze_mask calls: trees before its shared labeling body called connected_components
LABEL = "_label" if hasattr(maskgeom, "_label") else "connected_components"
CALLED = (LABEL, "skeletonize", "_squared_edt_at")
STAGES = ("read_pgm", "threshold", "labeling", "thinning", "edt", "reports", "json",
          "analyze_mask", "cli_total")


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


@contextlib.contextmanager
def replaced(functions: dict):
    """``maskgeom``'s functions replaced by ``functions[name]`` while the block runs."""
    originals = {name: getattr(maskgeom, name) for name in functions}
    try:
        for name, fn in functions.items():
            setattr(maskgeom, name, fn)
        yield
    finally:
        for name, fn in originals.items():
            setattr(maskgeom, name, fn)


def calls(mask) -> dict:
    """The arguments and result of each stage function ``analyze_mask(mask)``
    calls, by name."""
    seen = {}

    def recording(name, fn):
        def call(*args):
            seen[name] = args, fn(*args)
            return seen[name][1]
        return call

    with replaced({name: recording(name, getattr(maskgeom, name)) for name in CALLED}):
        maskgeom.analyze_mask(mask)
    return seen


def reports_only(mask, seen):
    """``analyze_mask(mask)`` with each stage function returning its recorded result."""
    with replaced({name: lambda *args, result=seen[name][1]: result for name in CALLED}):
        return maskgeom.analyze_mask(mask)


def measure(base, side: int, workdir: str, repeats: int) -> dict:
    """One row of the sweep: the tile of ``base`` at ``side``², each stage timed alone."""
    k = math.ceil(side / base.shape[0])
    mask = np.ascontiguousarray(np.tile(base, (k, k))[:side, :side])
    gray = mask.astype(np.uint8) * 255
    data = dataio.write_pgm(gray)
    path, out = os.path.join(workdir, "mask.pgm"), os.path.join(workdir, "report.json")
    with open(path, "wb") as f:
        f.write(data)
    seen = calls(mask)
    reports = reports_only(mask, seen)
    assert reports == maskgeom.analyze_mask(mask)
    (label_args, _), (thin_args, skeleton), (edt_args, _) = (seen[name] for name in CALLED)
    argv = ["analyze", "--mask", path, "--out", out]
    with open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            cli_ms = best_ms(lambda: cli.main(argv), repeats)
        finally:
            sys.stdout = stdout
    times = {
        "read_pgm": best_ms(lambda: dataio.read_pgm(data), repeats),
        "threshold": best_ms(lambda: maskgeom.threshold_mask(gray, 255), repeats),
        "labeling": best_ms(lambda: getattr(maskgeom, LABEL)(*label_args), repeats),
        "thinning": best_ms(lambda: maskgeom.skeletonize(*thin_args), repeats),
        "edt": best_ms(lambda: maskgeom._squared_edt_at(*edt_args), repeats),
        "reports": best_ms(lambda: reports_only(mask, seen), repeats),
        "json": best_ms(lambda: json.dumps([r.to_dict() for r in reports], indent=2) + "\n", repeats),
        "analyze_mask": best_ms(lambda: maskgeom.analyze_mask(mask), repeats),
        "cli_total": cli_ms,
    }
    return {
        "side": side,
        "pixels": mask.size,
        "components": len(reports),
        "foreground_px": int(mask.sum()),
        "skeleton_px": int(skeleton.sum()),
        "ms": times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON document to write")
    parser.add_argument("--repeats", type=int, default=3, help="timed rounds per figure")
    args = parser.parse_args(argv)

    base = make_mask(SEED, INDEX, "full")
    rows = []
    for side in SIDES:
        with tempfile.TemporaryDirectory() as workdir:
            row = measure(base, side, workdir, args.repeats)
        rows.append(row)
        print(f"{side:5d}²: " + "  ".join(f"{k} {v:8.2f}" for k, v in row["ms"].items()))
    sizes = [row["pixels"] for row in rows]
    slopes = {stage: slope(sizes, [row["ms"][stage] for row in rows]) for stage in STAGES}
    print("log-log slopes: " + "  ".join(f"{k} {v:.3f}" for k, v in slopes.items()))

    document = {
        "what": "per-stage time of analyze on tiles of a benchmark crack mask at 768², 1536², 3072²"
        " and 4096² (best of --repeats rounds), with each stage's log-log slope against pixels",
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": args.repeats,
        "mask": {"seed": SEED, "index": INDEX, "scale": "full", "labeling": LABEL},
        "sweep": rows,
        "slopes": slopes,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
