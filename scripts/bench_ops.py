"""Time each op's forward and pullback at the shapes of the ``blocks``
benchmark, and max pooling's forward and pullback over a size sweep.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/bench_ops.py --out BENCH.json

The op calls are the ones one ``attention.pipeline_vjp`` forward and
pullback make on a 1x3x80x80 input with 64 channels, SPPF widths 32 and 64:
each op body that ``attention`` imports is wrapped while the pipeline runs,
and each distinct call (op, argument shapes and sizes, keyword arguments
such as a convolution's ``input_only``) is then timed alone, its forward as
``body(*args, **kwargs)`` and its pullback on a fixed upstream;
``calls_per_pipeline`` says how often the pipeline makes that call.  The
sweep runs ``maxpool2d_vjp(x, 5)`` at C = 32 from 40x40 to 320x320 and fits
the log-log slope of time against pixels.  Every time is the best of
``--repeats`` rounds, in milliseconds per call, on one thread of whatever
host runs the script; the document names the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit

import numpy as np

from crackscope import attention, ops

BLOCK_SHAPE = (1, 3, 80, 80)
BLOCK_DIMS = (64, 32, 64)  # channels, SPPF cmid, cout
SWEEP_CHANNELS, SWEEP_POOL = 32, 5
SWEEP_SIDES = (40, 80, 160, 320)


def best_ms(fn, repeats: int) -> float:
    """Best of ``repeats`` rounds, each long enough to time, per call in ms."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeats, number=number)) / number * 1e3


def describe(arg):
    """A pooling size as itself, anything else by its shape."""
    return arg if isinstance(arg, int) else list(np.shape(arg))


def pipeline_calls() -> list[tuple[str, tuple, dict, int]]:
    """``(op, args, kwargs, count)`` for each distinct op call of one pipeline
    forward and pullback at the benchmark's shapes, in first-call order."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(BLOCK_SHAPE)
    params = attention.init_pipeline(BLOCK_SHAPE[1], *BLOCK_DIMS, seed=0)
    calls: dict[str, list] = {}
    # the op bodies attention imports, by op name
    originals = {name: getattr(attention, f"{name}_vjp", None) for name in ops.VJP_OPS}
    originals = {name: body for name, body in originals.items() if body is not None}

    def recorder(name, body):
        def record(*args, **kwargs):
            key = json.dumps([name, [describe(a) for a in args], kwargs], sort_keys=True)
            calls.setdefault(key, [name, args, kwargs, 0])[3] += 1
            return body(*args, **kwargs)

        return record

    try:
        for name, body in originals.items():
            setattr(attention, f"{name}_vjp", recorder(name, body))
        out, pullback = attention.pipeline_vjp(x, params)
        pullback(rng.standard_normal(out.shape))
    finally:
        for name, body in originals.items():
            setattr(attention, f"{name}_vjp", body)
    return [tuple(call) for call in calls.values()]


def time_call(body, args, kwargs, repeats: int) -> dict:
    out, pullback = body(*args, **kwargs)
    up = np.random.default_rng(1).standard_normal(np.shape(out))
    return {
        "forward_ms": best_ms(lambda: body(*args, **kwargs), repeats),
        "pullback_ms": best_ms(lambda: pullback(up), repeats),
    }


def slope(pixels, times) -> float:
    """Least-squares slope of log(time) against log(pixels)."""
    return float(np.polyfit(np.log(pixels), np.log(times), 1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON document to write")
    parser.add_argument("--repeats", type=int, default=5, help="timed rounds per figure")
    args = parser.parse_args(argv)

    op_rows = []
    for name, call_args, kwargs, count in pipeline_calls():
        row = {"op": name, "args": [describe(a) for a in call_args], "kwargs": kwargs,
               "calls_per_pipeline": count}
        row.update(time_call(ops.VJP_OPS[name], call_args, kwargs, args.repeats))
        op_rows.append(row)
        print(f"{name:16s} {json.dumps(row['args']):48s} {json.dumps(kwargs):22s} x{count}"
              f"  forward {row['forward_ms']:8.3f} ms  pullback {row['pullback_ms']:8.3f} ms")

    rng = np.random.default_rng(2)
    sweep = {"channels": SWEEP_CHANNELS, "k": SWEEP_POOL, "sides": list(SWEEP_SIDES)}
    forward, backward = [], []
    for side in SWEEP_SIDES:
        x = rng.standard_normal((1, SWEEP_CHANNELS, side, side))
        times = time_call(ops.maxpool2d_vjp, (x, SWEEP_POOL), {}, args.repeats)
        forward.append(times["forward_ms"])
        backward.append(times["pullback_ms"])
        print(f"maxpool2d sweep {side}x{side}: forward {forward[-1]:8.3f} ms"
              f"  pullback {backward[-1]:8.3f} ms")
    pixels = [side * side for side in SWEEP_SIDES]
    sweep.update(
        forward_ms=forward,
        pullback_ms=backward,
        forward_slope=slope(pixels, forward),
        pullback_slope=slope(pixels, backward),
    )
    print(f"log-log slopes: forward {sweep['forward_slope']:.3f}"
          f"  pullback {sweep['pullback_slope']:.3f}")

    document = {
        "what": "per-call forward and pullback time of each op at the blocks benchmark's shapes"
        " (best of --repeats rounds), and a max-pooling size sweep",
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": args.repeats,
        "blocks": {"input_shape": list(BLOCK_SHAPE), "channels_cmid_cout": list(BLOCK_DIMS)},
        "ops": op_rows,
        "maxpool2d_sweep": sweep,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
