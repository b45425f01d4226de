"""Regenerate ``golden.json`` and ``corpus.json`` for the golden seed.

Usage (from the repository root)::

    python3 perfbench/make_golden.py

For each workload and scale this builds the golden-seed corpus, runs one op
per distinct input, checks it against the independent reference, and
records the value later runs must reproduce (also for an input whose op
fails; the failure is printed and the exit status is 1): SHA-256 digests of the
``analyze`` report and the ``eval`` metrics JSON and PR CSV; fixed random
projections of the ``blocks`` output and input gradient.  ``corpus.json`` records the corpus statistics
and the environment the values were made in.  Only regenerate after a
change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    run._import_program()
    golden, described, failures = {}, {}, []
    for scale in ("full", "smoke"):
        golden[scale], described[scale] = {}, {}
        for name, cls in run.WORKLOADS.items():
            work = os.path.join(run.HERE, f"work-{os.getpid()}")
            os.makedirs(work)
            try:
                workload, _ = run.build(cls, run.GOLDEN_SEED, scale, work, None, 1)
                workload.expect()
                values = []
                for k in range(workload.pool):
                    opdir = os.path.join(work, f"op{k}")
                    os.makedirs(opdir)
                    _, output = workload.op(k, opdir)
                    failures += [f"{scale} {name} input {k}: {p}" for p in workload.check(k, output)]
                    values.append(workload.golden_value(output))
                golden[scale][name] = values
                described[scale][name] = workload.stats
                print(f"{scale} {name}: {len(values)} golden value(s)")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.GOLDEN_SEED, **golden}, fh, indent=1)
        fh.write("\n")
    doc = {"seed": run.GOLDEN_SEED, "environment": {**run.environment(), "cpu": cpu_model()},
           "corpus": described}
    with open(os.path.join(run.HERE, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
