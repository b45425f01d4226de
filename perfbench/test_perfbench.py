"""The benchmark's own test: smoke runs, golden gate, thread invariance.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs once on the tiny ``smoke`` corpus of the golden seed,
untraced and traced, through the same command line the benchmark is
driven by.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_golden(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", str(run.GOLDEN_SEED),
                  "--seconds", "1", "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in wanted:
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_golden_values_exist_for_every_workload_and_scale():
    with open(run.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["seed"] == run.GOLDEN_SEED
    for scale in ("full", "smoke"):
        assert set(golden[scale]) == set(run.WORKLOADS)


def test_golden_mismatch_counts_as_failure(tmp_path):
    run._import_program()
    workload, _ = run.build(run.WORKLOADS["analyze"], run.GOLDEN_SEED, "smoke",
                            str(tmp_path), ["0" * 64], 1)
    workload.expect()
    _, output = workload.op(0, str(tmp_path))
    assert workload.check_output(0, output) == ["output for input 0 differs from the golden value"]


@pytest.mark.parametrize("name", ["analyze", "eval-box"])
def test_outputs_do_not_depend_on_thread_count(name, tmp_path, monkeypatch):
    run._import_program()
    workload, _ = run.build(run.WORKLOADS[name], run.GOLDEN_SEED, "smoke", str(tmp_path), None, 1)
    outputs = []
    for i, threads in enumerate((None, "1", "2")):
        if threads is None:
            monkeypatch.delenv("CRACKSCOPE_THREADS", raising=False)
        else:
            monkeypatch.setenv("CRACKSCOPE_THREADS", threads)
        opdir = tmp_path / f"op{i}"
        opdir.mkdir()
        outputs.append(workload.op(0, str(opdir))[1])
    assert outputs[0] == outputs[1] == outputs[2]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work-*", "out"))
    proc = _bench(str(tmp_path), "--workload", "analyze", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
