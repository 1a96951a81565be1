"""Smoke tests of the benchmark itself, at tiny scale (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q
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
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_follows_the_contract(workload, trace):
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert info["machine"]["blas_threads_pinned"] <= info["machine"]["nproc"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["train-desk", "quickstart"])
def test_same_seed_gives_identical_outputs(workload):
    first, _ = _run(workload, 0)
    second, _ = _run(workload, 0)
    assert first["digests"] == second["digests"]
    assert first["digests"]["model.bin"]


def test_tracer_restores_every_binding():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import amlgraph.training as tr
        from amlgraph import ndtensor
        from tracer import Tracer
        before = (tr.fit, tr.encode, ndtensor.Tape.record, ndtensor.matmul)
        tracer = Tracer()
        tracer.install()
        assert tr.fit is not before[0] and tr.encode is not before[1]
        tracer.uninstall()
        assert (tr.fit, tr.encode, ndtensor.Tape.record,
                ndtensor.matmul) == before
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train-desk", 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
