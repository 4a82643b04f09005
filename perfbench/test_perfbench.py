"""Tests of the benchmark itself: one-second runs of every workload and the
failure path."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def short_run(workload: str, trace: int):
    """A run of the real job set that stops after its first pass (two, traced)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    lines, result = short_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] > 0 and result["failed"] == 0 and result["correct"]
    stamp = json.loads(lines[-2].removeprefix("STAMP "))
    assert stamp["fail_ratio"] == 0 and stamp["jobs_per_pass"] >= 100
    assert stamp["seed"] == 3 and stamp["nproc"] >= 1 and stamp["python"]
    assert {"cpu_model", "git_commit", "source_sha256"} <= set(stamp)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run_emits_every_per_layer_metric(workload):
    _, result = short_run(workload, 1)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["failed"] == 0
    # the traced layers separate the workloads
    assert (metrics["linalg.eliminations"] > 0) == (workload in ("centralizer", "certify"))
    assert (metrics["equivalence.phi_lambda.calls"] > 0) == (workload == "merge")


def test_wrong_answer_counts_as_failed_and_prints_a_replay_line(capsys):
    def slow_check(result):
        time.sleep(0.2)
        return result == 2

    jobs = [
        harness.Job("fake", {"x": 1}, lambda: 2, slow_check),
        harness.Job("fake", {"x": 2}, lambda: 3, lambda r: r == 4),
        harness.Job("fake", {"x": 3}, lambda: 1 // 0, lambda r: True),
    ]
    one_pass = harness.measure("fake", 7, jobs, launched=time.monotonic())
    assert one_pass["attempted"] == 3 and one_pass["failed"] == 2
    assert one_pass["wall_s"] < 0.1  # checks run outside the timed region

    run.report(argparse.Namespace(workload="fake", seed=7, trace=0), [(False, one_pass)])
    lines = capsys.readouterr().out.splitlines()
    replay = [json.loads(line.removeprefix("REPLAY ")) for line in lines if line.startswith("REPLAY ")]
    assert [(r["workload"], r["seed"], r["job"], r["inputs"]) for r in replay] == [
        ("fake", 7, 1, {"x": 2}), ("fake", 7, 2, {"x": 3})]
    assert replay[0]["reason"] == "wrong answer"
    assert replay[1]["reason"].startswith("raised ZeroDivisionError")
    assert json.loads(lines[-2].removeprefix("STAMP "))["fail_ratio"] == pytest.approx(2 / 3)
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
