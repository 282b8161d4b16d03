"""Traced benchmark runs stay correct.

With ``--trace 1`` the benchmark runs every op twice, once plain and once
under its tracer, which wraps the public functions of every layer module;
both reports must be byte-identical and match the reference. A change that
reads its arguments differently under the tracer shows up here as
``"correct": false``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["buffer-ladder", "small-batch", "rational-mix"])
def test_traced_tiny_run_is_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1", "--tiny"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_full_size_small_batch_round_is_correct():
    # The tiny round has no 10-pool cascade, no n = 8 ring and no 5- or 6-room
    # network; the full round reaches every shortcut on exact structure, with
    # E = I (cascades, rings) and a diagonal E != I (rooms), under the tracer.
    # Every bound and zero-peak check there peaks at w = 0, proved with no sweep.
    argv = ["perfbench/run.py", "--workload", "small-batch", "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["freqgrid.evaluations"]["value"] == 0
