"""Smoke test of the benchmark harness in bench/: a traced run of each
workload checks every operation's outputs and prints, as its last line, a
JSON summary. The tracer wraps package functions by name, so a renamed or
re-signed function fails here before it fails a benchmark run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", [
    "few-wide", "theory-oracle",
    pytest.param("many-narrow", marks=pytest.mark.slow)])
def test_traced_workload_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
