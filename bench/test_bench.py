"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


@pytest.mark.parametrize("module", ["worker", "spans"])
def test_imports_as_first_import_in_fresh_interpreter(module):
    # flnp.transport cannot be imported first (a transport/protocol cycle);
    # the benchmark must keep working before and after that is fixed.
    code = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; import {module}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_config_is_a_function_of_the_seed():
    for name in WORKLOADS:
        assert make_config(name, 7) == make_config(name, 7)
        assert make_config(name, 7)["seeds"] != make_config(name, 8)["seeds"]


def test_overrunning_repeat_is_killed_and_reported():
    event = run.run_worker(["--workload", "bert_wire_tcp", "--seed", "1"], deadline=0.5)
    assert event["error"].startswith("deadline")


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for name, _ in run.END_TO_END + run.LAYER_METRICS:
        assert f"  {name} " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lstm_tcp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "1 repeats, 1 failed" in proc.stdout  # the first repeat stops the run
    assert '"correct"' not in proc.stdout
