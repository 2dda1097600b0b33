"""The benchmark's own checks:

    python3 -m pytest -q perfbench/test_perfbench.py

Traced runs of one seed must repeat their counts exactly, so that a later
change can cite them; a command's time is scaled by the yardstick samples
nearest to it; without the program's sources the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402
from yardstick import NOMINAL_S, Speed  # noqa: E402

COUNTS = ("games.eval_calls", "dynamics.successor_calls", "dynamics.closure_states",
          "compilers.incidences")


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    results = []
    for _ in range(2):
        proc = _run(HERE.parent, workload, 3, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    for name in COUNTS:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run(tmp_path, "sat-market", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scales_by_nearest_samples():
    speed = Speed()
    speed.at = [float(t) for t in range(10)]
    speed.took = [0.01] * 5 + [0.02] * 5
    assert speed.scale(-1.0) == NOMINAL_S / 0.01
    assert speed.scale(1.5) == NOMINAL_S / 0.01
    assert speed.scale(8.5) == NOMINAL_S / 0.02
    assert speed.scale(99.0) == NOMINAL_S / 0.02
