"""Smoke tests of the benchmark: result schema, completion and the output check.

Run from the repository root with `python3 -m pytest bench/tests`. The runs
use the small --smoke inputs; no test looks at an absolute time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "0.5", "--smoke", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_bench(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) == run.spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    result = _result(_bench(ROOT, "--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _bench(_copy_bench(tmp_path, with_src=False), "--workload", "roll-dense", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_fails_when_rolling_windows_disagree_with_single_window_path(tmp_path):
    root = _copy_bench(tmp_path, with_src=True)
    rolling = root / "src" / "aspill" / "rolling.py"
    text = rolling.read_text(encoding="utf-8")
    wrong = text.replace("compute_fevd(ma, fit.Gamma, cfg.horizon,", "compute_fevd(ma, fit.Gamma, cfg.horizon - 1,")
    assert wrong != text
    rolling.write_text(wrong, encoding="utf-8")
    result = _result(_bench(root, "--workload", "roll-dense", "--trace", "0"))
    assert result["correct"] is False
