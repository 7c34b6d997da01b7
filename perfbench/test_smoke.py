"""Smoke tests of the benchmark itself, at tiny sizes (``--smoke``).

    python3 -m pytest perfbench/test_smoke.py

They are not part of the library's test suite (pytest's ``testpaths`` is
``tests/``): each run starts Python several times and takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT, smoke: bool = True):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_every_check_passes(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
