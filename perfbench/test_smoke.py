"""The benchmark's own tests: run the smoke inputs and check the result
schema, the declared metrics and the correctness checks. No timing gates.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from cases import SMOKE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_result_schema(workload, trace):
    proc = run_bench("--smoke", "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace:
        spans = json.loads((HERE / "out" / f"trace-{workload}-seed7.json").read_text())
        assert spans["environment"]["nproc"] >= 1
        assert {"id", "name", "start", "end", "parent", "phase", "op"} <= set(spans["spans"][0])
    else:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert "error_rate" in proc.stdout


@pytest.mark.parametrize("workload, case", [
    ("verify-search", dict(SMOKE["verify-search"][0], index=99)),  # wrong answer
    ("decide", dict(SMOKE["decide"][0], word="x1 x2 y1 y2", radius=4)),  # DomainTooLarge
])
def test_failed_operation_is_counted(workload, case):
    result = run.run_workload(workload, [case], seed=0, seconds=1,
                              trace=False, smoke=True)
    assert result["attempted"] == 1 and len(result["failed"]) == 1
    assert result["metrics"]["success_rate"] == 0


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "decide", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
