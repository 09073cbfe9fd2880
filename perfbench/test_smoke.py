"""Smoke test of the benchmark itself: every workload, untraced and traced, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Each run must exit 0, report no failed operation or check, and print every
metric BENCHMARK.json declares for its mode, with the declared unit. The
test makes no timing assertions.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script, cwd, *args):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_declared_metric(workload, trace):
    proc = _run(
        RUN, ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed == dict(declared, error_rate="ratio")
    assert "metric error_rate 0.0 ratio" in lines
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        tmp_path / "perfbench" / "run.py", tmp_path,
        "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
