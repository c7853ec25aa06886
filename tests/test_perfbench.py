"""The benchmark wraps gfdeblur functions by name; its self-test fails when
a wrapped name is renamed or dropped, so run it with the suite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_benchmark_prints_strict_json_result(trace, section):
    # The result is the last stdout line, read as strict JSON: a NaN or an
    # infinity in it, or any stderr output, makes the run unreadable.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "restore_s3_256",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""

    def refuse(name):
        raise ValueError(f"non-finite constant {name} in the result")

    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for name, metric in result["metrics"].items():
        assert "missing" not in metric, name
        if trace == 0:
            assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
