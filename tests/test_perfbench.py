"""The benchmark wraps gfdeblur functions by name; its self-test fails when
a wrapped name is renamed or dropped, so run it with the suite."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import gfdeblur.pipeline as pipeline
from gfdeblur.bench import SCENARIOS, degrade
from gfdeblur.pipeline import GfdConfig

from conftest import natural_image

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
    # Seed 0 takes both lambda branches, so no per-layer value is
    # legitimately null either.
    for name, metric in result["metrics"].items():
        assert "missing" not in metric, name
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name


def test_records_agree_with_tracer():
    # The bench counts iterations, lambda branches and bisect steps from
    # its spans; they must equal the run's own records.  This 32^2
    # scenario-5 restore takes both lambda branches in 6 iterations.
    tracing = _load_tracer()
    pair = degrade(natural_image(1, 32), SCENARIOS[5], seed=0)
    tracer = tracing.Tracer()
    with tracer.installed(0):
        _, trace = pipeline.run_gfd(pair.observed, pair.psf,
                                    GfdConfig(iterations=6, sigma=pair.sigma))
    assert not tracer.missing
    spans = tracing.tally(tracer.spans)
    assert spans["regparam.lambda"].count == spans["guided_filter.grad"].count == len(trace)
    inf_spans = [infinite for infinite, _ in spans["regparam.lambda"].info if infinite]
    assert len(inf_spans) == sum(math.isinf(rec.lam) for rec in trace)
    steps = [steps for _, steps in spans["regparam.lambda"].info]
    assert steps == [rec.bisect_steps for rec in trace] and any(steps)
    branch = tracing.fft_calls_by_branch(tracer.spans)
    assert branch["finite"] and branch["inf"]
    assert len(branch["finite"]) + len(branch["inf"]) == len(trace)
