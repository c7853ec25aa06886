"""Fast self-test of the benchmark on 64x64 images with 2 iterations.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced jobs give bit-identical output to untraced ones, and that the
output check fails a corrupted job without aborting the run.  Prints one
line per failed check and exits 1 if there was any.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    IsnrGate, JobOutput, Workload, build_inputs, check_job, job_isnr, run_job,
    same_output,
)

# Null when the traced jobs had no outer iteration on that lambda branch.
BRANCH_METRICS = {"spectral.fft_calls_per_finite_iter", "spectral.fft_calls_per_inf_iter"}

TINY = (
    Workload("tiny_restore_known", 64, (3,), known_sigma=True, iterations=2),
    Workload("tiny_restore_est", 64, (5,), known_sigma=False, iterations=2),
    Workload("tiny_cli", 64, (1, 2, 3, 4, 5), known_sigma=False, iterations=2, cli=True),
)


def corruptions(wl: Workload, good: JobOutput):
    """Damaged copies of a good output, each of which the check must fail."""
    if not wl.cli:
        nan = good.image.copy()
        nan[3, 5] = np.nan
        yield "NaN pixel", JobOutput(image=nan)
        yield "wrong shape", JobOutput(image=good.image[:-1])
        yield "ISNR off", JobOutput(image=good.image + 5.0)
        return
    lines = good.csv_text.splitlines()
    yield "exit code 3", dataclasses.replace(good, exit_code=3)
    yield "9 rows", dataclasses.replace(good, csv_text="\n".join(lines[:-1]) + "\n")
    header = lines[0].split(",")
    col = header.index("isnr_db")
    row = lines[1].split(",")
    row[col] = "nan"
    yield "NaN ISNR", dataclasses.replace(
        good, csv_text="\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")


def main() -> int:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL {what}")

    for wl in TINY:
        inputs = build_inputs(wl, 0)
        try:
            plain = run_job(wl, inputs, 0, 0)
            value = job_isnr(wl, inputs, plain)
            gate = IsnrGate(value - 1e-6, value + 1e-6, "self-test")
            expect(not check_job(wl, inputs, plain, gate), f"{wl.name}: good job fails the check")
            tr = tracing.Tracer()
            with tr.installed(1):
                traced = run_job(wl, inputs, 0, 1)
            expect(same_output(wl, plain, traced), f"{wl.name}: traced output differs")
            expect(not tr.missing, f"{wl.name}: missing wrap sites {sorted(tr.missing)}")
            names = {s.name for s in tr.spans}
            for needed in ("pipeline.run_gfd", "spectral.fft", "image_core.box_mean"):
                expect(needed in names, f"{wl.name}: no {needed} span")
            for what, bad in corruptions(wl, plain):
                expect(check_job(wl, inputs, bad, gate), f"{wl.name}: check passes with {what}")
        finally:
            inputs.close()

        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run.measure(wl, 0, 0.0, bool(trace), gate)["result"]["metrics"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            expect(set(metrics) == set(want),
                   f"{wl.name} trace {trace}: metrics {sorted(set(metrics) ^ set(want))} "
                   "emitted but not named, or named but not emitted")
            for name, unit in want.items():
                m = metrics.get(name, {})
                v = m.get("value")
                expect(m.get("unit") == unit, f"{wl.name}: {name} unit {m.get('unit')} != {unit}")
                expect((v is None and name in BRANCH_METRICS)
                       or (isinstance(v, float) and math.isfinite(v)),
                       f"{wl.name}: {name} value {v!r} is not a finite number")

    # A wrap site that no longer exists reads as missing, never as 0 ms.
    import gfdeblur.pgm

    saved = gfdeblur.pgm.read_image
    del gfdeblur.pgm.read_image
    try:
        metrics = run.measure(TINY[0], 0, 0.0, True, gate)["result"]["metrics"]
    finally:
        gfdeblur.pgm.read_image = saved
    m = metrics["pgm.read_ms"]
    expect(m["value"] is None and m.get("missing") == ["pgm.read"],
           f"removed pgm.read_image reported as {m}")

    # A corrupted job inside a run is counted as failed and the run goes on.
    wl = TINY[0]
    original = run.run_job

    def nan_on_first_job(wl_, inputs_, seed_, job_id):
        out = original(wl_, inputs_, seed_, job_id)
        if job_id == 0:
            out.image[0, 0] = np.nan
        return out

    run.run_job = nan_on_first_job
    try:
        res = run.measure(wl, 0, 0.0, False, IsnrGate(-math.inf, math.inf, "any"))["result"]
    finally:
        run.run_job = original
    expect(res["failed"] == 1 and not res["correct"]
           and res["attempted"] == 1 + run.MIN_TIMED_JOBS,
           f"injected NaN: run reported {res['attempted']} attempted, {res['failed']} failed")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
