"""Run one gfdeblur benchmark workload and print its metrics.

    python3 perfbench/run.py --workload restore_s3_256 --seed 0 --seconds 20 --trace 0

With --trace 0 the jobs run untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced jobs alternate and the
per-layer metrics are reported, with the tracing overhead.  Every job's
output is checked.  Human-readable lines come first; the last line of
standard output is one JSON object.  Details (environment, samples,
spans) are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import List, Optional  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, IsnrGate, JobOutput, Workload, build_inputs, check_job, isnr_gate,
    job_isnr, run_job, same_output,
)

SETUP_REPEATS = 7
MIN_TIMED_JOBS = 1
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gfdeblur; "
    "print(time.perf_counter() - t)"
)


@dataclass
class JobRecord:
    seconds: float
    ms_per_iter: float
    isnr: Optional[float]
    problems: List[str]
    output: Optional[JobOutput] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_checked(wl: Workload, inputs, seed: int, job_id: int, gate: IsnrGate,
                tracer: Optional[tracing.Tracer] = None) -> JobRecord:
    """Run one job, time it, and check its output.  Never raises."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = run_job(wl, inputs, seed, job_id)
        else:
            with tracer.installed(job_id):
                out = run_job(wl, inputs, seed, job_id)
    except Exception as exc:  # a failed job is counted, not fatal
        secs = perf_counter() - t0
        return JobRecord(secs, secs * 1e3 / wl.iterations_per_job, None,
                         [f"raised {type(exc).__name__}: {exc}"])
    secs = perf_counter() - t0
    try:
        problems = check_job(wl, inputs, out, gate)
        value = job_isnr(wl, inputs, out) if not problems else None
    except Exception as exc:  # malformed output fails the check
        problems, value = [f"check raised {type(exc).__name__}: {exc}"], None
    return JobRecord(secs, secs * 1e3 / wl.iterations_per_job, value, problems, out)


def time_import() -> float:
    """Seconds to import gfdeblur (and numpy) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=bootstrap.child_env(),
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(wl: Workload, seed: int):
    """Median import time plus median input-build time, over SETUP_REPEATS each.

    Returns the inputs of the last build, the set-up seconds and the samples.
    """
    imports = [time_import() for _ in range(SETUP_REPEATS)]
    builds = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            inputs.close()
        t0 = perf_counter()
        inputs = build_inputs(wl, seed)
        builds.append(perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)
    return inputs, setup_s, {"import_s": imports, "build_s": builds}


def tail(samples: List[float]):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND or
    fewer samples no percentile qualifies and the maximum is returned,
    with the number of samples beyond it (zero) stated.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND above it
        return xs[k - 1], 100.0 * k / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text(encoding="ascii", errors="replace")
    except OSError:
        return None


def cpu_record() -> dict:
    """CPU model and cache sizes as the kernel reports them, where readable."""
    model = None
    text = _read("/proc/cpuinfo")
    if text:
        for line in text.splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size, shared = (
            (_read(str(idx / f)) or "").strip()
            for f in ("level", "type", "size", "shared_cpu_list")
        )
        if kind in ("Data", "Unified"):
            caches.append({"level": level, "type": kind, "size": size,
                           "shared_cpu_list": shared})
    return {"cpu_model": model or platform.processor() or "unknown", "caches": caches}


def environment(wl: Workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        **cpu_record(),
        "loop": "closed loop: 1 caller, 1 process, jobs back to back",
        "largest_array_mib_computed": wl.largest_array_mib,
        "largest_array_note": (
            f"computed: one complex128 spectrum of a {wl.size}x{wl.size} image"
        ),
    }


def measure_end_to_end(wl: Workload, seed: int, seconds: float, gate: IsnrGate):
    """Untraced jobs: set-up, one untimed peak-memory job, then timed jobs."""
    inputs, setup_s, setup_samples = measure_setup(wl, seed)
    try:
        tracemalloc.start()
        try:
            first = run_checked(wl, inputs, seed, 0, gate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        first.output = None
        records = [first]
        timed: List[JobRecord] = []
        t0 = perf_counter()
        while len(timed) < MIN_TIMED_JOBS or (
            perf_counter() - t0 + statistics.median(r.seconds for r in timed) <= seconds
        ):
            rec = run_checked(wl, inputs, seed, len(records), gate)
            rec.output = None
            records.append(rec)
            timed.append(rec)
    finally:
        inputs.close()
    good = [r for r in timed if r.ok] or timed
    samples = [r.ms_per_iter for r in good]
    tail_v, tail_p, tail_beyond = tail(samples)
    isnrs = [r.isnr for r in records if r.isnr is not None]
    metrics = {
        "ms_per_iter": {"value": statistics.median(samples), "unit": "ms"},
        "ms_per_iter_tail": {"value": tail_v, "unit": "ms"},
        "isnr_db": {"value": statistics.median(isnrs) if isnrs else None, "unit": "dB"},
        "peak_mb": {"value": peak / 1e6, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    notes = {
        "ms_per_iter": f"median of {len(samples)} timed jobs",
        "ms_per_iter_tail": (f"p{tail_p:.0f} of {len(samples)} samples, "
                             f"{tail_beyond} beyond it"),
        "isnr_db": ("mean of the CSV rows" if wl.cli else "restored image") + f"; {gate.how}",
        "peak_mb": "tracemalloc peak during the untimed first job",
        "setup_s": (f"median import + median input build, {SETUP_REPEATS} each"),
    }
    detail = {"samples_ms_per_iter": samples, "setup": setup_samples}
    return records, metrics, notes, detail


def measure_per_layer(wl: Workload, seed: int, seconds: float, gate: IsnrGate):
    """Untraced and traced jobs alternate; spans give the per-layer split."""
    inputs = build_inputs(wl, seed)
    tr = tracing.Tracer()
    records, plain, traced = [], [], []
    reference = None
    try:
        t0 = perf_counter()
        while len(traced) < 1 or (
            perf_counter() - t0 + statistics.median(r.seconds for r in records) <= seconds
        ):
            is_traced = len(records) % 2 == 1
            rec = run_checked(wl, inputs, seed, len(records), gate, tr if is_traced else None)
            if not is_traced and reference is None and rec.ok:
                reference = rec.output
            if is_traced and rec.ok and (reference is None
                                         or not same_output(wl, reference, rec.output)):
                rec.problems.append("traced output differs from untraced output")
            if rec.output is not reference:
                rec.output = None
            records.append(rec)
            (traced if is_traced else plain).append(rec)
    finally:
        inputs.close()
    n = len(traced)
    metrics = tracing.per_layer_metrics(
        tr.spans, tr.missing, iters=n * wl.iterations_per_job, jobs=n,
        restores=n * wl.restores_per_job,
    )
    untraced_ms = statistics.median(r.ms_per_iter for r in plain)
    traced_ms = statistics.median(r.ms_per_iter for r in traced)
    metrics["trace.overhead_ms_per_iter"] = {"value": traced_ms - untraced_ms, "unit": "ms"}
    layers = tracing.layer_self_times(tr.spans)
    iters = n * wl.iterations_per_job
    self_ms = {k: v * 1e3 / iters for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
    notes = {
        "trace.overhead_ms_per_iter": (f"traced {traced_ms:.3f} minus untraced "
                                       f"{untraced_ms:.3f} ms/iter, medians of "
                                       f"{n} and {len(plain)} jobs"),
        "spectral.fft_mpoints_per_iter": "computed: output points of every numpy.fft call",
        "missing_sites": sorted(tr.missing),
    }
    if self_ms:
        top = next(iter(self_ms))
        notes["largest_self_time"] = (f"{top}: {self_ms[top]:.3f} ms/iter "
                                      f"of {traced_ms:.3f} traced ms/iter")
    bootstrap.OUT.mkdir(exist_ok=True)
    spans_path = bootstrap.OUT / f"spans-{wl.name}-seed{seed}.csv"
    tr.write_csv(spans_path)
    detail = {"layer_self_ms_per_iter": self_ms, "spans_file": spans_path.name,
              "untraced_ms_per_iter": [r.ms_per_iter for r in plain],
              "traced_ms_per_iter": [r.ms_per_iter for r in traced]}
    return records, metrics, notes, detail


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            gate: Optional[IsnrGate] = None) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    gate = gate if gate is not None else isnr_gate(wl.name, seed)
    fn = measure_per_layer if trace else measure_end_to_end
    records, metrics, notes, detail = fn(wl, seed, seconds, gate)
    failed = [r for r in records if not r.ok]
    notes["failed_ratio"] = f"{len(failed)}/{len(records)} = {len(failed) / len(records):.4f}"
    return {
        "result": {
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": metrics,
        },
        "notes": notes,
        "problems": [p for r in failed for p in r.problems],
        "detail": detail,
        "environment": environment(wl),
    }


def report(wl: Workload, seed: int, trace: bool, run: dict) -> None:
    env, res, notes = run["environment"], run["result"], run["notes"]
    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  ({env['loop']})")
    caches = ", ".join(f"L{c['level']} {c['type']} {c['size']} shared by cpus "
                       f"{c['shared_cpu_list']}" for c in env["caches"])
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}, cpu {env['cpu_model']}; {caches}")
    print(f"largest array: {env['largest_array_mib_computed']:.1f} MiB "
          f"({env['largest_array_note']})")
    for name, m in res["metrics"].items():
        v = m["value"]
        shown = "MISSING " + ",".join(m["missing"]) if "missing" in m else (
            "n/a" if v is None else f"{v:.6g}")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {shown:>12} {m['unit']}{note}")
    print(f"  {'failed_ratio':<42} {res['failed'] / res['attempted']:>12.4f} ratio  "
          f"({notes['failed_ratio']})")
    for key in ("largest_self_time", "missing_sites"):
        if notes.get(key):
            print(f"{key}: {notes[key]}")
    print(f"correct: {str(res['correct']).lower()}")
    for p in run["problems"]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    run = measure(wl, args.seed, args.seconds, bool(args.trace))
    bootstrap.OUT.mkdir(exist_ok=True)
    out = bootstrap.OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    report(wl, args.seed, bool(args.trace), run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
