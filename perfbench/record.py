"""Record the ISNR each workload reaches at each seed into expected_isnr.json.

    python3 perfbench/record.py --seeds 0-63 [--workload restore_s3_256 ...]

These are this implementation's numbers, not the paper's.  The output
check of every benchmark job compares against them, so record again only
when the benchmark's inputs change, never to let a changed program pass.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

from workloads import (  # noqa: E402
    EXPECTED_PATH, ISNR_TOL_DB, WORKLOADS, IsnrGate, build_inputs, check_job,
    job_isnr, run_job,
)


def parse_seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    data = (json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
            if EXPECTED_PATH.exists() else {})
    data["note"] = ("ISNR in dB reached by this implementation on each workload "
                    f"and seed; jobs must match within {ISNR_TOL_DB} dB")
    table = data.setdefault("isnr_db", {})
    anything = IsnrGate(-math.inf, math.inf, "recording")
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            inputs = build_inputs(wl, seed)
            try:
                out = run_job(wl, inputs, seed, 0)
                problems = check_job(wl, inputs, out, anything)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                value = job_isnr(wl, inputs, out)
            finally:
                inputs.close()
            table.setdefault(name, {})[str(seed)] = value
            print(f"{name} seed {seed}: {value:.6f} dB", flush=True)
            EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
