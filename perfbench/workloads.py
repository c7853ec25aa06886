"""The benchmark's workloads: seeded procedural inputs, one job, and the
output check applied to every job.

Each workload is a closed loop: one caller in one process runs jobs back
to back.  The workload seed only seeds the degradation noise; the clean
images are fixed procedural images (seeds 7 and 11), so a seed names one
set of inputs exactly.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import gfdeblur
from gfdeblur import bench, cli, pgm, pipeline

from bootstrap import OUT, SRC

IMAGE_SEEDS = (7, 11)

# A job's ISNR must match the value recorded for its workload and seed to
# within this many dB.  It passes the arithmetic-order changes a faster
# spectral path makes and catches a broken restore.
ISNR_TOL_DB = 0.05
# For a seed with no recorded value, the ISNR must lie within this many dB
# of the range recorded over all seeds of the workload.
ISNR_RANGE_SLACK_DB = 0.5

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_isnr.json"

if not Path(gfdeblur.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"gfdeblur imported from {gfdeblur.__file__}, not {SRC}")


def natural_image(seed: int, size: int) -> np.ndarray:
    """Smooth background plus blocks, disks, and mild texture in [0, 255].

    Same recipe as the test suite's procedural image, kept here so the
    benchmark depends on nothing under tests/.
    """
    gen = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 110.0 + 60.0 * np.sin(2 * np.pi * x * 1.3) * np.cos(2 * np.pi * y * 0.8)
    img += 30.0 * np.sin(2 * np.pi * (x + y) * 2.1)
    for _ in range(10):
        cy, cx = gen.integers(0, size, 2)
        hh, ww = gen.integers(size // 16, size // 4, 2)
        img[cy : cy + hh, cx : cx + ww] += gen.uniform(-80, 80)
    for _ in range(8):
        cy, cx = gen.uniform(0, size, 2)
        rad = gen.uniform(size / 32, size / 8)
        yy, xx = np.mgrid[0:size, 0:size]
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < rad**2] += gen.uniform(-60, 60)
    img += gen.normal(0.0, 2.0, size=img.shape)
    return np.clip(img, 0.0, 255.0)


def isnr_db(clean: np.ndarray, observed: np.ndarray, restored: np.ndarray) -> float:
    """ISNR computed by the benchmark itself, independent of gfdeblur.bench."""
    return 10.0 * math.log10(
        float(np.sum((clean - observed) ** 2)) / float(np.sum((clean - restored) ** 2))
    )


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    scenarios: Tuple[int, ...]
    known_sigma: bool
    iterations: int
    cli: bool = False

    @property
    def restores_per_job(self) -> int:
        return len(self.scenarios) * (len(IMAGE_SEEDS) if self.cli else 1)

    @property
    def iterations_per_job(self) -> int:
        return self.restores_per_job * self.iterations

    @property
    def largest_array_mib(self) -> float:
        """One complex128 spectrum of the image, the largest array a restore holds."""
        return self.size * self.size * 16 / 2**20


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("restore_s3_256", 256, (3,), known_sigma=True, iterations=30),
        Workload("restore_s5_1024", 1024, (5,), known_sigma=False, iterations=10),
        Workload("scenarios_cli_256", 256, (1, 2, 3, 4, 5), known_sigma=False,
                 iterations=30, cli=True),
    )
}


# ----------------------------------------------------------------- inputs


@dataclass
class Inputs:
    """What one job consumes.  Restore workloads hold arrays; the CLI
    workload holds a directory of PGMs and the clean images it wrote."""

    clean: List[np.ndarray]
    observed: Optional[np.ndarray] = None
    psf: Optional[object] = None
    sigma: Optional[float] = None
    image_dir: Optional[Path] = None
    workdir: Optional[Path] = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def build_inputs(wl: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs from the seed.

    Restores degrade the clean image through gfdeblur.bench.degrade.  The
    CLI workload writes its clean PGMs into a fresh temporary directory
    inside the checkout; the CLI degrades them itself.
    """
    if wl.cli:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
        image_dir = workdir / "images"
        image_dir.mkdir()
        clean = []
        for s in IMAGE_SEEDS:
            img = natural_image(s, wl.size)
            pgm.write_image(image_dir / f"natural{s}.pgm", img)
            clean.append(pgm.quantize(img))
        return Inputs(clean=clean, image_dir=image_dir, workdir=workdir)
    clean = natural_image(IMAGE_SEEDS[0], wl.size)
    pair = bench.degrade(clean, bench.SCENARIOS[wl.scenarios[0]], seed)
    return Inputs(clean=[clean], observed=pair.observed, psf=pair.psf, sigma=pair.sigma)


# ------------------------------------------------------------------- jobs


@dataclass
class JobOutput:
    """A restore's image, or the CLI's exit code and CSV text."""

    image: Optional[np.ndarray] = None
    exit_code: Optional[int] = None
    csv_text: Optional[str] = None


def run_job(wl: Workload, inputs: Inputs, seed: int, job_id: int) -> JobOutput:
    """One job.  Callees are looked up through their modules at call time,
    so a traced run sees the wrapped functions."""
    if not wl.cli:
        cfg = pipeline.GfdConfig(
            iterations=wl.iterations, sigma=inputs.sigma if wl.known_sigma else None
        )
        restored, _ = pipeline.run_gfd(inputs.observed, inputs.psf, cfg)
        return JobOutput(image=restored)
    out_csv = inputs.workdir / f"job{job_id}.csv"
    argv = [
        "run-scenarios", "--images", str(inputs.image_dir), "--out", str(out_csv),
        "--seed", str(seed), "--iters", str(wl.iterations),
        "--scenarios", ",".join(str(s) for s in wl.scenarios),
    ]
    code = cli.main(argv)
    text = out_csv.read_text(encoding="ascii") if out_csv.exists() else None
    if text is not None:
        out_csv.unlink()
    return JobOutput(exit_code=code, csv_text=text)


def job_isnr(wl: Workload, inputs: Inputs, out: JobOutput) -> float:
    """The job's ISNR in dB: the restore's, or the mean over the CSV rows."""
    if not wl.cli:
        return isnr_db(inputs.clean[0], inputs.observed, out.image)
    rows = list(csv.DictReader(out.csv_text.splitlines()))
    return float(np.mean([float(r["isnr_db"]) for r in rows]))


# ------------------------------------------------------------------ checks


@dataclass(frozen=True)
class IsnrGate:
    """Expected ISNR: an exact recorded value, or a range for unrecorded seeds."""

    lo: float
    hi: float
    how: str

    def problem(self, value: float) -> Optional[str]:
        if self.lo <= value <= self.hi:
            return None
        return f"isnr {value:.6f} dB outside [{self.lo:.6f}, {self.hi:.6f}] ({self.how})"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def isnr_gate(wl_name: str, seed: int, expected: Optional[dict] = None) -> IsnrGate:
    table = (expected if expected is not None else load_expected())["isnr_db"][wl_name]
    if str(seed) in table:
        v = table[str(seed)]
        return IsnrGate(v - ISNR_TOL_DB, v + ISNR_TOL_DB,
                        f"recorded {v:.6f} dB for seed {seed}, tolerance {ISNR_TOL_DB} dB")
    vals = list(table.values())
    return IsnrGate(min(vals) - ISNR_RANGE_SLACK_DB, max(vals) + ISNR_RANGE_SLACK_DB,
                    f"seed {seed} not recorded: range of {len(vals)} recorded seeds "
                    f"widened by {ISNR_RANGE_SLACK_DB} dB")


def check_job(wl: Workload, inputs: Inputs, out: JobOutput, gate: IsnrGate) -> List[str]:
    """Every problem with one job's output; empty means the job passed."""
    if wl.cli:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}"]
        if out.csv_text is None:
            return ["no CSV written"]
        rows = list(csv.DictReader(out.csv_text.splitlines()))
        if len(rows) != wl.restores_per_job:
            return [f"{len(rows)} CSV rows, expected {wl.restores_per_job}"]
        cells = sorted((r["image"], int(r["scenario"])) for r in rows)
        want = sorted((f"natural{s}", k) for s in IMAGE_SEEDS for k in wl.scenarios)
        if cells != want:
            return [f"CSV cells {cells} differ from {want}"]
        if not all(math.isfinite(float(r[k])) for r in rows for k in ("isnr_db", "bsnr_db")):
            return ["non-finite value in CSV"]
    else:
        img = out.image
        if not isinstance(img, np.ndarray) or img.shape != inputs.observed.shape:
            return [f"output shape {getattr(img, 'shape', None)}, expected {inputs.observed.shape}"]
        if not np.all(np.isfinite(img)):
            return ["non-finite pixels in output"]
    problem = gate.problem(job_isnr(wl, inputs, out))
    return [problem] if problem else []


def same_output(wl: Workload, a: JobOutput, b: JobOutput) -> bool:
    """Bit-identical restores; for the CLI, identical CSVs up to the timing column."""
    if not wl.cli:
        return a.image is not None and b.image is not None and np.array_equal(a.image, b.image)

    def strip(text):
        if text is None:
            return None
        return [{k: v for k, v in r.items() if k != "secs_per_iter"}
                for r in csv.DictReader(text.splitlines())]

    return a.exit_code == b.exit_code and strip(a.csv_text) == strip(b.csv_text)
