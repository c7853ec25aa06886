"""Benchmark harness: the PSF mini-language, degradation scenarios,
seeded noise, BSNR/ISNR metrics, the rho-sweep experiment, and the
reference comparison table.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import pgm
from .errors import DegenerateInput
from .image_core import centered_sq_norm, isnr
from .pipeline import GfdConfig, run_gfd
from .spectral import Psf, check_kernel_fits, circ_convolve

# PRNG identity recorded in output metadata: PCG64 stream mapped to
# Gaussians via Box-Muller, so degraded pairs are reproducible
# bit-for-bit across platforms.
PRNG_ID = "pcg64:box-muller"


def gaussian_field(shape: Tuple[int, int], sigma: float, seed: int) -> np.ndarray:
    """Seeded zero-mean Gaussian noise image with std sigma."""
    h, w = shape
    n = h * w
    npairs = (n + 1) // 2
    gen = np.random.Generator(np.random.PCG64(seed))
    u1 = 1.0 - gen.random(npairs)  # (0, 1]: keeps the log finite
    u2 = gen.random(npairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return sigma * z[:n].reshape(h, w)


# --------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class Scenario:
    """One degradation setting: a PSF (in the parse_psf_spec mini-language)
    and a noise variance."""

    id: int
    psf_spec: str
    sigma_sq: float
    psf_text: str = ""

    def __post_init__(self):
        if self.sigma_sq < 0:
            raise ValueError(f"sigma_sq must be nonnegative, got {self.sigma_sq!r}")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma_sq))


# Scenario 3's "approximately 0.3" is stored as 0.308, the value that
# puts Cameraman at BSNR 40 dB in this benchmark lineage.
SCENARIOS: Dict[int, Scenario] = {
    1: Scenario(1, "rational:7", 2.0, "1/(1+i^2+j^2), i,j=-7..7"),
    2: Scenario(2, "rational:7", 8.0, "1/(1+i^2+j^2), i,j=-7..7"),
    3: Scenario(3, "boxcar:9", 0.308, "9x9 uniform (boxcar)"),
    4: Scenario(4, "binomial5", 49.0, "[1 4 6 4 1]ᵀ[1 4 6 4 1]/256"),
    5: Scenario(5, "gaussian:25:1.6", 4.0, "25x25 Gaussian, std=1.6"),
}


def rational_kernel(radius: int) -> np.ndarray:
    i = np.arange(-radius, radius + 1)
    return 1.0 / (1.0 + i[:, None] ** 2 + i[None, :] ** 2)


def boxcar_kernel(size: int) -> np.ndarray:
    return np.ones((size, size))


def binomial5_kernel() -> np.ndarray:
    row = np.array([1.0, 4.0, 6.0, 4.0, 1.0])
    return np.outer(row, row) / 256.0


def gaussian_kernel(size: int, std: float) -> np.ndarray:
    if size < 1 or size % 2 == 0 or not 0 < std < np.inf:
        raise ValueError("needs an odd SIZE >= 1, a finite STD > 0")
    r = size // 2
    # The largest exponent, at a corner; a STD so small that it
    # overflows, or is 0 / 0 at SIZE 1, cannot form the kernel.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exponent = np.float64(2 * r ** 2) / (2.0 * std * std)
    if not np.isfinite(exponent):
        raise ValueError(f"STD {std!r} is too small to form the kernel")
    i = np.arange(-r, r + 1)
    return np.exp(-(i[:, None] ** 2 + i[None, :] ** 2) / (2.0 * std * std))


# kind -> (kernel builder, the types of its ':'-separated fields, the
# kernel's side from those fields)
PSF_KINDS = {
    "boxcar": (boxcar_kernel, (int,), lambda size: size),
    "gaussian": (gaussian_kernel, (int, float), lambda size, std: size),
    "rational": (rational_kernel, (int,), lambda radius: 2 * radius + 1),
    "binomial5": (binomial5_kernel, (), lambda: 5),
}


def parse_psf_spec(spec: str, canvas=None) -> Psf:
    """PSF mini-language: boxcar:N, gaussian:SIZE:STD, rational:R,
    binomial5, or file:PATH (a PGM whose samples are kernel weights).
    ValueError names a spec that is not one of these, or whose kernel
    cannot be allocated.  Given canvas, the shape of the image it is for,
    a kernel that does not fit it raises KernelTooLarge before any tap
    is built."""
    kind, *fields = spec.split(":")
    if kind == "file":  # a path may contain ':'
        taps = pgm.read_image(spec[len("file:"):])
        if canvas is not None:
            check_kernel_fits(taps.shape, canvas)
        return Psf(taps)
    if kind not in PSF_KINDS:
        raise ValueError(f"unknown PSF spec {spec!r}")
    build, types, side = PSF_KINDS[kind]
    try:
        if len(fields) != len(types):
            raise ValueError(f"{kind} takes {len(types)} ':'-separated field(s), got {len(fields)}")
        args = [t(f) for t, f in zip(types, fields)]
        if canvas is not None:
            check_kernel_fits((side(*args),) * 2, canvas)
        return Psf(build(*args))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"bad PSF spec {spec!r}: {exc}") from exc


@dataclass(frozen=True)
class DegradedPair:
    observed: np.ndarray
    psf: Psf
    sigma: float


def degrade(clean: np.ndarray, scn: Scenario, seed: int) -> DegradedPair:
    """Circular blur plus seeded Gaussian noise; deterministic per seed."""
    psf = parse_psf_spec(scn.psf_spec)
    observed = circ_convolve(clean, psf) + gaussian_field(clean.shape, scn.sigma, seed)
    return DegradedPair(observed=observed, psf=psf, sigma=scn.sigma)


# --------------------------------------------------------------------
# Metrics


def bsnr(g: np.ndarray, sigma_sq: float) -> float:
    """Blurred SNR in dB: centered energy of g over total noise energy."""
    if not 0 < sigma_sq < np.inf:
        raise ValueError(f"sigma_sq must be finite and positive, got {sigma_sq!r}")
    cvar = centered_sq_norm(g)
    if cvar == 0.0:
        raise DegenerateInput("constant observation has no BSNR")
    return 10.0 * np.log10(cvar / (g.size * sigma_sq))


# --------------------------------------------------------------------
# Experiments


def sigma_sq_for_bsnr(blurred: np.ndarray, bsnr_db: float) -> float:
    """Invert the BSNR formula to the noise variance hitting bsnr_db;
    ValueError names a level whose variance is not finite and positive."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power = np.float64(10.0) ** (bsnr_db / 10.0)
        sigma_sq = float(centered_sq_norm(blurred) / (blurred.size * power))
    if not 0 < sigma_sq < np.inf:
        raise ValueError(f"BSNR {bsnr_db!r} dB gives noise variance {sigma_sq!r}, outside (0, inf)")
    return sigma_sq


def _experiment_config(cfg: Optional[GfdConfig], per: str) -> GfdConfig:
    """cfg, or the default config, for an experiment that sets sigma itself."""
    base = cfg if cfg is not None else GfdConfig()
    if base.sigma is not None:
        raise ValueError(f"cfg.sigma must be None: sigma is set {per}, got {base.sigma!r}")
    return base


def rho_sweep(
    clean: np.ndarray,
    psf: Psf,
    bsnr_levels: Sequence[float],
    rho_grid: Sequence[float],
    cfg: Optional[GfdConfig] = None,
    seed: int = 0,
    image_name: str = "image",
) -> List[dict]:
    """Restoration quality across forced rho values plus the adaptive run.

    The noise level is chosen per requested BSNR from the blurred clean
    image.  Returns one row per (bsnr, rho) plus one adaptive row per
    BSNR level.
    """
    for r in rho_grid:
        if not 0 < r <= 1:
            raise ValueError(f"rho grid values must be in (0, 1], got {r!r}")
    base = _experiment_config(cfg, "per BSNR level")
    blurred = circ_convolve(clean, psf)
    sigma_sqs = [sigma_sq_for_bsnr(blurred, level) for level in bsnr_levels]  # before any restore
    rows: List[dict] = []
    for level, sigma_sq in zip(bsnr_levels, sigma_sqs):
        sigma = float(np.sqrt(sigma_sq))
        observed = blurred + gaussian_field(clean.shape, sigma, seed)
        run_cfg = replace(base, sigma=sigma)
        for rho in list(rho_grid) + [None]:
            restored, _ = run_gfd(observed, psf, run_cfg, rho_override=rho)
            score = isnr(clean, observed, restored)
            del restored  # scored: not held through the next restore
            rows.append(
                {
                    "image": image_name,
                    "bsnr_db": float(level),
                    "rho": float(rho) if rho is not None else "",
                    "adaptive_flag": int(rho is None),
                    "isnr_db": score,
                }
            )
    return rows


def run_scenarios(
    images: Sequence[Tuple[str, np.ndarray]],
    scenarios: Sequence[Scenario],
    cfg: Optional[GfdConfig] = None,
    seed: int = 0,
    *,
    known_sigma: bool,
    trace_dir=None,
) -> List[dict]:
    """Degrade, restore, and score every (image, scenario) cell, with
    each cell's true sigma if known_sigma, else sigma estimated.

    Rows are ordered by image name then scenario id regardless of
    execution order.  Reference GFD values are attached where the image
    name matches the published table.  With trace_dir, each cell's
    per-iteration records, scored against the clean image, go to
    trace_dir/trace_<image>_s<scenario>.csv; the directory is created
    before the first restore.  A cell's arrays are dropped once its row
    is built, so one cell's are live at a time.
    """
    base = _experiment_config(cfg, "per cell")
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    return [
        _scenario_row(name, clean, scn, replace(base, sigma=scn.sigma if known_sigma else None),
                      seed, trace_dir)
        for name, clean in sorted(images, key=lambda p: p[0])
        for scn in sorted(scenarios, key=lambda s: s.id)
    ]


def _scenario_row(name: str, clean: np.ndarray, scn: Scenario, cfg: GfdConfig, seed: int,
                  trace_dir: Optional[Path]) -> dict:
    """One run_scenarios cell's row; its observation, restore and trace
    go when it returns."""
    pair = degrade(clean, scn, seed)
    t0 = time.perf_counter()
    restored, trace = run_gfd(pair.observed, pair.psf, cfg,
                              reference=clean if trace_dir is not None else None)
    secs_per_iter = (time.perf_counter() - t0) / len(trace)
    if trace_dir is not None:
        write_trace_csv(trace_dir / f"trace_{name}_s{scn.id}.csv", trace)
    ref = REFERENCE_ISNR.get((name.lower(), scn.id, "gfd"))
    got = isnr(clean, pair.observed, restored)
    return {
        "image": name,
        "scenario": scn.id,
        "bsnr_db": bsnr(pair.observed, scn.sigma_sq),
        "isnr_db": got,
        "ref_gfd_db": ref if ref is not None else "",
        "delta_db": got - ref if ref is not None else "",
        "secs_per_iter": secs_per_iter,
    }


# --------------------------------------------------------------------
# Published reference numbers (ISNR in dB, and BSNR of each cell).

METHODS = ("forward", "ape_admm", "l0_abs", "sure_let", "bm3ddeb", "gfd")

_REF_ROWS = {
    "cameraman": {
        "bsnr": (31.87, 25.85, 40.00, 18.53, 29.19),
        "forward": (6.76, 5.08, 7.40, 2.40, 3.14),
        "ape_admm": (7.41, 5.24, 8.56, 2.57, 3.36),
        "l0_abs": (7.70, 5.55, 9.10, 2.93, 3.49),
        "sure_let": (7.54, 5.22, 7.84, 2.67, 3.27),
        "bm3ddeb": (8.19, 6.40, 8.34, 3.34, 3.73),
        "gfd": (8.38, 6.52, 9.73, 3.57, 4.02),
    },
    "house": {
        "bsnr": (29.16, 23.14, 40.00, 15.99, 26.61),
        "forward": (7.35, 6.03, 9.56, 3.19, 3.85),
        "ape_admm": (7.98, 6.57, 10.39, 4.49, 4.72),
        "l0_abs": (8.40, 7.12, 11.06, 4.55, 4.80),
        "sure_let": (8.71, 6.90, 10.72, 4.35, 4.26),
        "bm3ddeb": (9.32, 8.14, 10.85, 5.13, 4.79),
        "gfd": (9.39, 7.75, 12.02, 5.21, 5.39),
    },
    "lena": {
        "bsnr": (29.89, 23.87, 40.00, 16.47, 27.18),
        "forward": (6.05, 4.90, 6.97, 2.93, 3.50),
        "ape_admm": (6.36, 4.98, 7.87, 3.52, 3.61),
        "l0_abs": (6.66, 5.71, 7.79, 4.09, 4.22),
        "sure_let": (7.71, 5.88, 7.96, 4.42, 4.25),
        "bm3ddeb": (7.95, 6.53, 8.06, 4.81, 4.37),
        "gfd": (8.12, 6.65, 8.97, 4.77, 4.95),
    },
    "man": {
        "bsnr": (29.72, 23.70, 40.00, 16.32, 27.02),
        "forward": (5.15, 3.87, 6.47, 2.19, 2.71),
        "ape_admm": (5.82, 4.28, 7.14, 2.58, 2.98),
        "l0_abs": (5.74, 4.02, 7.19, 2.61, 3.00),
        "sure_let": (6.01, 4.32, 6.89, 2.75, 3.01),
        "bm3ddeb": (6.34, 4.81, 6.99, 3.05, 3.22),
        "gfd": (6.29, 4.83, 7.67, 3.11, 3.50),
    },
}

REFERENCE_ISNR: Dict[Tuple[str, int, str], float] = {
    (image, scn, method): row[method][scn - 1]
    for image, row in _REF_ROWS.items()
    for scn in range(1, 6)
    for method in METHODS
}

REFERENCE_BSNR: Dict[Tuple[str, int], float] = {
    (image, scn): row["bsnr"][scn - 1]
    for image, row in _REF_ROWS.items()
    for scn in range(1, 6)
}


# --------------------------------------------------------------------
# CSV emission


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def _write_csv(path, header: str, rows: Iterable[Sequence]) -> None:
    """UTF-8, with csv's quoting of a field such as an image name that
    holds a comma or a quote."""
    lines = [header.split(",")] + [[_fmt(c) for c in row] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)


def _write_dict_csv(path, header: str, rows: List[dict]) -> None:
    keys = header.split(",")
    _write_csv(path, header, ([r[k] for k in keys] for r in rows))


def write_rho_sweep_csv(path, rows: List[dict]) -> None:
    _write_dict_csv(path, "image,bsnr_db,rho,adaptive_flag,isnr_db", rows)


def write_scenarios_csv(path, rows: List[dict]) -> None:
    _write_dict_csv(path, "image,scenario,bsnr_db,isnr_db,ref_gfd_db,delta_db,secs_per_iter", rows)


def write_trace_csv(path, trace) -> None:
    _write_csv(path, "k,lambda,rho,residual,bisect_steps,isnr_db", map(astuple, trace))
