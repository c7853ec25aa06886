"""Command-line surface: deblur, degrade, evaluate, sweep-rho,
run-scenarios.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import bench, config, pgm
from .errors import DegenerateInput, GfdError, GridTooLarge, SingularDenominator
from .pipeline import GfdConfig, run_gfd
from .regparam import NoiseEstimate, estimate_sigma

_NUMERIC_ERRORS = (SingularDenominator, DegenerateInput)

# The most points a sweep-rho grid may hold.  Each point costs one restore
# per BSNR level, so the bound is far past any sweep worth running.
MAX_GRID_POINTS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def parse_grid(spec: str):
    """Grid mini-language start:step:stop, inclusive of stop and clamped to it.
    GridTooLarge names a grid of more than MAX_GRID_POINTS points, counted
    from the three numbers before any point is made."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {spec!r}")
    start, step, stop = (float(p) for p in parts)
    if not (step > 0 and start <= stop and math.isfinite(stop - start)):
        raise ValueError(f"bad grid {spec!r}")
    steps = (stop - start) / step  # inf when the quotient overflows
    if not steps + 1 <= MAX_GRID_POINTS:
        raise GridTooLarge(
            f"grid {spec!r} has {steps + 1:.6g} points, more than {MAX_GRID_POINTS}"
        )
    n = int(round(steps)) + 1
    return [min(start + i * step, stop) for i in range(n) if start + i * step <= stop + 1e-9]


def _parse_levels(spec: str):
    """Comma-separated BSNR levels in dB."""
    levels = [float(p) for p in spec.split(",") if p]
    if not levels or not all(map(math.isfinite, levels)):
        raise ValueError(f"bad BSNR levels {spec!r}")
    return levels


def _parse_scenarios(spec: str):
    """Comma-separated scenario ids, each a key of bench.SCENARIOS."""
    scenarios = []
    for token in filter(None, spec.split(",")):
        try:
            scenarios.append(bench.SCENARIOS[int(token)])
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(
                f"unknown scenario {token!r}; known: {sorted(bench.SCENARIOS)}"
            ) from None
    if not scenarios:
        raise argparse.ArgumentTypeError(f"no scenario id in {spec!r}")
    return scenarios


def _build_parser() -> _Parser:
    p = _Parser(prog="gfdeblur", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("deblur", help="restore a blurred, noisy image")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--psf", required=True)
    d.add_argument("--out", required=True)
    noise = d.add_mutually_exclusive_group()
    noise.add_argument("--sigma", type=float)
    noise.add_argument("--estimate-sigma", action="store_true")
    d.add_argument("--iters", dest="iterations", type=int)
    d.add_argument("--gf-w", type=int)
    d.add_argument("--gf-eps", type=float)
    d.add_argument("--tau", type=float)
    d.add_argument("--trace", default=None)
    d.add_argument("--ref", default=None)
    d.add_argument("--config", default=None)

    g = sub.add_parser("degrade", help="blur + seeded noise per scenario")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--scenario", type=int, required=True, choices=sorted(bench.SCENARIOS))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--meta", default=None)

    e = sub.add_parser("evaluate", help="ISNR (and BSNR given --sigma)")
    e.add_argument("--clean", required=True)
    e.add_argument("--observed", required=True)
    e.add_argument("--restored", required=True)
    e.add_argument("--sigma", type=float, default=None)

    s = sub.add_parser("sweep-rho", help="ISNR across forced rho values")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--psf", required=True)
    s.add_argument("--bsnr", type=_parse_levels, default="20,30,40")
    s.add_argument("--grid", type=parse_grid, default="0.1:0.05:1.0")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--iters", dest="iterations", type=int)

    r = sub.add_parser("run-scenarios", help="comparison table over a directory")
    r.add_argument("--images", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--scenarios", type=_parse_scenarios, default="1,2,3,4,5")
    r.add_argument("--iters", dest="iterations", type=int)
    r.add_argument("--known-sigma", action="store_true")
    r.add_argument("--trace-dir", default=None)
    return p


def _gfd_config(args, settings=()) -> GfdConfig:
    """GfdConfig from config-file settings with the flags given on top:
    flag > config file > GfdConfig default."""
    merged = dict(settings)
    merged.update(
        (k, v) for k, v in vars(args).items() if k in config.KEYS and v is not None
    )
    return GfdConfig(**merged)


def _pgm_sigma_estimate(g, maxval: int) -> float:
    """The noise level estimated from a PGM observation, floored at that of
    its rounding, q / sqrt(12) for the step q = 255 / maxval.  On a
    piecewise-flat image the estimate can read 0 although rounding alone
    adds noise of variance q^2 / 12."""
    return max(estimate_sigma(g).sigma, 255.0 / maxval / math.sqrt(12.0))


def _cmd_deblur(args) -> int:
    settings = config.load_run_config(args.config) if args.config else {}
    if args.estimate_sigma:
        settings.pop("sigma", None)
    g, maxval = pgm.read_pgm(args.infile)
    psf = bench.parse_psf_spec(args.psf, g.shape)
    ref = pgm.read_image(args.ref) if args.ref else None
    cfg = _gfd_config(args, settings)
    if cfg.sigma is None:
        cfg = dataclasses.replace(cfg, sigma=_pgm_sigma_estimate(g, maxval))
    restored, trace = run_gfd(g, psf, cfg, reference=ref)
    pgm.write_image(args.out, restored)
    if args.trace:
        bench.write_trace_csv(args.trace, trace)
    if ref is not None:
        print(f"isnr_db={bench.isnr(ref, g, restored):.6g}")
    return 0


def _cmd_degrade(args) -> int:
    clean = pgm.read_image(args.infile)
    scn = bench.SCENARIOS[args.scenario]
    pair = bench.degrade(clean, scn, args.seed)
    pgm.write_image(args.out, pair.observed)
    if args.meta:
        lines = [
            f"scenario={scn.id}",
            f"psf={scn.psf_spec}",
            f"psf_text={scn.psf_text}",
            # The 8-bit PGM carries the scenario's noise plus rounding
            # noise of variance q^2/12, q = 1; sigma_sq stays the
            # scenario's, for BSNR.
            f"sigma={math.sqrt(scn.sigma_sq + 1 / 12):.6g}",
            f"sigma_sq={scn.sigma_sq:.6g}",
            f"seed={args.seed}",
            f"prng={bench.PRNG_ID}",
        ]
        Path(args.meta).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_evaluate(args) -> int:
    # sigma is checked as bsnr checks it, and every number computed, before any output.
    sigma_sq = None if args.sigma is None else NoiseEstimate(args.sigma).variance
    if sigma_sq == 0.0:
        raise ValueError(f"sigma_sq must be finite and positive, got {sigma_sq!r}")
    clean = pgm.read_image(args.clean)
    observed = pgm.read_image(args.observed)
    restored = pgm.read_image(args.restored)
    lines = [f"isnr_db={bench.isnr(clean, observed, restored):.6g}"]
    if sigma_sq is not None:
        lines.append(f"bsnr_db={bench.bsnr(observed, sigma_sq):.6g}")
    print("\n".join(lines))
    return 0


def _cmd_sweep_rho(args) -> int:
    clean = pgm.read_image(args.infile)
    psf = bench.parse_psf_spec(args.psf, clean.shape)
    rows = bench.rho_sweep(
        clean,
        psf,
        bsnr_levels=args.bsnr,
        rho_grid=args.grid,
        cfg=_gfd_config(args),
        seed=args.seed,
        image_name=Path(args.infile).stem,
    )
    bench.write_rho_sweep_csv(args.out, rows)
    return 0


def _cmd_run_scenarios(args) -> int:
    image_dir = Path(args.images)
    files = sorted(image_dir.glob("*.pgm"), key=lambda f: f.stem)  # run_scenarios' order
    if not files:
        raise ValueError(f"no .pgm images found in {image_dir}")
    for f in files:  # a bad file fails before any restore; no image is kept
        pgm.read_image(f)
    cfg = _gfd_config(args)
    rows = []
    for f in files:  # one clean image live at a time
        rows += bench.run_scenarios(
            [(f.stem, pgm.read_image(f))],
            args.scenarios,
            cfg=cfg,
            seed=args.seed,
            known_sigma=args.known_sigma,
            trace_dir=args.trace_dir,
        )
    bench.write_scenarios_csv(args.out, rows)
    return 0


_COMMANDS = {
    "deblur": _cmd_deblur,
    "degrade": _cmd_degrade,
    "evaluate": _cmd_evaluate,
    "sweep-rho": _cmd_sweep_rho,
    "run-scenarios": _cmd_run_scenarios,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # A flag's type may raise a GfdError, which argparse passes on.
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _NUMERIC_ERRORS as exc:
        print(f"gfdeblur: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GfdError, OSError, ValueError) as exc:
        print(f"gfdeblur: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
