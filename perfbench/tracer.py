"""Outside-in tracing: wrap gfdeblur's functions at the names their callers
look up, record one span per call in memory, and reduce the spans to
per-layer metrics.

`pipeline` binds `solve_guidance`, `guidfilter` and the rest at import,
so those are wrapped in `gfdeblur.pipeline`, not where they are defined.
numpy's transforms are wrapped in `numpy.fft` and under any alias a
gfdeblur module holds.  A site whose attribute no longer exists is
reported as missing, and every metric that needs it reads null.
"""

from __future__ import annotations

import csv
import importlib
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy.fft

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _lambda_info(choice):
    return (choice.is_infinite, choice.iterations)


def _run_info(result):
    _, trace = result
    return (len(trace), sum(1 for rec in trace if math.isinf(rec.lam)))


def _fft_points(result):
    return result.size


# (module, attribute, span name, info taken from the return value)
SITES = (
    ("gfdeblur.cli", "main", "cli.main", None),
    ("gfdeblur.pgm", "read_image", "pgm.read", None),
    ("gfdeblur.bench", "run_scenarios", "bench.run_scenarios", None),
    ("gfdeblur.bench", "degrade", "bench.degrade", None),
    ("gfdeblur.bench", "bsnr", "bench.score", None),
    ("gfdeblur.bench", "isnr", "bench.score", None),
    ("gfdeblur.bench", "write_scenarios_csv", "bench.write_csv", None),
    ("gfdeblur.bench", "run_gfd", "pipeline.run_gfd", _run_info),
    ("gfdeblur.pipeline", "run_gfd", "pipeline.run_gfd", _run_info),
    ("gfdeblur.pipeline", "estimate_sigma", "regparam.sigma_est", None),
    ("gfdeblur.pipeline", "compute_rho", "regparam.rho", None),
    ("gfdeblur.pipeline", "choose_lambda", "regparam.lambda", _lambda_info),
    ("gfdeblur.pipeline", "solve_guidance", "spectral.solve_guidance", None),
    ("gfdeblur.pipeline", "solve_input", "spectral.solve_input", None),
    ("gfdeblur.pipeline", "circ_convolve", "spectral.circ_convolve", None),
    ("gfdeblur.pipeline", "guidfilter", "guided_filter.main", None),
    ("gfdeblur.pipeline", "smooth_gradients", "guided_filter.grad", None),
    ("gfdeblur.guided_filter", "box_mean", "image_core.box_mean", None),
    ("gfdeblur.regparam", "discrepancy_terms", "regparam.discrepancy_terms", None),
    ("gfdeblur.regparam", "discrepancy_from_terms", "regparam.discrepancy_eval", None),
) + tuple(("numpy.fft", name, "spectral.fft", _fft_points) for name in FFT_NAMES)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int
    info: object = None
    error: Optional[str] = None


@dataclass
class Tracer:
    """Span recorder.  Use `with tracer.installed(job_id):` around a job."""

    spans: List[Span] = field(default_factory=list)
    missing: set = field(default_factory=set)
    _stack: List[int] = field(default_factory=list)
    _job: int = -1

    def wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def installed(self, job: int) -> "_Installed":
        return _Installed(self, job)

    def patches(self):
        """(object, attribute, original, wrapper) for every live site.

        A numpy transform held under another name by a gfdeblur module is
        wrapped there too, so an import-time alias cannot hide it.
        """
        out = []
        wrappers: Dict[int, Callable] = {}
        fft_originals = {}
        for mod_name, attr, name, info in SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.add(name)
                continue
            wrapper = wrappers.setdefault(id(orig), self.wrap(name, orig, info))
            out.append((mod, attr, orig, wrapper))
            if mod is numpy.fft:
                fft_originals[id(orig)] = wrapper
        for mod_name in _gfdeblur_modules():
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                wrapper = fft_originals.get(id(value))
                if wrapper is not None:
                    out.append((mod, attr, value, wrapper))
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "job", "info", "error"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.parent, s.job,
                            "" if s.info is None else s.info, s.error or ""])


def _gfdeblur_modules():
    return [m for m in sys.modules if m == "gfdeblur" or m.startswith("gfdeblur.")]


class _Installed:
    def __init__(self, tracer: Tracer, job: int):
        self.tracer = tracer
        self.job = job
        self.applied = []

    def __enter__(self):
        self.tracer._job = self.job
        try:
            for obj, attr, orig, wrapper in self.tracer.patches():
                setattr(obj, attr, wrapper)
                self.applied.append((obj, attr, orig))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.tracer

    def __exit__(self, *exc):
        for obj, attr, orig in reversed(self.applied):
            setattr(obj, attr, orig)
        self.applied.clear()
        return False


# --------------------------------------------------------------- reduction


@dataclass
class Tally:
    count: int = 0
    total: float = 0.0  # seconds, inclusive
    self_time: float = 0.0  # seconds, minus direct children
    info: List[object] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def tally(spans: List[Span]) -> Dict[str, Tally]:
    """Count, inclusive time and self time per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: Dict[str, Tally] = defaultdict(Tally)
    for i, s in enumerate(spans):
        t = out[s.name]
        t.count += 1
        t.total += s.end - s.start
        t.self_time += s.end - s.start - child_time[i]
        if s.info is not None:
            t.info.append(s.info)
        if s.error is not None:
            t.errors.append(s.error)
    return out


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer (the span name up to the first dot)."""
    out: Dict[str, float] = defaultdict(float)
    for name, t in tally(spans).items():
        out[name.split(".")[0]] += t.self_time
    return dict(out)


def fft_calls_by_branch(spans: List[Span]) -> Dict[str, List[int]]:
    """numpy.fft calls in each outer iteration, split by the lambda branch.

    An iteration is the run of `pipeline.run_gfd`'s direct children that
    ends with its `guided_filter.grad` span; it is finite unless its
    lambda span returned INFINITY or raised (the lambda = inf fallback).
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)

    def ffts(i: int) -> int:
        own = 1 if spans[i].name == "spectral.fft" else 0
        return own + sum(ffts(c) for c in children.get(i, ()))

    out = {"finite": [], "inf": []}
    for i, s in enumerate(spans):
        if s.name != "pipeline.run_gfd":
            continue
        n, infinite = 0, None
        for c in children.get(i, ()):
            n += ffts(c)
            cs = spans[c]
            if cs.name == "regparam.lambda":
                infinite = cs.error is not None or cs.info[0]
            elif cs.name == "guided_filter.grad" and infinite is not None:
                out["inf" if infinite else "finite"].append(n)
                n, infinite = 0, None
    return out


def per_layer_metrics(spans: List[Span], missing: set, iters: int, jobs: int,
                      restores: int) -> Dict[str, dict]:
    """Per-layer metrics for the traced jobs; null where a site is missing.

    "per_iter" metrics divide by outer iterations, "_ms" ones by jobs,
    except the sigma estimate, lambda = inf iterations and fallbacks,
    which are per restore.
    """
    t = tally(spans)  # a defaultdict: a name with no spans reads as zero
    branch = fft_calls_by_branch(spans)
    lam, runs = t["regparam.lambda"], t["pipeline.run_gfd"]

    def ms(*names, per=iters, self_time=False):
        return sum(t[n].self_time if self_time else t[n].total for n in names) * 1e3 / per

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    gf = ["guided_filter.main", "guided_filter.grad"]
    solves = ["spectral.solve_guidance", "spectral.solve_input"]
    segments = ["spectral.fft", "regparam.lambda", "guided_filter.grad", "pipeline.run_gfd"]
    table = [
        # (metric, unit, span names it needs, value)
        ("image_core.box_mean_calls_per_iter", "count", ["image_core.box_mean"],
         lambda: t["image_core.box_mean"].count / iters),
        ("image_core.box_mean_ms_per_iter", "ms", ["image_core.box_mean"],
         lambda: ms("image_core.box_mean")),
        ("guided_filter.main_ms_per_iter", "ms", gf[:1], lambda: ms(gf[0])),
        ("guided_filter.grad_ms_per_iter", "ms", gf[1:], lambda: ms(gf[1])),
        ("guided_filter.self_ms_per_iter", "ms", gf + ["image_core.box_mean"],
         lambda: ms(*gf, self_time=True)),
        ("spectral.solve_ms_per_iter", "ms", solves, lambda: ms(*solves)),
        ("spectral.fft_calls_per_iter", "count", segments[:1],
         lambda: t["spectral.fft"].count / iters),
        ("spectral.fft_calls_per_finite_iter", "count", segments,
         lambda: mean(branch["finite"])),
        ("spectral.fft_calls_per_inf_iter", "count", segments, lambda: mean(branch["inf"])),
        ("spectral.fft_mpoints_per_iter", "Mpoint", segments[:1],
         lambda: sum(t["spectral.fft"].info) / 1e6 / iters),
        ("spectral.fft_ms_per_iter", "ms", segments[:1], lambda: ms("spectral.fft")),
        ("regparam.lambda_ms_per_iter", "ms", ["regparam.lambda"],
         lambda: ms("regparam.lambda")),
        ("regparam.discrepancy_terms_ms_per_iter", "ms", ["regparam.discrepancy_terms"],
         lambda: ms("regparam.discrepancy_terms")),
        ("regparam.discrepancy_evals_per_iter", "count", ["regparam.discrepancy_eval"],
         lambda: t["regparam.discrepancy_eval"].count / iters),
        ("regparam.bisect_steps_per_iter", "count", ["regparam.lambda"],
         lambda: sum(steps for _, steps in lam.info) / iters),
        ("regparam.lambda_inf_iters", "count", ["pipeline.run_gfd"],
         lambda: sum(n_inf for _, n_inf in runs.info) / restores),
        ("regparam.rho_ms_per_iter", "ms", ["regparam.rho"], lambda: ms("regparam.rho")),
        ("regparam.sigma_est_ms", "ms", ["regparam.sigma_est"],
         lambda: ms("regparam.sigma_est", per=restores)),
        ("pipeline.self_ms_per_iter", "ms", ["pipeline.run_gfd"],
         lambda: ms("pipeline.run_gfd", self_time=True)),
        ("pipeline.bracket_fallbacks", "count", ["regparam.lambda"],
         lambda: lam.errors.count("BracketFailure") / restores),
        ("bench.degrade_ms", "ms", ["bench.degrade"], lambda: ms("bench.degrade", per=jobs)),
        ("bench.score_ms", "ms", ["bench.score"], lambda: ms("bench.score", per=jobs)),
        ("pgm.read_ms", "ms", ["pgm.read"], lambda: ms("pgm.read", per=jobs)),
        ("cli.self_ms", "ms", ["cli.main"], lambda: ms("cli.main", per=jobs, self_time=True)),
    ]
    out = {}
    for name, unit, needs, value in table:
        gone = sorted(n for n in needs if n in missing)
        out[name] = {"value": None if gone else value(), "unit": unit}
        if gone:
            out[name]["missing"] = gone
    return out
