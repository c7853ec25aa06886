"""Process set-up shared by the benchmark's entry points.

Call `prepare()` before numpy or gfdeblur is imported: it pins the BLAS
and OpenMP pools to one thread and puts the checkout's `src/` first on
`sys.path`, so the benchmark always measures the source tree it sits
in, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin thread pools and select the checkout's sources; exit 2 if absent.

    Idempotent, so every entry point can call it before its imports.
    """
    if str(SRC) in sys.path:
        return
    if not (SRC / "gfdeblur" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no gfdeblur sources under {SRC}\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child interpreter that must import the same sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
