"""Golden records: the restorer's per-iteration lambda, rho, residual and
ISNR on a fixed grid, checked against tests/golden_records.json.

The grid is scenarios 1-5 x known/estimated sigma x guided-filter window
5/3 x 96^2/131^2 procedural images, 12 iterations each; it holds
lambda = inf iterations and both window sizes, so every branch of the
loop is pinned.  A change that means to move output rewrites the file
with the one writer,

    python tests/test_golden.py --write

and states the largest per-cell ISNR change it made.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: use the sources beside the tests
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gfdeblur.bench import SCENARIOS, degrade
from gfdeblur.pipeline import GfdConfig, run_gfd

from conftest import natural_image

GOLDEN = Path(__file__).resolve().parent / "golden_records.json"
ITERATIONS = 12
# Relative, not bit equality: another numpy build's FFT may round
# differently.
REL_TOL = 1e-9


def grid_records() -> dict:
    """Cell name -> one [lambda, rho, residual, isnr] row per iteration,
    lambda = inf written as the string "inf" (the file is strict JSON)."""
    cells = {}
    for size in (96, 131):
        clean = natural_image(7, size)
        for sid, scn in SCENARIOS.items():
            pair = degrade(clean, scn, 0)
            for known in (True, False):
                for w in (5, 3):
                    cfg = GfdConfig(iterations=ITERATIONS, gf_w=w, reference=clean,
                                    sigma=pair.sigma if known else None)
                    _, trace = run_gfd(pair.observed, pair.psf, cfg)
                    name = f"{size}_s{sid}_{'known' if known else 'est'}_w{w}"
                    cells[name] = [
                        ["inf" if math.isinf(r.lam) else r.lam, r.rho, r.residual, r.isnr]
                        for r in trace
                    ]
    return cells


def test_records_match_golden():
    golden = json.loads(GOLDEN.read_text())
    cells = grid_records()
    assert list(cells) == list(golden)
    assert any(row[0] == "inf" for rows in golden.values() for row in rows)
    for name, rows in cells.items():
        assert len(rows) == len(golden[name]) == ITERATIONS, name
        for k, (row, want) in enumerate(zip(rows, golden[name]), start=1):
            assert (row[0] == "inf") == (want[0] == "inf"), (name, k, row, want)
            for got, exp in zip(row, want):
                if got != "inf":
                    assert math.isclose(got, exp, rel_tol=REL_TOL), (name, k, row, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    cells = grid_records()
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in cells.items()
    ) + "\n}\n")
    print(f"wrote {GOLDEN}")
