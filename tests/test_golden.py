"""Golden records: the restorer's per-iteration lambda, rho, residual and
ISNR on a fixed grid, checked against tests/golden_records.json.

The grid is scenarios 1-5 x known/estimated sigma x guided-filter window
5/3 x 96^2/131^2 procedural images, 12 iterations each; it holds
lambda = inf iterations and both window sizes, so every branch of the
loop is pinned.  A change that means to move output rewrites the file
with the one writer,

    python tests/test_golden.py --write

and states the largest per-cell ISNR change it made.  A change that means
to keep output bit-identical prints one sha256 over the grid's restored
images and records before and after it,

    python tests/test_golden.py --hash

The digest also covers one 512^2 cell that the records leave out (see
seam_run), so that it reaches the strip and row-block seams the grid's
small images never cross.
"""

from __future__ import annotations

import dataclasses
import hashlib
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


def grid_runs():
    """Yield (cell name, restored image, records) for each grid cell."""
    for size in (96, 131):
        clean = natural_image(7, size)
        for sid, scn in SCENARIOS.items():
            pair = degrade(clean, scn, 0)
            for known in (True, False):
                for w in (5, 3):
                    cfg = GfdConfig(iterations=ITERATIONS, gf_w=w,
                                    sigma=pair.sigma if known else None)
                    out, trace = run_gfd(pair.observed, pair.psf, cfg, reference=clean)
                    yield f"{size}_s{sid}_{'known' if known else 'est'}_w{w}", out, trace


def seam_run():
    """(cell name, restored image, records) of a 512^2 cell, scenario 5,
    estimated sigma, 6 iterations.  Each pass takes 9 guided-filter
    strips, with their halos and the divergence rows held between them,
    and 3 spectral row blocks, where a grid image takes one of each; its
    lambda is infinite at iterations 2-4 and finite elsewhere.  It is
    hashed but not recorded, which keeps the tier-1 golden test fast."""
    clean = natural_image(7, 512)
    pair = degrade(clean, SCENARIOS[5], 0)
    out, trace = run_gfd(pair.observed, pair.psf, GfdConfig(iterations=6), reference=clean)
    return "512_s5_est_w5", out, trace


def grid_records() -> dict:
    """Cell name -> one [lambda, rho, residual, isnr] row per iteration,
    lambda = inf written as the string "inf" (the file is strict JSON)."""
    return {
        name: [["inf" if math.isinf(r.lam) else r.lam, r.rho, r.residual, r.isnr]
               for r in trace]
        for name, _, trace in grid_runs()
    }


def grid_hash() -> str:
    """sha256 over each grid cell's and the seam cell's name, restored
    image bytes and the exact repr of every compared record field."""
    digest = hashlib.sha256()
    for name, out, trace in [*grid_runs(), seam_run()]:
        digest.update(name.encode())
        digest.update(out.tobytes())
        for r in trace:
            fields = [getattr(r, f.name) for f in dataclasses.fields(r) if f.compare]
            digest.update(repr(fields).encode())
    return digest.hexdigest()


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
    if sys.argv[1:] not in (["--write"], ["--hash"]):
        sys.exit("usage: python tests/test_golden.py --write | --hash")
    if sys.argv[1] == "--hash":
        print(grid_hash())
        sys.exit()
    cells = grid_records()
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in cells.items()
    ) + "\n}\n")
    print(f"wrote {GOLDEN}")
