import os
import subprocess
import sys
from pathlib import Path

from gfdeblur.pgm import write_image

from conftest import natural_image

ROOT = Path(__file__).resolve().parent.parent


def test_convergence_trace_script(tmp_path):
    write_image(tmp_path / "clean.pgm", natural_image(2, 32))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_trace.py"), "clean.pgm",
         "--scenario", "3", "--iters", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    csv_lines = (tmp_path / "trace_clean_s3.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 3
    assert sum(line.startswith("k=") for line in proc.stdout.splitlines()) == 3
