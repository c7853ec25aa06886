import dataclasses
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gfdeblur import bench
from gfdeblur.bench import SCENARIOS, degrade, parse_psf_spec
from gfdeblur.cli import _COMMANDS, _build_parser, _gfd_config, main, parse_grid
from gfdeblur.config import KEYS, parse_run_config
from gfdeblur.errors import ConfigError
from gfdeblur.pipeline import GfdConfig, run_gfd
from gfdeblur.pgm import read_image, write_image
from gfdeblur.regparam import estimate_sigma
from gfdeblur.spectral import circ_convolve

from conftest import BAD_PGM_HEADERS, natural_image, rand_int_image, traced_peak

README = Path(__file__).resolve().parent.parent / "README.md"


# -------------------------------------------------------- PSF spec DSL


def test_psf_spec_boxcar():
    psf = parse_psf_spec("boxcar:9")
    assert psf.shape == (9, 9)
    np.testing.assert_allclose(psf.taps, 1.0 / 81.0)


def test_psf_spec_gaussian():
    psf = parse_psf_spec("gaussian:25:1.6")
    assert psf.shape == (25, 25)
    assert psf.taps[12, 12] == psf.taps.max()


def test_psf_spec_rational():
    psf = parse_psf_spec("rational:7")
    assert psf.shape == (15, 15)


def test_psf_spec_binomial():
    psf = parse_psf_spec("binomial5")
    assert psf.shape == (5, 5)
    assert psf.taps.sum() == pytest.approx(1.0, abs=1e-15)


def test_psf_spec_file(tmp_path):
    kfile = tmp_path / "k.pgm"
    write_image(kfile, np.full((3, 3), 10.0))
    psf = parse_psf_spec(f"file:{kfile}")
    np.testing.assert_allclose(psf.taps, 1.0 / 9.0)


def test_psf_spec_unknown():
    with pytest.raises(ValueError):
        parse_psf_spec("motion:5")
    # A Gaussian takes an odd size >= 1 and a finite std > 0, as a boxcar
    # takes an odd size; 5:0 divided by zero before it was refused.  A std
    # whose kernel exponent overflows (5:1e-160) or divides by a 2 std^2
    # that underflows to 0 (5:1e-300) is refused alike, not warned about.
    # A field that is not its kind's type, a size the kernel cannot take,
    # and a spec with the wrong number of fields are each refused by name.
    for spec in ("gaussian:4:1.0", "gaussian:0:1.0", "gaussian:5:-1", "gaussian:5:0",
                 "gaussian:5:1e-160", "gaussian:5:1e-300", "boxcar:abc", "boxcar:-1",
                 "boxcar:0", "boxcar:3:7", "rational:-1", "gaussian:5", "binomial5:3"):
        with pytest.raises(ValueError, match=f"bad PSF spec '{spec}'"):
            parse_psf_spec(spec)


def test_deblur_tiny_gaussian_std_exits_2(tmp_path, capsys):
    src = tmp_path / "g.pgm"
    write_image(src, rand_int_image(8, (16, 16)))
    for spec in ("gaussian:5:1e-160", "gaussian:5:1e-300"):
        capsys.readouterr()
        assert main(["deblur", "--in", str(src), "--psf", spec, "--sigma", "1",
                     "--out", str(tmp_path / "o.pgm")]) == 2
        assert f"bad PSF spec '{spec}'" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def test_deblur_malformed_psf_spec_exits_2(tmp_path, capsys):
    src = tmp_path / "g.pgm"
    write_image(src, rand_int_image(8, (16, 16)))
    for spec in ("boxcar:abc", "boxcar:-1", "boxcar:0", "rational:-1", "gaussian:5",
                 "boxcar:3:7", "binomial5:3"):
        capsys.readouterr()
        assert main(["deblur", "--in", str(src), "--psf", spec, "--sigma", "1",
                     "--out", str(tmp_path / "o.pgm")]) == 2
        assert f"bad PSF spec '{spec}'" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def test_deblur_psf_that_cannot_be_allocated_exits_2(tmp_path, capsys, monkeypatch):
    # A kernel too large to allocate is refused by name; the builder
    # raises as numpy would for rational:100000, without allocating.
    def unallocatable(radius):
        raise MemoryError(f"Unable to allocate the taps of radius {radius}")

    monkeypatch.setitem(bench.PSF_KINDS, "rational", (unallocatable, (int,)))
    src = tmp_path / "g.pgm"
    write_image(src, rand_int_image(8, (16, 16)))
    assert main(["deblur", "--in", str(src), "--psf", "rational:100000", "--sigma", "1",
                 "--out", str(tmp_path / "o.pgm")]) == 2
    assert ("bad PSF spec 'rational:100000': Unable to allocate the taps of radius 100000"
            in capsys.readouterr().err)
    assert not (tmp_path / "o.pgm").exists()


def test_parse_grid():
    assert parse_grid("0.1:0.05:0.2") == pytest.approx([0.1, 0.15, 0.2])
    # 0.09 + 13 * 0.07 rounds to just past 1.0; the last point is stop itself.
    grid = parse_grid("0.09:0.07:1.0")
    assert len(grid) == 14 and grid[-1] == 1.0
    for spec in ("0.1:0.05", "1:0:2", "1:0.1:0.5", "0.1:0.1:inf", "0.1:nan:1"):
        with pytest.raises(ValueError):
            parse_grid(spec)


# ------------------------------------------------------------ commands


def test_deblur_identity_round_trip(tmp_path):
    img = rand_int_image(0, (24, 24))
    src = tmp_path / "g.pgm"
    out = tmp_path / "v.pgm"
    write_image(src, img)
    rc = main([
        "deblur", "--in", str(src), "--psf", "boxcar:1", "--out", str(out),
        "--sigma", "0", "--iters", "1",
    ])
    assert rc == 0
    np.testing.assert_array_equal(read_image(out), img)


def test_degrade_meta_and_reproducibility(tmp_path):
    clean = natural_image(0, 48)
    src = tmp_path / "c.pgm"
    write_image(src, clean)
    outs = []
    for name in ("g1.pgm", "g2.pgm"):
        out = tmp_path / name
        rc = main([
            "degrade", "--in", str(src), "--scenario", "4", "--seed", "5",
            "--out", str(out), "--meta", str(tmp_path / "meta.txt"),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    meta = (tmp_path / "meta.txt").read_text(encoding="utf-8")
    assert "psf=binomial5\n" in meta
    assert "psf_text=[1 4 6 4 1]ᵀ[1 4 6 4 1]/256" in meta
    assert "sigma=7.00595\n" in meta  # sqrt(49 + 1/12): the 8-bit rounding noise too
    assert "sigma_sq=49" in meta
    assert "seed=5" in meta
    assert "prng=pcg64:box-muller" in meta


def test_degrade_meta_drives_deblur(tmp_path):
    # The PSF and sigma that --meta records are what deblur reads.
    clean, g, out = (tmp_path / name for name in ("c.pgm", "g.pgm", "v.pgm"))
    write_image(clean, natural_image(3, 32))
    meta = tmp_path / "meta.txt"
    rc = main(["degrade", "--in", str(clean), "--scenario", "3", "--seed", "0",
               "--out", str(g), "--meta", str(meta)])
    assert rc == 0
    fields = dict(line.split("=", 1) for line in meta.read_text(encoding="utf-8").splitlines())
    assert fields["psf"] == "boxcar:9"
    rc = main(["deblur", "--in", str(g), "--psf", fields["psf"], "--sigma", fields["sigma"],
               "--iters", "2", "--out", str(out)])
    assert rc == 0
    assert read_image(out).shape == (32, 32)


def test_degrade_meta_restores_like_the_float_observation(tmp_path, capsys):
    # deblur with the --meta PSF and sigma on the 8-bit PGM scores within
    # 0.2 dB of the run-scenarios cell that restores the float observation.
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    clean, g = img_dir / "clean.pgm", tmp_path / "g.pgm"
    write_image(clean, natural_image(7, 256))
    table = tmp_path / "s.csv"
    assert main(["run-scenarios", "--images", str(img_dir), "--out", str(table),
                 "--scenarios", "3", "--known-sigma"]) == 0
    float_isnr = float(table.read_text().splitlines()[1].split(",")[3])
    meta = tmp_path / "meta.txt"
    assert main(["degrade", "--in", str(clean), "--scenario", "3", "--seed", "0",
                 "--out", str(g), "--meta", str(meta)]) == 0
    fields = dict(line.split("=", 1) for line in meta.read_text(encoding="utf-8").splitlines())
    capsys.readouterr()
    assert main(["deblur", "--in", str(g), "--psf", fields["psf"], "--sigma", fields["sigma"],
                 "--ref", str(clean), "--out", str(tmp_path / "v.pgm")]) == 0
    pgm_isnr = float(capsys.readouterr().out.strip().removeprefix("isnr_db="))
    assert abs(pgm_isnr - float_isnr) < 0.2, (pgm_isnr, float_isnr)


def test_evaluate_prints_isnr_and_bsnr(tmp_path, capsys):
    clean = natural_image(1, 48)
    noisy = clean + 4.0 * np.sign(np.sin(np.arange(48 * 48)).reshape(48, 48))
    better = clean + 0.4 * np.sign(np.sin(np.arange(48 * 48)).reshape(48, 48))
    paths = {}
    for name, img in (("c", clean), ("g", noisy), ("r", better)):
        paths[name] = tmp_path / f"{name}.pgm"
        write_image(paths[name], img)
    rc = main([
        "evaluate", "--clean", str(paths["c"]), "--observed", str(paths["g"]),
        "--restored", str(paths["r"]), "--sigma", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "isnr_db=" in out and "bsnr_db=" in out


def test_sweep_rho_adaptive_row_once_per_level(tmp_path):
    clean = natural_image(2, 48)
    src = tmp_path / "c.pgm"
    write_image(src, clean)
    out = tmp_path / "rho_sweep.csv"
    rc = main([
        "sweep-rho", "--in", str(src), "--psf", "boxcar:3", "--bsnr", "20,30",
        "--grid", "0.5:0.5:1.0", "--out", str(out), "--iters", "2",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "image,bsnr_db,rho,adaptive_flag,isnr_db"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # (2 grid + 1 adaptive) x 2 levels
    for level in ("20", "30"):
        adaptive = [r for r in rows if r[1] == level and r[3] == "1"]
        assert len(adaptive) == 1


def test_run_scenarios_command(tmp_path):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    write_image(img_dir / "toy.pgm", natural_image(3, 48))
    out = tmp_path / "scenarios.csv"
    rc = main([
        "run-scenarios", "--images", str(img_dir), "--out", str(out),
        "--scenarios", "3", "--iters", "2", "--known-sigma",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("toy,3,")


def test_run_scenarios_trace_dir(tmp_path, monkeypatch):
    # --trace-dir writes one deblur --trace CSV per cell, scored against
    # the clean image, and changes no column of the table but the timing.
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for name, seed in (("a", 3), ("b", 5)):
        write_image(img_dir / f"{name}.pgm", natural_image(seed, 48))
    args = ["run-scenarios", "--images", str(img_dir), "--scenarios", "3,5", "--iters", "3",
            "--known-sigma"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    assert main(args + ["--out", str(plain / "s.csv")]) == 0
    assert [p.name for p in plain.iterdir()] == ["s.csv"]
    assert main(args + ["--out", str(tmp_path / "t.csv"), "--trace-dir", str(traced / "tr")]) == 0

    def table(path):
        return [line.split(",") for line in path.read_text().splitlines()]

    untraced, rows = table(plain / "s.csv"), table(tmp_path / "t.csv")
    assert [row[:-1] for row in rows] == [row[:-1] for row in untraced]
    header = rows[0]
    assert header[-1] == "secs_per_iter"
    cells = [dict(zip(header, row)) for row in rows[1:]]
    assert len(cells) == 4
    assert sorted(p.name for p in (traced / "tr").iterdir()) == sorted(
        f"trace_{c['image']}_s{c['scenario']}.csv" for c in cells
    )
    for cell in cells:
        trace = table(traced / "tr" / f"trace_{cell['image']}_s{cell['scenario']}.csv")
        assert trace[0] == ["k", "lambda", "rho", "residual", "bisect_steps", "isnr_db"]
        assert [row[0] for row in trace[1:]] == ["1", "2", "3"]
        assert trace[-1][-1] == cell["isnr_db"]

    # A trace directory that cannot be made exits 2 before any restore.
    def no_restore(*a, **kw):
        raise AssertionError("restored before the trace directory was made")

    monkeypatch.setattr(bench, "run_gfd", no_restore)
    blocked = img_dir / "a.pgm" / "traces"
    out = tmp_path / "u.csv"
    assert main(args + ["--out", str(out), "--trace-dir", str(blocked)]) == 2
    assert not out.exists()


def test_run_scenarios_holds_one_image_at_a_time(tmp_path):
    # Each image is decoded when its turn comes and each cell's arrays go
    # with its row, so three images peak as one does (19.7 against 20.1
    # images); decoding them all up front and holding the last restore
    # cost 2.6 to 3.3 images more.  The names sort one way by path
    # ("a-b.pgm" < "a.pgm") and the other by name.
    size = 64
    for names in (["a"], ["a", "a-b", "b"]):
        img_dir = tmp_path / f"imgs{len(names)}"
        img_dir.mkdir()
        for seed, name in enumerate(names):
            write_image(img_dir / f"{name}.pgm", natural_image(20 + seed, size))

    def run(n):
        argv = ["run-scenarios", "--images", str(tmp_path / f"imgs{n}"),
                "--out", str(tmp_path / f"s{n}.csv"), "--scenarios", "1,3", "--iters", "2"]
        assert main(argv) == 0

    run(1)  # first-call allocations, untraced
    one, three = (traced_peak(run, n) / (size * size * 8) for n in (1, 3))
    assert three <= one + 0.5

    # The rows of run_scenarios over every image decoded up front.
    images = [(f.stem, read_image(f)) for f in (tmp_path / "imgs3").glob("*.pgm")]
    rows = bench.run_scenarios(images, [SCENARIOS[1], SCENARIOS[3]],
                               cfg=GfdConfig(iterations=2), known_sigma=False)
    bench.write_scenarios_csv(tmp_path / "expected.csv", rows)

    def table(path):
        return [line.split(",")[:-1] for line in path.read_text().splitlines()]

    assert table(tmp_path / "s3.csv") == table(tmp_path / "expected.csv")
    assert [row[0] for row in table(tmp_path / "s3.csv")[1:]] == ["a"] * 2 + ["a-b"] * 2 + ["b"] * 2


def test_run_scenarios_bad_pgm_fails_before_any_restore(tmp_path, monkeypatch, capsys):
    # Every image is read before the first restore, so a bad file after a
    # good one exits 2, named as the reader names it, and writes no table.
    def no_restore(*a, **kw):
        raise AssertionError("restored before every image was read")

    monkeypatch.setattr(bench, "run_gfd", no_restore)
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    write_image(img_dir / "a.pgm", natural_image(3, 48))
    out = tmp_path / "s.csv"
    for data, msg in BAD_PGM_HEADERS:
        (img_dir / "b.pgm").write_bytes(data)
        capsys.readouterr()
        assert main(["run-scenarios", "--images", str(img_dir), "--out", str(out),
                     "--scenarios", "3", "--iters", "2"]) == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()


def test_deblur_reference_trace(tmp_path, capsys):
    clean = natural_image(6, 32)
    write_image(tmp_path / "clean.pgm", clean)
    write_image(tmp_path / "g.pgm", degrade(clean, SCENARIOS[3], seed=0).observed)
    trace = tmp_path / "t.csv"
    rc = main([
        "deblur", "--in", str(tmp_path / "g.pgm"), "--psf", "boxcar:9",
        "--out", str(tmp_path / "v.pgm"), "--sigma", "0.555", "--iters", "4",
        "--ref", str(tmp_path / "clean.pgm"), "--trace", str(trace),
    ])
    assert rc == 0
    header, *rows = (line.split(",") for line in trace.read_text().splitlines())
    assert header == ["k", "lambda", "rho", "residual", "bisect_steps", "isnr_db"]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    assert all(row[4].isdigit() for row in rows)
    assert all(math.isfinite(float(row[5])) for row in rows)
    # The printed score is the last iteration's, as the trace writes it.
    assert capsys.readouterr().out == f"isnr_db={rows[-1][5]}\n"


def _disk_and_bar(n: int = 64) -> np.ndarray:
    y, x = np.mgrid[:n, :n]
    clean = np.full((n, n), 60.0)
    clean[(y - 26) ** 2 + (x - 26) ** 2 < 13 ** 2] = 200.0
    clean[45:51, 10:54] = 130.0
    return clean


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_deblur_floors_estimated_sigma_at_pgm_rounding(tmp_path, capsys, sigma):
    # A piecewise-flat 8-bit observation: the estimate reads 0, though
    # rounding adds noise of variance 1/12.  Unfloored, every iteration
    # spent all 60 bisect steps and the restore scored -11.9 dB (sigma 0)
    # and -19.2 dB (sigma 0.3), with exit 0.
    clean = _disk_and_bar()
    blurred = circ_convolve(clean, parse_psf_spec("boxcar:9"))
    blurred += sigma * np.random.default_rng(0).standard_normal(clean.shape)
    write_image(tmp_path / "clean.pgm", clean)
    write_image(tmp_path / "g.pgm", blurred)
    assert estimate_sigma(read_image(tmp_path / "g.pgm")).sigma == 0.0
    trace = tmp_path / "t.csv"
    rc = main([
        "deblur", "--in", str(tmp_path / "g.pgm"), "--psf", "boxcar:9",
        "--out", str(tmp_path / "v.pgm"), "--iters", "10",
        "--ref", str(tmp_path / "clean.pgm"), "--trace", str(trace),
    ])
    assert rc == 0
    assert float(capsys.readouterr().out.removeprefix("isnr_db=")) > 0  # 6.1 and 5.9 dB
    assert all(int(row.split(",")[4]) < 60 for row in trace.read_text().splitlines()[1:])


def test_deblur_floor_leaves_given_and_larger_sigma_alone(tmp_path):
    # A given sigma is used as given, even below the floor, and an
    # estimate above the floor restores exactly as run_gfd estimates.
    clean = _disk_and_bar()
    psf = parse_psf_spec("boxcar:9")
    noisy = circ_convolve(clean, psf) + 3.0 * np.random.default_rng(1).standard_normal(clean.shape)
    write_image(tmp_path / "flat.pgm", circ_convolve(clean, psf))
    write_image(tmp_path / "noisy.pgm", noisy)
    for name, flags, sigma in (("flat", ["--sigma", "0.2"], 0.2), ("noisy", [], None)):
        g = read_image(tmp_path / f"{name}.pgm")
        assert main([
            "deblur", "--in", str(tmp_path / f"{name}.pgm"), "--psf", "boxcar:9",
            "--out", str(tmp_path / "v.pgm"), "--iters", "3", *flags,
            "--trace", str(tmp_path / "t.csv"),
        ]) == 0
        expected, trace = run_gfd(g, psf, GfdConfig(iterations=3, sigma=sigma))
        write_image(tmp_path / "expected.pgm", expected)
        bench.write_trace_csv(tmp_path / "expected.csv", trace)
        for out, ref in (("v.pgm", "expected.pgm"), ("t.csv", "expected.csv")):
            assert (tmp_path / out).read_bytes() == (tmp_path / ref).read_bytes()
    assert estimate_sigma(read_image(tmp_path / "noisy.pgm")).sigma > 1 / math.sqrt(12)


def test_deblur_mismatched_reference_writes_nothing(tmp_path, capsys):
    src, ref = tmp_path / "g.pgm", tmp_path / "row.pgm"
    write_image(src, rand_int_image(6, (16, 16)))
    write_image(ref, rand_int_image(7, (1, 16)))
    out, trace = tmp_path / "v.pgm", tmp_path / "t.csv"
    rc = main([
        "deblur", "--in", str(src), "--psf", "boxcar:3", "--out", str(out), "--sigma", "1",
        "--iters", "2", "--ref", str(ref), "--trace", str(trace),
    ])
    assert rc == 2
    assert "reference (1, 16) differs from observation (16, 16)" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["deblur", "--in", "x"]) == 1  # usage: missing required args
    assert main([
        "deblur", "--in", str(tmp_path / "missing.pgm"), "--psf", "boxcar:1",
        "--out", str(tmp_path / "o.pgm"),
    ]) == 2  # data error: file does not exist
    src = tmp_path / "g.pgm"
    write_image(src, rand_int_image(5, (16, 16)))
    deblur = ["deblur", "--in", str(src), "--psf", "boxcar:1", "--out", str(tmp_path / "o.pgm")]
    # usage: a known sigma and an estimated one exclude each other
    assert main(deblur + ["--sigma", "0.5", "--estimate-sigma"]) == 1
    # usage: an unknown scenario id is named, as degrade --scenario 9 is
    capsys.readouterr()
    assert main([
        "run-scenarios", "--images", str(tmp_path), "--out", str(tmp_path / "s.csv"),
        "--scenarios", "3,9",
    ]) == 1
    assert "unknown scenario '9'" in capsys.readouterr().err
    # usage: a list flag that is empty or malformed runs nothing
    sweep = ["sweep-rho", "--in", str(src), "--psf", "boxcar:3", "--out", str(tmp_path / "r.csv")]
    for flags in (["--bsnr", ","], ["--bsnr", "abc"], ["--bsnr", "30,nan"], ["--bsnr", "inf"],
                  ["--grid", "1:0:2"]):
        assert main(sweep + flags) == 1
    assert main([
        "run-scenarios", "--images", str(tmp_path), "--out", str(tmp_path / "s.csv"),
        "--scenarios", ",",
    ]) == 1
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()
    # data error: a PGM whose header is refused, named as the reader names it
    bad = tmp_path / "bad.pgm"
    for data, msg in BAD_PGM_HEADERS:
        bad.write_bytes(data)
        capsys.readouterr()
        assert main(["deblur", "--in", str(bad), "--psf", "boxcar:1",
                     "--out", str(tmp_path / "o.pgm")]) == 2
        assert msg in capsys.readouterr().err
    bad.unlink()
    # data error: an image directory without a .pgm runs nothing
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run-scenarios", "--images", str(empty), "--out", str(tmp_path / "s.csv")]) == 2
    assert "no .pgm images found" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    # data error: a config key that no setting reads is rejected, not ignored
    conf = tmp_path / "run.conf"
    for line in ("seed = 1", "grad_w = 3", "in = g.pgm"):
        conf.write_text(f"iterations = 1\n{line}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(deblur + ["--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and repr(line.split(" ")[0]) in err
    # data error: a bad setting is refused by name before any restore
    for flags, msg in (
        (["--tau", "nan", "--sigma", "1"], "tau must be a number, got nan"),
        (["--sigma", "inf"], "sigma must be finite and nonnegative, got inf"),
        (["--sigma", "nan"], "sigma must be finite and nonnegative, got nan"),
        (["--sigma", "1e200"], "sigma too large"),
        (["--gf-w", "4", "--sigma", "1"], "window side must be an odd positive integer, got 4"),
        (["--gf-eps", "-1", "--sigma", "1"], "eps must be finite and positive, got -1.0"),
        (["--gf-eps", "inf", "--sigma", "1"], "eps must be finite and positive, got inf"),
    ):
        capsys.readouterr()
        assert main(deblur + flags) == 2
        assert msg in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()
    # data error: a BSNR level whose noise variance overflows or
    # underflows, and an evaluate sigma that NoiseEstimate or bsnr refuses
    for level in ("4000", "-4000"):
        capsys.readouterr()
        assert main(sweep + [f"--bsnr={level}"]) == 2
        assert f"BSNR {float(level)!r} dB" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    evaluate = ["evaluate", "--clean", str(src), "--observed", str(src), "--restored", str(src)]
    for sigma, msg in (("1e200", "sigma too large"), ("inf", "sigma must be finite"),
                       ("0", "sigma_sq must be finite and positive")):
        capsys.readouterr()
        assert main(evaluate + ["--sigma", sigma]) == 2
        out, err = capsys.readouterr()
        assert msg in err and not out
    # data error: a PSF whose zeros hold the residual above the bound, a
    # 15x15 boxcar on a 15x15 canvas (H vanishes at every nonzero
    # frequency) and a 3x3 one (at k/15 = 1/3); both exited 3 when the
    # guidance solve's denominator vanished after the search
    canvas = tmp_path / "canvas.pgm"
    write_image(canvas, rand_int_image(8, (15, 15)))
    for psf in ("boxcar:15", "boxcar:3"):
        capsys.readouterr()
        assert main([
            "deblur", "--in", str(canvas), "--psf", psf, "--out", str(tmp_path / "c.pgm"),
            "--sigma", "1", "--iters", "2",
        ]) == 2
        assert "lies below the residual's floor" in capsys.readouterr().err
    assert not (tmp_path / "c.pgm").exists()
    # numerical failure: a constant observation has no BSNR, and its
    # ISNR is not printed either
    flat = tmp_path / "flat.pgm"
    write_image(flat, np.full((16, 16), 7.0))
    capsys.readouterr()
    assert main([
        "evaluate", "--clean", str(src), "--observed", str(flat),
        "--restored", str(src), "--sigma", "1",
    ]) == 3
    assert not capsys.readouterr().out


def test_readme_commands_parse():
    # Every command in README's sh blocks, with the optional flags in
    # brackets given, is one the parser takes; each experiment is a
    # subcommand, so none runs a file under scripts/.
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line.replace("[", "").replace("]", ""), comments=True)
            if words:
                commands.append(words)
    assert not [cmd for cmd in commands if any("scripts/" in word for word in cmd)]
    gfdeblur = [cmd[1:] for cmd in commands if cmd[0] == "gfdeblur"]
    assert {argv[0] for argv in gfdeblur} == set(_COMMANDS)
    parser = _build_parser()
    for argv in gfdeblur:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gfdeblur {shlex.join(argv)}")


# -------------------------------------------------------------- config


def test_config_defaults_match_pipeline_defaults():
    # An empty file and no flags leave every setting at GfdConfig's default.
    assert parse_run_config("") == {}
    for argv in (
        ["deblur", "--in", "g.pgm", "--psf", "boxcar:1", "--out", "v.pgm"],
        ["sweep-rho", "--in", "c.pgm", "--psf", "boxcar:1", "--out", "r.csv"],
        ["run-scenarios", "--images", "imgs", "--out", "s.csv"],
    ):
        assert _gfd_config(_build_parser().parse_args(argv)) == GfdConfig()


def test_config_keys_are_gfd_config_fields():
    # Flags, config keys and the library share one name per setting.
    assert KEYS == {f.name for f in dataclasses.fields(GfdConfig)}


def test_config_unknown_key_named():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'bogus'"):
        parse_run_config("iterations = 5\nbogus = 1\n")


@pytest.mark.parametrize("line, msg", [
    ("gf_w = 4", "window side must be an odd positive integer, got 4"),
    ("gf_eps = 0", "eps must be finite and positive, got 0.0"),
    ("gf_eps = inf", "eps must be finite and positive, got inf"),
    ("tau = nan", "tau must be a number, got nan"),
    ("sigma = -1", "sigma must be finite and nonnegative, got -1.0"),
    ("sigma = nan", "sigma must be finite and nonnegative, got nan"),
    ("iterations = 0", "iterations must be >= 1, got 0"),
])
def test_config_refused_value_named_with_line(tmp_path, capsys, line, msg):
    # GfdConfig checks each value, and the file reports the check with its line.
    key, value = (part.strip() for part in line.split("="))
    text = f"# run settings\n{line}\n"
    expected = f"line 2: bad value for {key!r}: {value!r} ({msg})"
    with pytest.raises(ConfigError) as info:
        parse_run_config(text)
    assert str(info.value) == expected
    src, conf, out = tmp_path / "g.pgm", tmp_path / "run.conf", tmp_path / "o.pgm"
    write_image(src, rand_int_image(5, (16, 16)))
    conf.write_text(text, encoding="utf-8")
    rc = main([
        "deblur", "--in", str(src), "--psf", "boxcar:1", "--out", str(out),
        "--config", str(conf),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"gfdeblur: {expected}\n"
    assert not out.exists()


def test_config_line_without_equals_named():
    with pytest.raises(ConfigError, match=r"line 2: expected 'key = value', got 'tau 0.6'"):
        parse_run_config("iterations = 5\ntau 0.6\n")


def test_config_malformed_value_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_run_config("iterations = 5\ntau = 0.6\ngf_eps = banana\n")


def test_config_parses_values_and_paths():
    settings = parse_run_config(
        "iterations = 12\nsigma = 2.5  # known noise\ngf_w = 7\n"
    )
    assert settings == {"iterations": 12, "sigma": 2.5, "gf_w": 7}


def test_deblur_estimate_sigma_overrides_config_sigma(tmp_path):
    # --estimate-sigma drops the config file's sigma: the output is the
    # run that gives sigma nowhere, byte for byte; without the flag the
    # file's sigma is used and the output differs.
    src, conf = tmp_path / "g.pgm", tmp_path / "run.conf"
    write_image(src, circ_convolve(natural_image(3, 32), parse_psf_spec("boxcar:3")))
    conf.write_text("sigma = 50\n", encoding="utf-8")
    deblur = ["deblur", "--in", str(src), "--psf", "boxcar:3", "--iters", "3"]
    runs = {
        "flag": ["--config", str(conf), "--estimate-sigma"],
        "nowhere": [],
        "file": ["--config", str(conf)],
    }
    for name, flags in runs.items():
        assert main(deblur + flags + ["--out", str(tmp_path / f"{name}.pgm")]) == 0
    out = {name: (tmp_path / f"{name}.pgm").read_bytes() for name in runs}
    assert out["flag"] == out["nowhere"]
    assert out["file"] != out["nowhere"]


def test_deblur_with_config_file(tmp_path):
    img = rand_int_image(4, (24, 24))
    src = tmp_path / "g.pgm"
    out = tmp_path / "v.pgm"
    write_image(src, img)
    conf = tmp_path / "run.conf"
    conf.write_text("iterations = 1\nsigma = 0\n", encoding="utf-8")
    rc = main([
        "deblur", "--in", str(src), "--psf", "boxcar:1", "--out", str(out),
        "--config", str(conf),
    ])
    assert rc == 0
    np.testing.assert_array_equal(read_image(out), img)

    # Flags override the file; settings neither gives keep their defaults.
    write_image(src, natural_image(4, 32))
    deblur = ["deblur", "--in", str(src), "--psf", "boxcar:3", "--out", str(out)]
    trace = tmp_path / "trace.csv"
    for text in ("sigma = 0.555\n", "sigma = 0.555\niterations = 5\n"):
        conf.write_text(text, encoding="utf-8")
        assert main(deblur + ["--config", str(conf), "--iters", "3", "--trace", str(trace)]) == 0
        assert len(trace.read_text().splitlines()) == 1 + 3
    # A window alone keeps the derived eps, so --gf-w 5 (the default) is a no-op.
    outputs = []
    for extra in ([], ["--gf-w", "5"]):
        assert main(deblur + ["--sigma", "5", "--iters", "2"] + extra) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
