import csv

import numpy as np
import pytest

import gfdeblur.bench as bench
from gfdeblur.bench import (
    PRNG_ID,
    REFERENCE_BSNR,
    REFERENCE_ISNR,
    SCENARIOS,
    Scenario,
    bsnr,
    degrade,
    gaussian_field,
    isnr,
    parse_psf_spec,
    rho_sweep,
    run_scenarios,
    sigma_sq_for_bsnr,
    write_rho_sweep_csv,
    write_scenarios_csv,
    write_trace_csv,
)
from gfdeblur.errors import DegenerateInput, DimensionMismatch
from gfdeblur.pipeline import GfdConfig, run_gfd
from gfdeblur.spectral import circ_convolve

from conftest import natural_image, rand_image, traced_peak


# ------------------------------------------------------ parse_psf_spec


def test_scenario4_kernel_is_already_normalized():
    from gfdeblur.bench import binomial5_kernel

    assert binomial5_kernel().sum() == pytest.approx(1.0, abs=1e-15)
    psf = parse_psf_spec(SCENARIOS[4].psf_spec)
    np.testing.assert_allclose(psf.taps, binomial5_kernel(), atol=1e-15)


def test_scenario1_kernel_symmetry():
    taps = parse_psf_spec(SCENARIOS[1].psf_spec).taps
    assert taps.shape == (15, 15)
    np.testing.assert_array_equal(taps, taps[::-1, ::-1])
    np.testing.assert_array_equal(taps, taps.T)


def test_scenario5_gaussian_matches_direct_formula():
    taps = parse_psf_spec(SCENARIOS[5].psf_spec).taps
    assert taps.shape == (25, 25)
    i = np.arange(-12, 13)
    direct = np.exp(-(i[:, None] ** 2 + i[None, :] ** 2) / (2 * 1.6**2))
    direct /= direct.sum()
    np.testing.assert_allclose(taps, direct, atol=1e-12)


def test_scenario3_variance_stored_value():
    assert SCENARIOS[3].sigma_sq == 0.308


# ------------------------------------------------------------- degrade


def test_degrade_noiseless_delta():
    clean = rand_image(0, (32, 32))
    scn = Scenario(1, "boxcar:1", 0.0)  # 1x1 boxcar is the identity
    pair = degrade(clean, scn, seed=0)
    np.testing.assert_allclose(pair.observed, clean, atol=1e-10)


def test_degrade_deterministic_per_seed():
    clean = rand_image(1, (32, 32))
    a = degrade(clean, SCENARIOS[2], seed=9)
    b = degrade(clean, SCENARIOS[2], seed=9)
    np.testing.assert_array_equal(a.observed, b.observed)
    c = degrade(clean, SCENARIOS[2], seed=10)
    assert not np.array_equal(a.observed, c.observed)


def test_degrade_noise_statistics():
    clean = natural_image(2, 256)
    scn = SCENARIOS[4]  # sigma^2 = 49
    blurred = circ_convolve(clean, parse_psf_spec(scn.psf_spec))
    noise = degrade(clean, scn, seed=3).observed - blurred
    assert np.var(noise) == pytest.approx(scn.sigma_sq, rel=0.03)
    assert abs(noise.mean()) <= 0.05 * scn.sigma


def test_gaussian_field_reproducible():
    np.testing.assert_array_equal(
        gaussian_field((16, 16), 2.0, 5), gaussian_field((16, 16), 2.0, 5)
    )
    assert PRNG_ID == "pcg64:box-muller"


# ------------------------------------------------------------- metrics


def test_bsnr_log_of_100():
    g = rand_image(4, (64, 64))
    from gfdeblur.image_core import centered_sq_norm

    sigma_sq = centered_sq_norm(g) / (100.0 * g.size)
    assert bsnr(g, sigma_sq) == pytest.approx(20.0, abs=1e-9)


def test_bsnr_degenerate():
    with pytest.raises(DegenerateInput):
        bsnr(np.full((8, 8), 3.0), 1.0)


def test_isnr_restored_equals_observed():
    clean, obs = rand_image(5), rand_image(6)
    assert isnr(clean, obs, obs) == pytest.approx(0.0, abs=1e-12)


def test_isnr_tenth_error_norm():
    clean = rand_image(7)
    err = rand_image(8) - 127.5
    observed = clean + err
    restored = clean + err / 10.0  # error norm exactly 1/10 of observed's
    assert isnr(clean, observed, restored) == pytest.approx(20.0, abs=1e-9)


def test_isnr_shift_invariance():
    clean, obs, rest = rand_image(9), rand_image(10), rand_image(11)
    assert isnr(clean + 5, obs + 5, rest + 5) == isnr(clean, obs, rest)


def test_isnr_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        isnr(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 5)))


# ----------------------------------------------------------- rho_sweep


def test_rho_sweep_single_grid_value_two_rows():
    clean = natural_image(10, 48)
    psf = parse_psf_spec(SCENARIOS[3].psf_spec)
    rows = rho_sweep(clean, psf, [30.0], [0.5], cfg=GfdConfig(iterations=2), seed=0)
    assert len(rows) == 2
    assert [r["adaptive_flag"] for r in rows] == [0, 1]


def test_rho_sweep_rejects_bad_grid():
    clean = natural_image(11, 48)
    with pytest.raises(ValueError):
        rho_sweep(clean, parse_psf_spec(SCENARIOS[3].psf_spec), [30.0], [0.0])


def test_rho_sweep_rejects_nonfinite_level():
    # Refused before any restore, with the level named, not blamed on
    # the noisy image it would produce: a level whose noise variance
    # overflows or underflows is refused as a non-finite one is.
    clean = natural_image(11, 48)
    psf = parse_psf_spec(SCENARIOS[3].psf_spec)
    for level in (float("nan"), float("inf"), -float("inf"), 4000.0, -4000.0):
        with pytest.raises(ValueError, match=f"BSNR {level!r} dB gives noise variance"):
            rho_sweep(clean, psf, [30.0, level], [0.5])


def _no_restore(*args, **kwargs):
    raise AssertionError("restored before the config was checked")


def test_rho_sweep_refuses_a_given_sigma(monkeypatch):
    # Each BSNR level sets its own sigma, so a cfg.sigma would be replaced
    # unread; it is refused before any restore.
    monkeypatch.setattr(bench, "run_gfd", _no_restore)
    psf = parse_psf_spec(SCENARIOS[3].psf_spec)
    with pytest.raises(ValueError, match="cfg.sigma must be None: sigma is set per BSNR level"):
        rho_sweep(natural_image(10, 48), psf, [30.0], [0.5], cfg=GfdConfig(sigma=123.0))


def test_rho_sweep_holds_one_restore_at_a_time():
    # Each restore is dropped once scored, so a sweep over two forced rho
    # values peaks as its adaptive restore alone does: 17.57 against 17.52
    # images at 64^2, and 18.60 when a restore outlived its score.
    clean = natural_image(10, 64)
    psf = parse_psf_spec("boxcar:9")
    cfg = GfdConfig(iterations=2)
    rho_sweep(clean, psf, [30.0], [], cfg=cfg)  # first-call allocations, untraced

    def peak(grid):
        return traced_peak(rho_sweep, clean, psf, [30.0], grid, cfg=cfg) / clean.nbytes

    assert peak([0.5, 1.0]) <= peak([]) + 0.3


def test_sigma_sq_for_bsnr_inverts():
    blurred = natural_image(12, 64)
    s2 = sigma_sq_for_bsnr(blurred, 25.0)
    assert bsnr(blurred, s2) == pytest.approx(25.0, abs=1e-9)


# ------------------------------------------------------- run_scenarios


def test_run_scenarios_empty():
    assert run_scenarios([], [], known_sigma=True) == []


@pytest.mark.parametrize("known_sigma", [True, False])
def test_run_scenarios_refuses_a_given_sigma(monkeypatch, known_sigma):
    # Each cell's sigma is the scenario's or estimated, so a cfg.sigma
    # would be replaced unread; it is refused before any restore.
    monkeypatch.setattr(bench, "run_gfd", _no_restore)
    with pytest.raises(ValueError, match="cfg.sigma must be None: sigma is set per cell"):
        run_scenarios([("toy", natural_image(13, 48))], [SCENARIOS[3]],
                      cfg=GfdConfig(iterations=2, sigma=123.0), known_sigma=known_sigma)


def test_run_scenarios_row_content():
    clean = natural_image(13, 64)
    rows = run_scenarios(
        [("cameraman", clean)], [SCENARIOS[3]], cfg=GfdConfig(iterations=2), seed=0,
        known_sigma=True,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["ref_gfd_db"] == 9.73
    assert row["secs_per_iter"] > 0
    assert row["delta_db"] == pytest.approx(row["isnr_db"] - 9.73)


# ----------------------------------------------------- reference table


def test_reference_values_verbatim():
    assert REFERENCE_ISNR[("cameraman", 3, "gfd")] == 9.73
    assert REFERENCE_ISNR[("cameraman", 3, "bm3ddeb")] == 8.34
    assert REFERENCE_ISNR[("cameraman", 3, "ape_admm")] == 8.56
    assert REFERENCE_ISNR[("lena", 1, "gfd")] == 8.12
    assert REFERENCE_ISNR[("lena", 1, "ape_admm")] == 6.36
    assert REFERENCE_BSNR[("cameraman", 3)] == 40.00
    assert REFERENCE_BSNR[("house", 4)] == 15.99


# ------------------------------------------------------------ CSV emit


def test_csv_schemas(tmp_path):
    clean = natural_image(14, 48)
    psf = parse_psf_spec(SCENARIOS[3].psf_spec)
    rows = rho_sweep(clean, psf, [30.0], [1.0], cfg=GfdConfig(iterations=2), seed=0)
    p1 = tmp_path / "rho_sweep.csv"
    write_rho_sweep_csv(p1, rows)
    header = p1.read_text().splitlines()[0]
    assert header == "image,bsnr_db,rho,adaptive_flag,isnr_db"

    srows = run_scenarios(
        [("img", clean)], [SCENARIOS[3]], cfg=GfdConfig(iterations=2), known_sigma=False
    )
    p2 = tmp_path / "scenarios.csv"
    write_scenarios_csv(p2, srows)
    assert p2.read_text().splitlines()[0] == (
        "image,scenario,bsnr_db,isnr_db,ref_gfd_db,delta_db,secs_per_iter"
    )

    pair = degrade(clean, SCENARIOS[3], seed=0)
    _, trace = run_gfd(pair.observed, pair.psf, GfdConfig(iterations=2, sigma=pair.sigma))
    p3 = tmp_path / "trace_run.csv"
    write_trace_csv(p3, trace)
    lines = p3.read_text().splitlines()
    assert lines[0] == "k,lambda,rho,residual,bisect_steps,isnr_db"
    assert len(lines) == 3
    assert [line.split(",")[4] for line in lines[1:]] == [str(rec.bisect_steps) for rec in trace]


def test_scenarios_csv_quotes_and_encodes_image_names(tmp_path):
    # A name with a comma is quoted and one outside ASCII written as
    # UTF-8, so every column reads back under its own header.
    row = {"scenario": 3, "bsnr_db": 40.0, "isnr_db": 9.5, "ref_gfd_db": "",
           "delta_db": "", "secs_per_iter": 0.01}
    path = tmp_path / "scenarios.csv"
    write_scenarios_csv(path, [dict(row, image=name) for name in ("a,b", "café")])
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.DictReader(fh))
    assert [r["image"] for r in back] == ["a,b", "café"]
    assert all(r["scenario"] == "3" and None not in r for r in back)


def test_csv_prints_infinity_as_inf(tmp_path):
    g = rand_image(15)
    from gfdeblur.spectral import Psf

    _, trace = run_gfd(g, Psf([[1.0]]), GfdConfig(iterations=2, sigma=200.0))
    # Huge sigma makes the bound enormous: lambda = INFINITY immediately.
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    body = path.read_text()
    assert "inf" in body.split("\n")[1]
