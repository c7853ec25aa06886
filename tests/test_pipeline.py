import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfdeblur.guided_filter as guided_filter
import gfdeblur.pipeline as pipeline
import gfdeblur.spectral as spectral

from gfdeblur.bench import SCENARIOS, degrade, isnr, rho_sweep
from gfdeblur.errors import DimensionMismatch, UnreachableBound, WindowTooLarge
from gfdeblur.pipeline import GfdConfig, run_gfd
from gfdeblur.spectral import Psf, SpectralPlan, solve_input

from conftest import STAGES, natural_image, psf_spectrum, rand_image, rand_int_image, stage_peaks


def test_noiseless_identity_degradation():
    # Clean observation, delta blur, known sigma 0: output returns the input.
    g = natural_image(3, 64)
    cfg = GfdConfig(iterations=5, sigma=0.0, gf_w=5, gf_eps=1e-10)
    out, trace = run_gfd(g, Psf([[1.0]]), cfg)
    np.testing.assert_allclose(out, g, atol=1e-3)
    assert len(trace) == 5


def test_first_iteration_is_pure_tikhonov_solve():
    g = rand_image(0, (32, 32))
    psf = Psf(np.ones((3, 3)))
    cfg = GfdConfig(iterations=1, sigma=3.0)
    _, trace = run_gfd(g, psf, cfg)
    lam = trace[0].lam
    assert np.isfinite(lam)
    # With v = 0 the input solve reduces to F(h)* F(g) / (|F(h)|^2 + lam).
    H = psf_spectrum(psf, *g.shape)
    direct = np.real(np.fft.ifft2(np.conj(H) * np.fft.fft2(g) / (np.abs(H) ** 2 + lam)))
    plan, z = SpectralPlan(g, psf), np.zeros_like(g)
    via_solver = solve_input(plan, plan.spectrum(z), lam, np.empty_like(z))
    np.testing.assert_allclose(via_solver, direct, atol=1e-10)


def test_determinism():
    clean = natural_image(4, 64)
    pair = degrade(clean, SCENARIOS[3], seed=1)
    cfg = GfdConfig(iterations=4, sigma=pair.sigma)
    out1, tr1 = run_gfd(pair.observed, pair.psf, cfg)
    out2, tr2 = run_gfd(pair.observed, pair.psf, cfg)
    np.testing.assert_array_equal(out1, out2)
    assert tr1 == tr2


def test_restore_does_not_depend_on_block_height(monkeypatch):
    # Every per-frequency pass of a restore, the solves, |H|^2, the
    # discrepancy terms and each residual, works a row block at a time:
    # blocks of 1 row, of 5 rows (which do not divide 47) and of the
    # default size give the same image and records, bit for bit, on a
    # run with finite and infinite lambda.
    clean = natural_image(1, 64)[:47, :39]
    pair = degrade(clean, SCENARIOS[5], seed=0)
    cfg = GfdConfig(iterations=6, sigma=pair.sigma)
    runs = []
    for rows in (None, 1, 5):
        if rows is not None:
            monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", rows * (39 // 2 + 1))
        runs.append(run_gfd(pair.observed, pair.psf, cfg))
    (out, trace), others = runs[0], runs[1:]
    infinite = [math.isinf(rec.lam) for rec in trace]
    assert any(infinite) and not all(infinite)
    for out_b, trace_b in others:
        assert out_b.tobytes() == out.tobytes() and trace_b == trace


def test_trace_integrity():
    clean = natural_image(5, 64)
    pair = degrade(clean, SCENARIOS[2], seed=2)
    cfg = GfdConfig(iterations=6, sigma=pair.sigma)
    _, trace = run_gfd(pair.observed, pair.psf, cfg)
    npix = clean.size
    assert len(trace) == 6
    for rec in trace:
        assert rec.residual >= 0.0
        assert 0.0 < rec.rho <= 1.0
        bound = rec.rho * npix * pair.sigma**2
        if np.isfinite(rec.lam):
            assert abs(rec.residual - bound) <= 1e-3 * bound
        else:
            assert rec.residual <= bound and rec.bisect_steps == 0


def test_trace_isnr_recorded_with_reference():
    clean = natural_image(6, 64)
    pair = degrade(clean, SCENARIOS[3], seed=3)
    cfg = GfdConfig(iterations=3, sigma=pair.sigma)
    out, trace = run_gfd(pair.observed, pair.psf, cfg, reference=clean)
    assert all(rec.isnr is not None for rec in trace)
    assert trace[-1].isnr == pytest.approx(isnr(clean, pair.observed, out), abs=1e-12)


def test_output_finite():
    clean = natural_image(7, 64)
    pair = degrade(clean, SCENARIOS[4], seed=4)
    out, _ = run_gfd(pair.observed, pair.psf, GfdConfig(iterations=5))
    assert np.all(np.isfinite(out))


def test_restoration_improves_snr():
    clean = natural_image(8, 128)
    pair = degrade(clean, SCENARIOS[3], seed=5)
    out, _ = run_gfd(pair.observed, pair.psf, GfdConfig(iterations=10, sigma=pair.sigma))
    assert isnr(clean, pair.observed, out) > 1.0


def test_rho_override_respected():
    clean = natural_image(9, 64)
    pair = degrade(clean, SCENARIOS[3], seed=6)
    cfg = GfdConfig(iterations=3, sigma=pair.sigma)
    _, trace = run_gfd(pair.observed, pair.psf, cfg, rho_override=0.5)
    assert all(rec.rho == 0.5 for rec in trace)


def test_config_validation():
    with pytest.raises(ValueError):
        GfdConfig(iterations=0)
    with pytest.raises(ValueError):
        run_gfd(rand_image(0, (8, 8)), Psf([[1.0]]), GfdConfig(), rho_override=1.5)


def test_config_rejects_bad_settings():
    # Each bad setting fails where the config is built, naming the setting.
    with pytest.raises(ValueError, match="window side must be an odd positive integer, got 4"):
        GfdConfig(gf_w=4)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            GfdConfig(gf_eps=eps)
    with pytest.raises(ValueError, match="tau must be a number, got nan"):
        GfdConfig(tau=math.nan)
    for sigma in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            GfdConfig(sigma=sigma)


def test_setting_overflowing_at_observation_scale_rejected():
    # A given sigma or eps is scaled with g, so that max|g| lies in
    # [128, 256); one that overflows there is refused by name.
    psf = Psf(np.ones((3, 3)))
    for g, cfg in (
        (np.ones((16, 16)), GfdConfig(iterations=1, sigma=1.0, gf_eps=1e305)),
        (np.full((16, 16), 2.0 ** -600), GfdConfig(iterations=1, sigma=2.0 ** 500)),
    ):
        with pytest.raises(ValueError, match="sigma or gf_eps overflows"):
            run_gfd(g, psf, cfg)


def test_nonfinite_observation_rejected():
    g = natural_image(10, 32)
    g[5, 7] = np.nan
    psf = Psf(np.ones((3, 3)))
    for sigma in (2.0, None):
        with pytest.raises(ValueError, match="non-finite"):
            run_gfd(g, psf, GfdConfig(iterations=2, sigma=sigma))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(8, 24), st.integers(8, 24)),
    taps=st.tuples(st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5])),
    sigma=st.one_of(st.none(), st.floats(0.0, 20.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_gfd_property(shape, taps, sigma, seed):
    # Any small image and positive PSF restore to a finite image of g's
    # shape, identically on a second call.
    gen = np.random.default_rng(seed)
    g = gen.uniform(0.0, 255.0, shape)
    psf = Psf(gen.uniform(0.1, 1.0, taps))
    cfg = GfdConfig(iterations=3, sigma=sigma)
    out, trace = run_gfd(g, psf, cfg)
    assert out.shape == g.shape and np.all(np.isfinite(out))
    out2, trace2 = run_gfd(g, psf, cfg)
    np.testing.assert_array_equal(out2, out)
    assert trace2 == trace


def test_zero_observation_restores():
    # The one observation with no scale restores to zeros; a nonzero one
    # of any scale restores as at scale 1 (the power-of-two tests below).
    g = np.zeros((32, 32))
    out, trace = run_gfd(g, Psf(np.ones((3, 3))), GfdConfig(iterations=2))
    assert not out.any() and len(trace) == 2


def test_restore_peak_memory():
    # The plan holds two half-planes (H and F(g)), the solves work in
    # F(v)'s, v's and the divergence's buffers, the lambda search keeps
    # |H|^2 in v's, the transforms make no image-sized working copy, the
    # gradient smoothing goes from v to the divergence in one strip pass,
    # and the main filter writes over u_p.  At 512^2 the peak, in the
    # lambda search, reads 6.05 images here; 6.33 in the main filter with
    # a new output and 10 strip buffers, 7.02 with |H|^2 in the plan and
    # a half-plane per residual evaluation.  At 256^2, where the strip
    # buffers are larger against the image, it reads 7.32; 9.01 with a
    # new output and 10 strip buffers.
    for size, bound in ((512, 6.2), (256, 7.7)):
        pair = degrade(natural_image(7, size), SCENARIOS[5], seed=0)
        cfg = GfdConfig(iterations=3, sigma=pair.sigma)
        tracemalloc.start()
        try:
            _, trace = run_gfd(pair.observed, pair.psf, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(trace[0].lam)  # the solves ran
        assert peak / (size * size * 8) < bound, size


def test_stage_peak_memory():
    # Each stage's peak counts all that is live while it runs: the plan's
    # two half-planes, v, the divergence and, in the lambda search and
    # the solves, F(v) (5 images), plus the stage's own arrays.  Readings
    # here, and in brackets with |H|^2 in the plan and whole-plane
    # denominators and residuals: lambda search 6.05 (7.02), solves 5.83
    # and 5.86 (6.09 and 6.52).  The main filter, over u_p, reads 5.10;
    # 6.33 with a new output and 10 strip buffers.  The gradient
    # smoothing, over the divergence, reads 4.85.  Each bound leaves
    # about 0.15 images.
    pair = degrade(natural_image(7, 512), SCENARIOS[5], seed=0)
    peaks = stage_peaks(pair.observed, pair.psf, GfdConfig(iterations=3, sigma=pair.sigma))
    assert peaks["choose_lambda"] < 6.2
    assert peaks["solve_input"] < 6.0 and peaks["solve_guidance"] < 6.0
    assert peaks["guidfilter"] < 5.3
    assert peaks["smooth_gradients"] < 5.0
    assert peaks["run_gfd"] == max(peaks[name] for name in STAGES)


def test_psf_zeros_above_the_bound_refused():
    # A 3-tap boxcar zeroes H at k/15 = 1/3.  On a 15x15 image the
    # residual cannot fall below b's sum there, about 2.9e5 against a
    # bound of about 125.  The search spends its 60 steps above the bound
    # and is refused, where the guidance solve raised SingularDenominator.
    # At 16x16 H has no zero and the same restore runs.
    psf = Psf(np.ones((3, 3)))
    cfg = GfdConfig(iterations=2, sigma=1.0)
    with pytest.raises(UnreachableBound, match="floor .* at the 29 frequencies"):
        run_gfd(rand_int_image(5, (15, 15)), psf, cfg)
    out, trace = run_gfd(rand_int_image(5, (16, 16)), psf, cfg)
    assert np.all(np.isfinite(out)) and all(math.isfinite(t.lam) for t in trace)


FFT_NAMES = [n for n in np.fft.__all__ if n.endswith(("fft", "fft2", "fftn"))]


def _count_fft_calls(monkeypatch):
    """One entry per numpy.fft call: the input's points for a forward
    transform, 0 for an inverse one."""
    calls = []
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)
        inverse = name.startswith("i")

        def counted(a, *args, _fn=fn, _inverse=inverse, **kw):
            calls.append(0 if _inverse else np.size(a))
            return _fn(a, *args, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_window_checked_before_spectral_work(monkeypatch):
    # A guided-filter window wider than the image fails before the plan
    # and the first solves are paid for.
    g = rand_image(11, (4, 32))
    calls = _count_fft_calls(monkeypatch)
    for sigma in (2.0, None):
        with pytest.raises(WindowTooLarge):
            run_gfd(g, Psf(np.ones((3, 3))), GfdConfig(iterations=2, sigma=sigma))
    assert calls == []


def test_mismatched_reference_rejected(monkeypatch):
    # A reference that would broadcast against g fails before any spectral work.
    clean = natural_image(10, 32)
    calls = _count_fft_calls(monkeypatch)
    for ref in (clean[:1], clean[:, :31]):
        with pytest.raises(DimensionMismatch, match="reference"):
            run_gfd(clean, Psf([[1.0]]), GfdConfig(iterations=2, sigma=1.0), reference=ref)
    assert calls == []


def test_fft_calls_per_iteration(monkeypatch):
    # The plan costs 2 forward transforms per restore; an iteration costs
    # F(v) plus, for finite lambda, the input solve's inverse and the
    # guidance solve's forward transform of one image and its inverse.
    # Each inverse is two calls, ifft over the columns and irfft over the
    # rows.
    # Scenario 5 at 32x32 mixes finite and infinite lambda within 6 iterations.
    clean = natural_image(1, 32)
    npix = clean.size
    pair = degrade(clean, SCENARIOS[5], seed=0)
    calls = _count_fft_calls(monkeypatch)
    per_iter = []
    smooth = pipeline.smooth_gradients
    monkeypatch.setattr(
        pipeline, "smooth_gradients",
        lambda *a: per_iter.append((len(calls), sum(calls))) or smooth(*a),
    )
    _, trace = run_gfd(pair.observed, pair.psf, GfdConfig(iterations=6, sigma=pair.sigma))
    infinite = [math.isinf(rec.lam) for rec in trace]
    assert any(infinite) and not all(infinite)
    # (calls, forward-transform input points) per iteration
    expected = [[1, npix] if inf else [6, 2 * npix] for inf in infinite]
    expected[0][0] += 2
    expected[0][1] += 2 * npix
    assert np.diff([(0, 0)] + per_iter, axis=0).tolist() == expected


def test_library_uses_only_the_half_plane_pair(monkeypatch):
    # Restoring, degrading and sweeping rho take only rfft2 and its
    # inverse in two steps: ifft over axis 0, then irfft over axis 1.
    def refuse(*a, **kw):
        raise AssertionError("a numpy.fft transform other than rfft2, ifft or irfft was called")

    def on_axis(name, axis):
        fn = getattr(np.fft, name)

        def checked(*a, **kw):
            assert kw.get("axis") == axis, f"{name} called off axis {axis}"
            return fn(*a, **kw)

        return checked

    allowed = {"rfft2": np.fft.rfft2, "ifft": on_axis("ifft", 0), "irfft": on_axis("irfft", 1)}
    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, allowed.get(name, refuse))
    clean = natural_image(2, 32)
    pair = degrade(clean, SCENARIOS[3], seed=0)
    run_gfd(pair.observed, pair.psf, GfdConfig(iterations=2))
    rows = rho_sweep(clean, pair.psf, [30.0], [0.5], cfg=GfdConfig(iterations=2))
    assert len(rows) == 2


def test_box_mean_calls_per_iteration(monkeypatch):
    # The main filter takes 6 box means (4 when lambda = inf makes it
    # self-guided) and each self-guided gradient filter 4.
    pair = degrade(natural_image(1, 32), SCENARIOS[5], seed=0)
    calls = []
    box_mean = guided_filter.box_mean
    monkeypatch.setattr(guided_filter, "box_mean", lambda *a: calls.append(1) or box_mean(*a))
    per_iter = []
    smooth = pipeline.smooth_gradients

    def counted_smooth(*a):
        out = smooth(*a)
        per_iter.append(len(calls))
        return out

    monkeypatch.setattr(pipeline, "smooth_gradients", counted_smooth)
    _, trace = run_gfd(pair.observed, pair.psf, GfdConfig(iterations=6, sigma=pair.sigma))
    infinite = [math.isinf(rec.lam) for rec in trace]
    assert any(infinite) and not all(infinite)
    assert np.diff([0] + per_iter).tolist() == [12 if inf else 14 for inf in infinite]


# Metamorphic properties over blur x noise-source cells at 64^2, 8 iterations.
METAMORPHIC_CELLS = [(scenario, known) for scenario in (3, 5) for known in (True, False)]


def _metamorphic_pair(scenario):
    return degrade(natural_image(12, 64), SCENARIOS[scenario], seed=9)


# Scales 2^k; a case's id names its cell, and its k when k is not 1.  A
# known sigma past about 2^510 is refused, since its eps (2 sigma)^2
# overflows, so 2^600 runs with estimated sigma only.
SCALE_CASES = [
    pytest.param(scenario, known, k, id=f"{scenario}-{known}" + (f"-2^{k}" if k != 1 else ""))
    for scenario, known in METAMORPHIC_CELLS
    for k in (-4, -1, 1, 4, 8, 200, -7, -200, -600) + (() if known else (600,))
]


@pytest.mark.parametrize("scenario,known,k", SCALE_CASES)
def test_power_of_two_scaling_is_bit_exact(scenario, known, k):
    # run_gfd restores every observation at one scale, max|g| in
    # [128, 256), so a 2^k observation gives 2^k times the output and
    # the very same records.
    pair = _metamorphic_pair(scenario)
    scale = math.ldexp(1.0, k)

    def restore(scale):
        sigma = scale * pair.sigma if known else None
        return run_gfd(scale * pair.observed, pair.psf, GfdConfig(iterations=8, sigma=sigma))

    out, trace = restore(1.0)
    out2, trace2 = restore(scale)
    np.testing.assert_array_equal(out2, scale * out)
    assert trace2 == trace


@pytest.mark.parametrize("scenario", [3, 5])
def test_subnormal_observation_restores(scenario):
    # At 2^-1040 every pixel is subnormal and has lost bits, so the
    # restore is not bit-exact, but it scores as the scale-1 restore does.
    clean = natural_image(12, 64)
    pair = _metamorphic_pair(scenario)

    def final_isnr(scale):
        cfg = GfdConfig(iterations=8)
        return run_gfd(scale * pair.observed, pair.psf, cfg, reference=scale * clean)[1][-1].isnr

    assert final_isnr(2.0 ** -1040) == pytest.approx(final_isnr(1.0), abs=1e-9)


@pytest.mark.parametrize("known", [True, False])
def test_unit_interval_observation_restores_as_8bit(known):
    # The 8-bit observation over 255 (a known sigma alike) restores to the
    # 8-bit ISNR, though 1/255 is not a power of two.
    clean = natural_image(7, 256)
    pair = degrade(clean, SCENARIOS[3], seed=0)

    def score(scale):
        cfg = GfdConfig(sigma=pair.sigma / scale if known else None)
        out, _ = run_gfd(pair.observed / scale, pair.psf, cfg)
        return isnr(clean / scale, pair.observed / scale, out)

    assert score(255.0) == pytest.approx(score(1.0), abs=1e-6)


@pytest.mark.parametrize("scenario,known", METAMORPHIC_CELLS)
def test_transpose_commutes(scenario, known):
    pair = _metamorphic_pair(scenario)
    cfg = GfdConfig(iterations=8, sigma=pair.sigma if known else None)
    out, _ = run_gfd(pair.observed, pair.psf, cfg)
    out_t, _ = run_gfd(pair.observed.T, Psf(pair.psf.taps.T), cfg)
    np.testing.assert_allclose(out_t, out.T, rtol=0, atol=1e-10)
