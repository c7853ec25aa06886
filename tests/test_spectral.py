import numpy as np
import pytest

from gfdeblur.errors import DimensionMismatch, KernelTooLarge, SingularDenominator
from gfdeblur.spectral import (
    INFINITY,
    Psf,
    SpectralPlan,
    circ_convolve,
    diff_x,
    diff_y,
    discrepancy_from_terms,
    discrepancy_terms,
    solve_guidance,
    solve_input,
)

from conftest import (
    derivative_spectra,
    discrepancy,
    plan_discrepancy,
    psf_spectrum,
    rand_image,
)


def random_psf(seed: int, size: int = 5) -> Psf:
    gen = np.random.default_rng(seed)
    return Psf.from_taps(gen.uniform(0.1, 1.0, (size, size)))


def spatial_circ_convolve(img: np.ndarray, psf: Psf) -> np.ndarray:
    """Wrapped double-loop convolution oracle."""
    h, w = img.shape
    kh, kw = psf.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ky in range(kh):
                for kx in range(kw):
                    acc += psf.taps[ky, kx] * img[(y - (ky - cy)) % h, (x - (kx - cx)) % w]
            out[y, x] = acc
    return out


# ----------------------------------------------------------------- Psf


def test_psf_rejects_even_dims():
    with pytest.raises(ValueError):
        Psf.from_taps(np.ones((2, 3)))


def test_psf_rejects_unnormalized_direct_construction():
    with pytest.raises(ValueError):
        Psf(np.ones((3, 3)))


def test_psf_rejects_zero_sum():
    with pytest.raises(ValueError):
        Psf.from_taps(np.array([[1.0, 0.0, -1.0]]))


# -------------------------------------------------------------- plan.H


def test_delta_spectrum_is_all_ones():
    spec = SpectralPlan(np.zeros((8, 8)), Psf.delta()).H
    np.testing.assert_allclose(spec, 1.0, atol=1e-14)


def test_dc_gain_is_one():
    spec = SpectralPlan(np.zeros((16, 16)), random_psf(0)).H
    assert abs(spec[0, 0] - 1.0) <= 1e-12


def test_embedding_matches_explicit_wrap():
    psf = Psf.from_taps(np.ones((3, 3)))
    canvas = np.zeros((8, 8))
    for ky in range(3):
        for kx in range(3):
            canvas[(ky - 1) % 8, (kx - 1) % 8] = psf.taps[ky, kx]
    spec = SpectralPlan(np.zeros((8, 8)), psf).H
    np.testing.assert_allclose(spec, np.fft.rfft2(canvas), atol=1e-13)


def test_kernel_too_large():
    with pytest.raises(KernelTooLarge):
        circ_convolve(np.zeros((4, 4)), random_psf(1, 5))


# ------------------------------------------------------- circ_convolve


def test_convolve_delta_identity():
    img = rand_image(2)
    np.testing.assert_allclose(circ_convolve(img, Psf.delta()), img, atol=1e-12)


def test_convolve_preserves_constant():
    img = np.full((8, 8), 17.0)
    np.testing.assert_allclose(circ_convolve(img, random_psf(3)), 17.0, atol=1e-10)


def test_convolve_matches_spatial_oracle():
    # An odd width needs irfft2 to be told the image shape.
    psf = random_psf(5)
    for shape in ((16, 16), (12, 9), (9, 12)):
        img = rand_image(4, shape)
        np.testing.assert_allclose(
            circ_convolve(img, psf), spatial_circ_convolve(img, psf), atol=1e-9
        )


# -------------------------------------------------- derivative_spectra


def test_derivative_dc_is_zero():
    dx, dy = derivative_spectra(8, 12)
    assert abs(dx[0, 0]) <= 1e-14 and abs(dy[0, 0]) <= 1e-14


def test_derivative_kills_constant():
    dx, _ = derivative_spectra(8, 8)
    out = np.real(np.fft.ifft2(np.fft.fft2(np.full((8, 8), 3.0)) * dx))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_derivative_spectral_equals_direct_differencing():
    img = rand_image(6, (12, 10))
    dx, dy = derivative_spectra(*img.shape)
    via_dx = np.real(np.fft.ifft2(np.fft.fft2(img) * dx))
    via_dy = np.real(np.fft.ifft2(np.fft.fft2(img) * dy))
    np.testing.assert_allclose(via_dx, diff_x(img), atol=1e-10)
    np.testing.assert_allclose(via_dy, diff_y(img), atol=1e-10)


# ------------------------------------------------------------- solves


def test_solve_guidance_inverse_filter_limit():
    g = rand_image(7)
    z = np.zeros_like(g)
    out = solve_guidance(SpectralPlan(g, Psf.delta()), z, z, 1e-12)
    np.testing.assert_allclose(out, g, atol=1e-6)


def test_solve_guidance_normal_equation_residual():
    # Odd and even widths exercise both half-plane layouts.
    for shape in ((16, 16), (12, 9), (12, 10)):
        g = rand_image(11, shape)
        vx, vy = rand_image(12, shape), rand_image(13, shape)
        psf = random_psf(15)
        lam = 0.5
        u = solve_guidance(SpectralPlan(g, psf), vx, vy, lam)
        H = psf_spectrum(psf, *g.shape)
        dx, dy = derivative_spectra(*g.shape)
        lhs = (np.abs(H) ** 2 + lam * (np.abs(dx) ** 2 + np.abs(dy) ** 2)) * np.fft.fft2(u)
        rhs = np.conj(H) * np.fft.fft2(g) + lam * (
            np.conj(dx) * np.fft.fft2(vx) + np.conj(dy) * np.fft.fft2(vy)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(np.fft.fft2(g)))


def test_solve_input_fixed_point():
    g = rand_image(16)
    plan = SpectralPlan(g, Psf.delta())
    out = solve_input(plan, plan.spectrum(g), 1.0)
    np.testing.assert_allclose(out, g, atol=1e-10)


def test_solve_input_normal_equation_residual():
    for shape in ((16, 16), (12, 9), (12, 10)):
        g, v = rand_image(20, shape), rand_image(21, shape)
        psf = random_psf(22)
        lam = 2.0
        plan = SpectralPlan(g, psf)
        u = solve_input(plan, plan.spectrum(v), lam)
        H = psf_spectrum(psf, *g.shape)
        lhs = (np.abs(H) ** 2 + lam) * np.fft.fft2(u)
        rhs = np.conj(H) * np.fft.fft2(g) + lam * np.fft.fft2(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(np.fft.fft2(g)))


def test_solve_rejects_nonpositive_lambda():
    g = rand_image(23)
    z = np.zeros_like(g)
    plan = SpectralPlan(g, Psf.delta())
    for lam in (0.0, -1.0, INFINITY):
        with pytest.raises(ValueError):
            solve_input(plan, plan.spectrum(z), lam)
        with pytest.raises(ValueError):
            solve_guidance(plan, z, z, lam)


def test_plan_rejects_mismatched_shapes():
    g = rand_image(38)
    plan = SpectralPlan(g, Psf.delta())
    z, small = np.zeros_like(g), np.zeros((16, 15))
    with pytest.raises(DimensionMismatch):
        plan.spectrum(small)
    with pytest.raises(DimensionMismatch):
        solve_input(plan, np.fft.fft2(z), 1.0)
    with pytest.raises(DimensionMismatch):
        solve_guidance(plan, z, small, 1.0)
    with pytest.raises(DimensionMismatch):
        discrepancy_terms(plan, np.fft.rfft2(small))
    with pytest.raises(KernelTooLarge):
        SpectralPlan(np.zeros((4, 4)), random_psf(1, 5))


# -------------------------------------------------------- discrepancy


def test_discrepancy_zero_lambda():
    assert plan_discrepancy(rand_image(24), random_psf(25), rand_image(26))(0.0) == 0.0


def test_discrepancy_closed_form_flat_spectrum():
    g = rand_image(27)
    z = np.zeros_like(g)
    g_sq = float(np.sum(g * g))
    curve = plan_discrepancy(g, Psf.delta(), z)
    for lam in (0.5, 1.0, 4.0):
        expected = (lam / (1.0 + lam)) ** 2 * g_sq
        assert curve(lam) == pytest.approx(expected, rel=1e-10)


def test_discrepancy_equals_spatial_recomputation():
    # The half-plane plan path and the full-plane reference both equal the
    # spatial residual; odd and even widths exercise both Parseval weightings.
    for shape in ((16, 16), (12, 9), (12, 10)):
        g, v = rand_image(28, shape), rand_image(29, shape)
        psf = random_psf(30)
        plan = SpectralPlan(g, psf)
        v_hat = plan.spectrum(v)
        for lam in (0.1, 1.0, 10.0):
            u_p = solve_input(plan, v_hat, lam)
            spatial = float(np.sum((circ_convolve(u_p, psf) - g) ** 2))
            assert discrepancy(g, psf, v, lam) == pytest.approx(spatial, rel=1e-7)
            planned = discrepancy_from_terms(*discrepancy_terms(plan, v_hat), lam)
            assert planned == pytest.approx(spatial, rel=1e-7)


def test_discrepancy_monotone_in_lambda():
    g, v = rand_image(31), rand_image(32)
    psf = random_psf(33)
    lams = np.geomspace(1e-3, 1e6, 30)
    curve = plan_discrepancy(g, psf, v)
    vals = [curve(lam) for lam in lams]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-12


def test_discrepancy_parseval_upper_bound():
    g, v = rand_image(34), rand_image(35)
    psf = random_psf(36)
    bound = float(np.sum((circ_convolve(v, psf) - g) ** 2))
    curve = plan_discrepancy(g, psf, v)
    for lam in (0.0, 0.5, 3.0, 1e4, 1e9):
        assert curve(lam) <= bound * (1 + 1e-7)


def test_fft_round_trip():
    img = rand_image(37, (24, 18))
    np.testing.assert_allclose(np.real(np.fft.ifft2(np.fft.fft2(img))), img, atol=1e-10)
