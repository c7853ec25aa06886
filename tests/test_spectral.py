import numpy as np
import pytest

from gfdeblur import spectral
from gfdeblur.errors import DimensionMismatch, KernelTooLarge, SingularDenominator
from gfdeblur.spectral import (
    INFINITY,
    Psf,
    SpectralPlan,
    circ_convolve,
    discrepancy_from_terms,
    discrepancy_terms,
    solve_guidance,
    solve_input,
)

from conftest import (
    derivative_spectra,
    diff_x,
    diff_y,
    discrepancy,
    divergence,
    plan_discrepancy,
    psf_spectrum,
    rand_image,
)


def random_psf(seed: int, size: int = 5) -> Psf:
    gen = np.random.default_rng(seed)
    return Psf(gen.uniform(0.1, 1.0, (size, size)))


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
        Psf(np.ones((2, 3)))


def test_psf_rejects_zero_sum():
    with pytest.raises(ValueError):
        Psf(np.array([[1.0, 0.0, -1.0]]))


@pytest.mark.parametrize("taps, msg", [
    ([1.0, 2.0, 1.0], "must be 2-D"),
    ([[1.0, np.nan, 1.0]], "must be finite"),
    ([[1.0, np.inf, 1.0]], "must be finite"),
    ([[1e308, 1e308, 1e308]], "sum to inf"),  # normalized, every tap would read 0
])
def test_psf_rejects_bad_taps(taps, msg):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=msg):
        Psf(taps)


def test_psf_normalizes_to_unit_sum():
    psf = Psf([[1.0, 2.0, 1.0]])
    np.testing.assert_array_equal(psf.taps, [[0.25, 0.5, 0.25]])


# -------------------------------------------------------------- plan.H


def test_delta_spectrum_is_all_ones():
    spec = SpectralPlan(np.zeros((8, 8)), Psf([[1.0]])).H
    np.testing.assert_allclose(spec, 1.0, atol=1e-14)


def test_dc_gain_is_one():
    spec = SpectralPlan(np.zeros((16, 16)), random_psf(0)).H
    assert abs(spec[0, 0] - 1.0) <= 1e-12


def test_embedding_matches_explicit_wrap():
    psf = Psf(np.ones((3, 3)))
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
    np.testing.assert_allclose(circ_convolve(img, Psf([[1.0]])), img, atol=1e-12)


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
    plan = SpectralPlan(g, Psf([[1.0]]))
    out = solve_guidance(plan, divergence(z, z), 1e-12, np.empty_like(plan.G))
    np.testing.assert_allclose(out, g, atol=1e-6)


def test_solve_guidance_normal_equation_residual():
    # Odd and even widths exercise both half-plane layouts.
    for shape in ((16, 16), (12, 9), (12, 10)):
        g = rand_image(11, shape)
        vx, vy = rand_image(12, shape), rand_image(13, shape)
        psf = random_psf(15)
        lam = 0.5
        plan = SpectralPlan(g, psf)
        u = solve_guidance(plan, divergence(vx, vy), lam, np.empty_like(plan.G))
        H = psf_spectrum(psf, *g.shape)
        dx, dy = derivative_spectra(*g.shape)
        lhs = (np.abs(H) ** 2 + lam * (np.abs(dx) ** 2 + np.abs(dy) ** 2)) * np.fft.fft2(u)
        rhs = np.conj(H) * np.fft.fft2(g) + lam * (
            np.conj(dx) * np.fft.fft2(vx) + np.conj(dy) * np.fft.fft2(vy)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(np.fft.fft2(g)))


def test_solve_input_fixed_point():
    g = rand_image(16)
    plan = SpectralPlan(g, Psf([[1.0]]))
    out = solve_input(plan, plan.spectrum(g), 1.0, np.empty_like(g))
    np.testing.assert_allclose(out, g, atol=1e-10)


def test_solve_input_normal_equation_residual():
    for shape in ((16, 16), (12, 9), (12, 10)):
        g, v = rand_image(20, shape), rand_image(21, shape)
        psf = random_psf(22)
        lam = 2.0
        plan = SpectralPlan(g, psf)
        u = solve_input(plan, plan.spectrum(v), lam, np.empty_like(v))
        H = psf_spectrum(psf, *g.shape)
        lhs = (np.abs(H) ** 2 + lam) * np.fft.fft2(u)
        rhs = np.conj(H) * np.fft.fft2(g) + lam * np.fft.fft2(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(np.fft.fft2(g)))


def test_solve_rejects_nonpositive_lambda():
    g = rand_image(23)
    z = np.zeros_like(g)
    plan = SpectralPlan(g, Psf([[1.0]]))
    for lam in (0.0, -1.0, INFINITY):
        with pytest.raises(ValueError):
            solve_input(plan, plan.spectrum(z), lam, np.empty_like(z))
        with pytest.raises(ValueError):
            solve_guidance(plan, divergence(z, z), lam, np.empty_like(plan.G))


def test_plan_rejects_mismatched_shapes():
    g = rand_image(38)
    plan = SpectralPlan(g, Psf([[1.0]]))
    z, small = np.zeros_like(g), np.zeros((16, 15))
    with pytest.raises(DimensionMismatch):
        plan.spectrum(small)
    with pytest.raises(DimensionMismatch):
        solve_input(plan, np.fft.fft2(z), 1.0, np.empty_like(z))
    with pytest.raises(DimensionMismatch):
        solve_guidance(plan, small, 1.0, np.empty_like(plan.G))
    with pytest.raises(DimensionMismatch):
        solve_input(plan, plan.spectrum(z), 1.0, small)
    with pytest.raises(DimensionMismatch):
        solve_guidance(plan, z, 1.0, np.fft.fft2(z))
    with pytest.raises(DimensionMismatch):
        solve_guidance(plan, z, 1.0, np.fft.rfft2(small))
    with pytest.raises(DimensionMismatch):
        discrepancy_terms(plan, np.fft.rfft2(small))
    with pytest.raises(KernelTooLarge):
        SpectralPlan(np.zeros((4, 4)), random_psf(1, 5))


@pytest.mark.parametrize("shape", [(64, 50), (63, 51)])
def test_plan_holds_two_half_planes(shape):
    # H and F(g); the solves form conj(H) F(g) and |H|^2 a row block at a
    # time, the lambda search makes |H|^2 in a buffer it is given, and
    # |Dx|^2 + |Dy|^2 is kept as its two factors, vectors like the
    # Parseval weights.
    height, width = shape
    plan = SpectralPlan(rand_image(40, shape), random_psf(41))
    arrays = [getattr(plan, name) for name in SpectralPlan.__slots__]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    half = height * (width // 2 + 1)
    assert sorted(a.dtype.kind for a in arrays if a.size == half) == ["c", "c"]
    assert all(a.size < height + width for a in arrays if a.size != half)
    assert sum(a.nbytes for a in arrays) <= 2 * 16 * half + 3 * 8 * (height + width)


@pytest.mark.parametrize("rows", [1, 5, 7, 64])
def test_solves_by_row_blocks_equal_whole_plane(rows, monkeypatch):
    # Each element gets the whole-plane expressions' operations in their
    # order, so every block height (5 rows do not divide 63 or 64) gives
    # the same bits.
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", rows * 26)
    for shape in ((63, 51), (64, 50)):  # odd and even widths, both 26 half-plane columns
        g, v = rand_image(52, shape), rand_image(53, shape)
        div = divergence(rand_image(54, shape), rand_image(55, shape))
        plan = SpectralPlan(g, random_psf(56))
        lam = 0.37
        H_sq = plan.H.real ** 2 + plan.H.imag ** 2
        conj_H_G = np.conj(plan.H) * plan.G
        expected_p = np.fft.irfft2((np.fft.rfft2(v) * lam + conj_H_G) / (H_sq + lam), s=shape)
        denom = (plan.Dy_sq + plan.Dx_sq) * lam + H_sq
        expected_i = np.fft.irfft2((np.fft.rfft2(div) * lam + conj_H_G) / denom, s=shape)
        u_p = solve_input(plan, plan.spectrum(v), lam, np.empty(shape))
        u_i = solve_guidance(plan, div, lam, np.empty_like(plan.G))
        assert np.array_equal(u_p, expected_p) and np.array_equal(u_i, expected_i)


def test_solve_guidance_singular_in_a_later_block_leaves_out_untouched(monkeypatch):
    # A 3x1 boxcar on 12 rows zeroes H on rows 4 and 8, so at a tiny lam
    # the denominator vanishes there and nowhere in the first two blocks
    # of 2 rows.  The check runs block by block, still before div is written.
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", 2 * 5)
    shape, lam = (12, 8), 1e-20
    plan = SpectralPlan(rand_image(57, shape), Psf(np.ones((3, 1))))
    denom = (plan.Dy_sq + plan.Dx_sq) * lam + (plan.H.real ** 2 + plan.H.imag ** 2)
    assert denom[:4].min() >= 1e-15 > denom[4].min()
    div, spec = rand_image(58, shape), np.empty_like(plan.G)
    before = div.copy()
    with pytest.raises(SingularDenominator):
        solve_guidance(plan, div, lam, spec)
    assert np.array_equal(div, before)
    assert solve_guidance(plan, div, 1.0, spec) is div and not np.array_equal(div, before)


def test_H_sq_by_row_blocks_into_work(monkeypatch):
    # |H|^2 is made a few rows at a time over the front of a given image's
    # buffer, which holds a half-plane, and the rest is left as it was; a
    # buffer it cannot use is refused.
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", 5 * 26)
    plan = SpectralPlan(rand_image(59, (63, 51)), random_psf(60))
    expected = plan.H.real ** 2 + plan.H.imag ** 2
    work = np.full((63, 51), np.nan)
    a = plan.H_sq(work)
    assert np.shares_memory(a, work) and np.array_equal(a, expected)
    assert np.isnan(work.ravel()[a.size :]).all()
    with pytest.raises(ValueError, match="C-contiguous"):
        plan.H_sq(np.empty((51, 63)).T)
    with pytest.raises(ValueError, match="C-contiguous"):
        plan.H_sq(np.empty((63, 51), dtype=np.float32))
    with pytest.raises(DimensionMismatch):
        plan.H_sq(np.empty((63, 50)))


@pytest.mark.parametrize("shape", [(64, 50), (63, 51)])
def test_solves_into_given_buffers_equal_fresh_outputs(shape, monkeypatch):
    # The restore loop's buffer reuse: u_p into v's buffer from F(v)'s,
    # then div transformed into F(v)'s buffer and u_i written over div,
    # gives the same bits as each solve in fresh buffers of its own.
    # Row blocks of 7 half-plane rows make the conj(H) F(g) loop take
    # several blocks, one of them short.
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", 7 * (shape[1] // 2 + 1))
    g, v = rand_image(42, shape), rand_image(43, shape)
    div = divergence(rand_image(44, shape), rand_image(45, shape))
    plan = SpectralPlan(g, random_psf(46))
    lam = 0.37
    fresh_p = solve_input(plan, plan.spectrum(v), lam, np.empty(shape))
    fresh_i = solve_guidance(plan, div.copy(), lam, np.empty_like(plan.G))
    v_hat = plan.spectrum(v)
    u_p = solve_input(plan, v_hat, lam, v)
    u_i = solve_guidance(plan, div, lam, v_hat)
    assert u_p is v and u_i is div
    assert np.array_equal(u_p, fresh_p) and np.array_equal(u_i, fresh_i)


@pytest.mark.parametrize("shape", [(64, 50), (63, 51), (1, 7), (7, 1), (5, 2)])
def test_two_step_inverse_equals_irfft2(shape):
    spec = np.fft.rfft2(rand_image(47, shape)) * (1.0 + 0.25j)
    expected = np.fft.irfft2(spec, s=shape)
    out = np.empty(shape)
    assert spectral._irfft2(spec.copy(), shape[1], out) is out
    assert np.array_equal(out, expected)
    assert np.array_equal(spectral._irfft2(spec.copy(), shape[1]), expected)


def test_spectrum_into_given_buffer_equals_rfft2():
    img = rand_image(48, (63, 51))
    plan = SpectralPlan(img, Psf([[1.0]]))
    buf = np.empty_like(plan.G)
    assert plan.spectrum(img, buf) is buf
    assert np.array_equal(buf, np.fft.rfft2(img))
    with pytest.raises(DimensionMismatch):
        plan.spectrum(img, np.empty((63, 51), dtype=complex))


# -------------------------------------------------------- discrepancy


def test_discrepancy_zero_lambda():
    assert plan_discrepancy(rand_image(24), random_psf(25), rand_image(26))(0.0) == 0.0


def test_discrepancy_closed_form_flat_spectrum():
    g = rand_image(27)
    z = np.zeros_like(g)
    g_sq = float(np.sum(g * g))
    curve = plan_discrepancy(g, Psf([[1.0]]), z)
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
            # The solve overwrites its spectrum.
            u_p = solve_input(plan, v_hat.copy(), lam, np.empty_like(v))
            spatial = float(np.sum((circ_convolve(u_p, psf) - g) ** 2))
            assert discrepancy(g, psf, v, lam) == pytest.approx(spatial, rel=1e-7)
            b = discrepancy_terms(plan, v_hat)
            planned = discrepancy_from_terms(plan.H_sq(np.empty_like(v)), b, plan.npix, lam)
            assert planned == pytest.approx(spatial, rel=1e-7)


def test_discrepancy_by_row_blocks_equals_whole_plane(monkeypatch):
    # b is formed a few rows at a time: the whole-plane expression's bits.
    # Each residual sums its rows, then the row sums, so for every block
    # height (5 rows do not divide 63) it equals that sum over the whole
    # plane, bit for bit.
    g, v = rand_image(49, (63, 51)), rand_image(50, (63, 51))
    plan = SpectralPlan(g, random_psf(51))
    v_hat = plan.spectrum(v)
    r = plan.H * v_hat - plan.G
    a, npix = plan.H.real ** 2 + plan.H.imag ** 2, plan.npix
    for rows in (1, 5, 7, 63):
        monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", rows * 26)
        b = discrepancy_terms(plan, v_hat)
        assert np.array_equal(b, (r.real ** 2 + r.imag ** 2) * plan.weights)
        for lam in (0.01, 0.8, 300.0):
            x = lam / (a + lam)
            row_sums = np.sum(x * x * b, axis=1)
            assert discrepancy_from_terms(a, b, npix, lam) == float(np.sum(row_sums) / npix)


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
