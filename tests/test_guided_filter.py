import tracemalloc

import numpy as np
import pytest

import gfdeblur.guided_filter as guided_filter
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdeblur.errors import DimensionMismatch, WindowTooLarge
from gfdeblur.guided_filter import STRIP_BYTES, GfParams, guidfilter, smooth_gradients
from gfdeblur.spectral import diff_x, diff_y

from conftest import guidfilter_bruteforce, guidfilter_unfused, rand_image, rand_int_image


def test_params_reject_nonpositive_eps():
    with pytest.raises(ValueError):
        GfParams(win=5, eps=0.0)
    with pytest.raises(ValueError):
        GfParams(win=5, eps=-1.0)


def test_params_reject_even_window():
    with pytest.raises(ValueError):
        GfParams(win=4, eps=0.1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        guidfilter(np.zeros((4, 4)), np.zeros((4, 5)), GfParams(3, 0.1))


def test_window_too_large():
    for shape in ((4, 4), (8, 4), (4, 8)):
        with pytest.raises(WindowTooLarge):
            guidfilter(np.zeros(shape), np.zeros(shape), GfParams(5, 0.1))


def test_matches_unfused_reference_bit_exact():
    # Strips, halos and mirrored a, b rows add every pixel's terms in the
    # order whole-image passes do.  (200, 700) and (600, 900) run in
    # several strips of unequal height, so strip edges fall mid-image and
    # take real neighbouring rows.  A (5, 70000) padded row is wider than
    # STRIP_BYTES, so every strip is one row and each strip's halo
    # reaches the mirror rows at both the top and the bottom.  (131, 96)
    # is one strip.
    assert 70000 * 8 > STRIP_BYTES and 200 * 700 * 8 > 2 * STRIP_BYTES
    for k, shape in enumerate(((200, 700), (600, 900), (5, 70000), (131, 96))):
        guide = rand_image(20 + k, shape)
        src = rand_image(30 + k, shape)
        for w in (1, 3, 5, 7, 9):
            if w > min(shape):
                continue
            p = GfParams(w, 40.0)
            np.testing.assert_array_equal(
                guidfilter(guide, src, p), guidfilter_unfused(guide, src, p), err_msg=f"{shape} {w}"
            )
            np.testing.assert_array_equal(
                guidfilter(guide, guide, p), guidfilter_unfused(guide, guide, p),
                err_msg=f"{shape} {w} self-guided",
            )


def test_peak_memory_near_output():
    # Strips keep every temporary small: the output is the only
    # image-sized array (whole-image passes peak near 7x).
    guide = rand_image(8, (1024, 1024))
    src = rand_image(9, (1024, 1024))
    tracemalloc.start()
    try:
        out = guidfilter(guide, src, GfParams(5, 0.04))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, peak / out.nbytes


def test_self_guidance_identity_limit():
    # eps -> 0+ with non-constant windows: a -> 1, b -> 0, output -> input.
    x = rand_image(10)
    out = guidfilter(x, x, GfParams(5, 1e-10))
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_constant_input_fixed_point():
    guide = rand_int_image(11)
    c = 7.0
    out = guidfilter(guide, np.full_like(guide, c), GfParams(5, 0.04))
    np.testing.assert_allclose(out, c, atol=1e-12 * (1 + c))


def test_matches_bruteforce_oracle():
    guide = rand_image(12)
    src = rand_image(13)
    out = guidfilter(guide, src, GfParams(5, 0.04))
    ref = guidfilter_bruteforce(guide, src, 5, 0.04)
    np.testing.assert_allclose(out, ref, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(-50, 50, allow_nan=False))
def test_shift_invariance(seed, c):
    guide = rand_image(seed)
    src = rand_image(seed + 1)
    p = GfParams(5, 0.04)
    np.testing.assert_allclose(
        guidfilter(guide, src + c, p), guidfilter(guide, src, p) + c, atol=1e-9
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(-4, 4, allow_nan=False))
def test_scale_equivariance(seed, alpha):
    guide = rand_image(seed)
    src = rand_image(seed + 1)
    p = GfParams(5, 0.04)
    lhs = guidfilter(guide, alpha * src, p)
    rhs = alpha * guidfilter(guide, src, p)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_smooth_gradients_constant():
    v = np.full((12, 12), 42.0)
    gx, gy = smooth_gradients(v, GfParams(3, 0.1))
    np.testing.assert_allclose(gx, 0.0, atol=1e-12)
    np.testing.assert_allclose(gy, 0.0, atol=1e-12)


def test_smooth_gradients_zero_start_state():
    v = np.zeros((8, 8))
    gx, gy = smooth_gradients(v, GfParams(3, 0.1))
    assert not gx.any() and not gy.any()


def test_smooth_gradients_matches_composition():
    v = rand_image(14)
    p = GfParams(5, 0.04)
    gx, gy = smooth_gradients(v, p)
    np.testing.assert_allclose(
        gx, guidfilter_bruteforce(diff_x(v), diff_x(v), 5, 0.04), atol=1e-8
    )
    np.testing.assert_allclose(
        gy, guidfilter_bruteforce(diff_y(v), diff_y(v), 5, 0.04), atol=1e-8
    )


def test_self_guided_reuse_is_bit_identical(monkeypatch):
    # src is guide reuses the guide's window statistics: 4 box means per
    # filter instead of 6, and the same bits as the general path.
    v = rand_image(15, (20, 17))
    p = GfParams(5, 0.04)
    calls = []
    box_mean = guided_filter.box_mean
    monkeypatch.setattr(guided_filter, "box_mean", lambda *a: calls.append(1) or box_mean(*a))
    gx, gy = smooth_gradients(v, p)
    assert len(calls) == 8
    monkeypatch.undo()
    dx, dy = diff_x(v), diff_y(v)
    np.testing.assert_array_equal(gx, guidfilter(dx, dx.copy(), p))
    np.testing.assert_array_equal(gy, guidfilter(dy, dy.copy(), p))


def test_large_near_constant_input_is_smoothed():
    # At 2048^2 the uncentred window moments E[x^2] - E[x]^2 of a
    # near-constant image cancel to negative variances, and at eps = 1e-6
    # the filter amplified the noise (output spread 2.26x the input's).
    # Centred, it also matches filtering the zero-mean image to rounding;
    # clamping the variance alone leaves a 1.6e-3 error.
    x = 128.0 + 1e-3 * np.random.default_rng(0).standard_normal((2048, 2048))
    p = GfParams(5, 1e-6)
    out = guidfilter(x, x, p)
    assert out.std() < x.std()
    y = x - 128.0
    np.testing.assert_allclose(out, guidfilter(y, y, p) + 128.0, rtol=0, atol=1e-9)
