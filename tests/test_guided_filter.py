import tracemalloc

import numpy as np
import pytest

import gfdeblur.guided_filter as guided_filter
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdeblur.errors import DimensionMismatch, WindowTooLarge
from gfdeblur.guided_filter import STRIP_BYTES, GfParams, guidfilter, smooth_gradients

from conftest import (
    diff_x,
    diff_y,
    divergence,
    guidfilter_bruteforce,
    guidfilter_unfused,
    rand_image,
    rand_int_image,
    smooth_gradients_unfused,
    traced_peak,
)


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
    with pytest.raises(DimensionMismatch):
        smooth_gradients(np.zeros((4, 4)), GfParams(3, 0.1), np.zeros((4, 5)))


def test_window_too_large():
    for shape in ((4, 4), (8, 4), (4, 8)):
        with pytest.raises(WindowTooLarge):
            guidfilter(np.zeros(shape), np.zeros(shape), GfParams(5, 0.1))


def test_matches_unfused_reference_bit_exact():
    # Strips, halos and mirrored a, b rows add every pixel's terms in the
    # order whole-image passes do.  (200, 700) and (600, 900) run in
    # several strips of unequal height, so strip edges fall mid-image and
    # take real neighbouring rows.  A (5, 70000) padded row is wider than
    # STRIP_BYTES, so each strip would be one row, under the 2r-row floor:
    # one strip takes the whole image, and its halo reaches the mirror
    # rows at both the top and the bottom.  (20, 40000) at w = 5 and
    # (17, 33000) at w = 3 run in strips of 2r or 2r + 1 rows, the floor,
    # so the 2r output rows each strip holds back are all of it but at
    # most one row.  (131, 96) is one strip.  Each runs guided by another
    # image, which it leaves as it was, and self-guided; both write over
    # src.
    assert 70000 * 8 > STRIP_BYTES and 200 * 700 * 8 > 2 * STRIP_BYTES
    cells = [(shape, w) for shape in ((200, 700), (600, 900), (5, 70000), (131, 96))
             for w in (1, 3, 5, 7, 9) if w <= min(shape)]
    for k, (shape, w) in enumerate(cells + [((20, 40000), 5), ((17, 33000), 3)]):
        guide = rand_image(20 + k, shape)
        src = rand_image(30 + k, shape)
        p = GfParams(w, 40.0)
        ref = guidfilter_unfused(guide, src, p)
        ref_self = guidfilter_unfused(guide, guide, p)
        g = guide.copy()
        assert guidfilter(g, src, p) is src
        np.testing.assert_array_equal(src, ref, err_msg=f"{shape} {w}")
        np.testing.assert_array_equal(g, guide, err_msg=f"{shape} {w} guide")
        assert guidfilter(g, g, p) is g
        np.testing.assert_array_equal(g, ref_self, err_msg=f"{shape} {w} self-guided")


def test_strips_at_least_2r_rows():
    # Each strip holds back 2r output rows, so none but an only strip is
    # shorter than 2r.
    for shape, w in (((20, 40000), 5), ((17, 33000), 3), ((5, 70000), 5), ((7, 20000), 7),
                     ((600, 900), 9), ((9, 9), 9)):
        strips = guided_filter._Strips(shape, w, False)
        heights = [i1 - i0 for i0, i1 in strips.strips()]
        assert sum(heights) == shape[0]
        assert len(heights) == 1 or min(heights) >= w - 1, (shape, w, heights)


def test_src_must_be_float64():
    guide = rand_image(40, (12, 12))
    with pytest.raises(ValueError, match="float64"):
        guidfilter(guide, guide.astype(np.float32), GfParams(3, 0.1))
    with pytest.raises(ValueError, match="float64"):
        smooth_gradients(guide, GfParams(3, 0.1), np.zeros((12, 12), np.float32))


def test_peak_memory_near_output():
    # Strips keep every temporary small: written over src, the filter
    # makes no image-sized array (0.23 images here, nearly all of them
    # strip buffers; 0.30 with 8 of them; whole-image passes peak near
    # 7x), nor does the gradient smoothing written over a given
    # divergence (0.21 images; 1.24 when it made the divergence).
    guide = rand_image(8, (1024, 1024))
    src = rand_image(9, (1024, 1024))
    div = np.empty_like(src)
    for stage in (lambda: guidfilter(guide, src, GfParams(5, 0.04)),
                  lambda: smooth_gradients(guide, GfParams(5, 0.04), div)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.27 * src.nbytes, peak / src.nbytes


def test_main_filter_peak_at_256():
    # At 256^2 STRIP_BYTES asks for 3 strips of 85-86 rows, so the strip
    # buffers are large against the image.  The dataflow needs 6 of them
    # for a two-image filter and 5 for a self-guided one: mean(src) goes
    # over src's own block once g*src is formed, the short-lived products
    # into box_mean's row scratch and mean(b) over b.  The filter reads
    # 2.34 images (3.05 with 8 buffers), the self-guided filter 1.97
    # (2.32 with 6) and the gradient smoothing, two self-guided filters
    # in one strip pass, 2.21 (2.56).
    x = rand_image(10, (256, 256))
    y = rand_image(11, (256, 256))
    params = GfParams(5, 1.0)
    assert traced_peak(guidfilter, x, y, params) < 2.4 * x.nbytes
    assert traced_peak(guidfilter, x, x, params) < 2.05 * x.nbytes
    assert traced_peak(smooth_gradients, y, params, np.empty_like(y)) < 2.3 * x.nbytes


def poison_strip_buffers(monkeypatch):
    """Make every strip buffer start as NaN, so that a lane read before
    it is written shows in the output."""
    line_aligned = guided_filter._line_aligned

    def poisoned(*shapes):
        bufs = line_aligned(*shapes)
        for buf in bufs:
            buf.fill(np.nan)
        return bufs

    monkeypatch.setattr(guided_filter, "_line_aligned", poisoned)


@pytest.mark.parametrize("strip_bytes", [STRIP_BYTES, 1, 2048])
def test_scratch_lanes_read_only_written_memory(monkeypatch, strip_bytes):
    # The strip buffers share the padded pitch, so each flat pass also
    # computes lanes past the image's width, on pad columns and the next
    # row's values.  With every buffer NaN at the start, the filters
    # still equal the whole-image references bit for bit: odd and even
    # widths, windows 1-7, one strip and (with STRIP_BYTES low) strips
    # of the 2r-row floor or a few rows more.
    poison_strip_buffers(monkeypatch)
    monkeypatch.setattr(guided_filter, "STRIP_BYTES", strip_bytes)
    for k, shape in enumerate(((23, 20), (31, 17), (16, 7), (9, 64))):
        guide = rand_image(50 + k, shape)
        src = rand_image(60 + k, shape)
        for w in (1, 3, 5, 7):
            if w > min(shape):
                continue
            p = GfParams(w, 40.0)
            msg = f"{shape} {w}"
            ref = guidfilter_unfused(guide, src, p)
            np.testing.assert_array_equal(guidfilter(guide, src.copy(), p), ref, err_msg=msg)
            ref_self = guidfilter_unfused(guide, guide, p)
            g = guide.copy()
            np.testing.assert_array_equal(guidfilter(g, g, p), ref_self, err_msg=msg)
            q = GfParams(w, 0.04)
            div = smooth_gradients(guide, q, np.full(shape, np.nan))
            np.testing.assert_array_equal(div, smooth_gradients_unfused(guide, q), err_msg=msg)


def test_self_guidance_identity_limit():
    # eps -> 0+ with non-constant windows: a -> 1, b -> 0, output -> input.
    x = rand_image(10)
    out = x.copy()
    guidfilter(out, out, GfParams(5, 1e-10))
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_constant_input_fixed_point():
    guide = rand_int_image(11)
    c = 7.0
    out = guidfilter(guide, np.full_like(guide, c), GfParams(5, 0.04))
    np.testing.assert_allclose(out, c, atol=1e-12 * (1 + c))


def test_matches_bruteforce_oracle():
    guide = rand_image(12)
    src = rand_image(13)
    out = guidfilter(guide, src.copy(), GfParams(5, 0.04))
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
    div = smooth_gradients(v, GfParams(3, 0.1), np.full_like(v, np.nan))
    np.testing.assert_allclose(div, 0.0, atol=1e-12)


def test_smooth_gradients_zero_start_state():
    v = np.zeros((8, 8))
    div = smooth_gradients(v, GfParams(3, 0.1), np.full_like(v, np.nan))
    assert not div.any()


def test_smooth_gradients_matches_composition():
    v = rand_image(14)
    p = GfParams(5, 0.04)
    div = smooth_gradients(v, p, np.full_like(v, np.nan))
    gx = guidfilter_bruteforce(diff_x(v), diff_x(v), 5, 0.04)
    gy = guidfilter_bruteforce(diff_y(v), diff_y(v), 5, 0.04)
    np.testing.assert_allclose(div, divergence(gx, gy), atol=1e-8)


def test_self_guided_reuse_is_bit_identical(monkeypatch):
    # A self-guided filter reuses the guide's window statistics: 4 box
    # means per filter instead of 6, and the same bits as the general
    # path, which the reference takes for src.copy().
    v = rand_image(15, (20, 17))
    p = GfParams(5, 0.04)
    calls = []
    box_mean = guided_filter.box_mean
    monkeypatch.setattr(guided_filter, "box_mean", lambda *a: calls.append(1) or box_mean(*a))
    div = smooth_gradients(v, p, np.full_like(v, np.nan))
    assert len(calls) == 8
    monkeypatch.undo()
    dx, dy = diff_x(v), diff_y(v)
    general = divergence(guidfilter_unfused(dx, dx.copy(), p, centre=False),
                         guidfilter_unfused(dy, dy.copy(), p, centre=False))
    np.testing.assert_array_equal(div, general)


@pytest.mark.parametrize("shape, one_row_strips", [
    ((20, 17), False), ((300, 700), False), ((63, 51), False), ((12, 13), False),
    ((5, 200), False), ((20, 17), True), ((63, 51), True), ((12, 13), True), ((5, 200), True),
])
def test_smooth_gradients_matches_uncentred_composition_bit_exact(monkeypatch, shape,
                                                                  one_row_strips):
    # The strip pass from v to the divergence adds every pixel's terms in
    # the order of whole-image differences, filters and divergence.
    # (20, 17) is one strip, (300, 700) several of unequal height, and a
    # one-byte STRIP_BYTES makes the shortest strips there are: one row
    # at w = 1, 2r rows (the floor) at w = 3 and 5.  Their halos reach
    # the mirror rows at the top and the bottom, and each y term needs
    # the row above from the strip before.  The divergence is written
    # over every pixel of the buffer given, which is returned.
    if one_row_strips:
        monkeypatch.setattr(guided_filter, "STRIP_BYTES", 1)
    else:
        assert (shape == (300, 700)) == (shape[0] * (shape[1] + 4) * 8 > STRIP_BYTES)
    v = rand_image(16, shape)
    for w in (1, 3, 5):
        p = GfParams(w, 0.04)
        div = np.full(shape, np.nan)
        assert smooth_gradients(v, p, div) is div
        np.testing.assert_array_equal(div, smooth_gradients_unfused(v, p), err_msg=f"{shape} {w}")


def test_large_near_constant_input_is_smoothed():
    # At 2048^2 the uncentred window moments E[x^2] - E[x]^2 of a
    # near-constant image cancel to negative variances, and at eps = 1e-6
    # the filter amplified the noise (output spread 2.26x the input's).
    # Centred, it also matches filtering the zero-mean image to rounding;
    # clamping the variance alone leaves a 1.6e-3 error.
    x = 128.0 + 1e-3 * np.random.default_rng(0).standard_normal((2048, 2048))
    p = GfParams(5, 1e-6)
    y = x - 128.0
    out = x.copy()
    guidfilter(out, out, p)
    assert out.std() < x.std()
    np.testing.assert_allclose(out, guidfilter(y, y, p) + 128.0, rtol=0, atol=1e-9)
