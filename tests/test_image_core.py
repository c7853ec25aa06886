import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdeblur.image_core import as_image, box_mean, centered_sq_norm

from conftest import (
    box_mean_padded,
    box_sum_bruteforce,
    rand_image,
    rand_int_image,
    window_values,
)


def test_centered_sq_norm_constant_is_zero():
    assert centered_sq_norm(np.full((3, 5), 9.25)) == 0.0


def test_centered_sq_norm_small_case():
    assert centered_sq_norm(np.array([[0.0, 0.0], [0.0, 4.0]])) == pytest.approx(12.0)


def test_centered_sq_norm_matches_two_pass_oracle():
    img = rand_image(2, (32, 32))
    mu = sum(v for row in img for v in row) / img.size
    expected = sum((v - mu) ** 2 for row in img for v in row)
    assert centered_sq_norm(img) == pytest.approx(expected, rel=1e-10)


def test_box_sum_constant():
    for w in (1, 3, 5):
        out = box_mean_padded(np.full((8, 8), 3.5), w)
        np.testing.assert_allclose(out, 3.5, rtol=1e-12)


def test_box_sum_w1_identity():
    img = rand_image(3)
    np.testing.assert_array_equal(box_mean_padded(img, 1), img)


def test_box_sum_matches_bruteforce_exactly():
    # Integer-valued intensities: both summation orders are exact, and
    # each mean is that exact sum divided once by w*w.  The small shapes
    # let the mirror pad reach the far edge; (9, 40) and (5, 70000) at
    # w = 5 have w equal to the image height.
    cases = [((16, 16), 5), ((7, 9), 7), ((5, 12), 5), ((9, 40), 9), ((5, 70000), 3),
             ((5, 70000), 5)]
    cases += [(shape, w) for shape in ((200, 700), (600, 900)) for w in (3, 5, 7, 9)]
    for shape, w in cases:
        img = rand_int_image(4, shape)
        np.testing.assert_array_equal(box_mean_padded(img, w),
                                      box_sum_bruteforce(img, w) / (w * w))


def flat_box_mean(img: np.ndarray, w: int) -> np.ndarray:
    """box_mean over img's mirror pad as flat ranges of pitch wd + w - 1,
    with out and rows NaN at the start; returns out's n x wd valid lanes.
    The kernel writes all of out's range and reads only what it wrote."""
    n, wd = img.shape
    pw = wd + w - 1
    pad = np.pad(img, (w - 1) // 2, mode="symmetric")
    out = np.full(n * pw, np.nan)
    flat = box_mean(pad.reshape(-1), w, n, wd, out, np.full(n * pw, np.nan))
    assert flat.base is out and len(flat) == (n - 1) * pw + wd
    assert np.isfinite(flat).all()
    return out.reshape(n, pw)[:, :wd]


def test_box_sum_flat_equals_2d_oracle_on_valid_lanes():
    # The flat kernel adds each valid lane's entries in the 2-D oracle's
    # order, so every valid lane has the oracle's bits.  The cases reach
    # the far edges, a one-row image and w equal to the image height,
    # and cover the shapes of test_box_sum_matches_bruteforce_exactly.
    cases = [((16, 16), w) for w in (1, 3, 5, 7)] + [((1, 9), 1), ((7, 9), 7), ((5, 12), 5),
                                                     ((9, 40), 9), ((5, 70000), 5)]
    cases += [(shape, w) for shape in ((200, 700), (600, 900), (33, 64)) for w in (3, 5, 7, 9)]
    for k, (shape, w) in enumerate(cases):
        img = rand_image(40 + k, shape)
        np.testing.assert_array_equal(flat_box_mean(img, w), box_mean_padded(img, w),
                                      err_msg=f"{shape} {w}")


def test_box_sum_writes_into_strided_out():
    # The guided filter writes a's window statistics straight into the
    # interior of its padded a block: a flat range that starts 2 rows
    # and 2 columns in, whose scratch lanes fall on the pad columns.
    img = rand_image(6, (9, 14))
    pad = np.pad(img, 2, mode="symmetric")
    block = np.zeros((13, 18))
    out = box_mean(pad.reshape(-1), 5, 9, 14, block.reshape(-1)[2 * 18 + 2 :], np.empty(9 * 18))
    assert out.base is block
    np.testing.assert_array_equal(block[2:11, 2:16], box_mean_padded(img, 5))
    # Nothing before the range's first element or past its last.
    assert not block[:2].any() and not block[2, :2].any()
    assert not block[10, 16:].any() and not block[11:].any()


def test_box_sum_rejects_misfit_block():
    # Any range too short for (n, wd, w) is refused: 8 x 8 at w = 5 needs
    # 12 * 12 padded, 8 * 12 rows and 7 * 12 + 8 out elements.
    pad, rows, out = np.zeros(144), np.empty(96), np.empty(92)
    box_mean(pad, 5, 8, 8, out, rows)
    for padded, o, s in ((pad[:-1], out, rows), (pad, out[:-1], rows), (pad, out, rows[:-1]),
                         (pad.reshape(12, 12), out, rows)):
        with pytest.raises(ValueError):
            box_mean(padded, 5, 8, 8, o, s)
    with pytest.raises(ValueError):
        box_mean(pad, 5, 8, 9, out, rows)
    with pytest.raises(ValueError):
        box_mean(pad, 5, 12, 8, out, rows)


def test_box_sum_accurate_at_2048():
    # Each window sum adds only its own 25 entries, so the error stays at
    # rounding of those; a summed-area table's partial sums grow with the
    # image area (1.4e-7 here).
    n, w = 2048, 5
    img = rand_image(16, (n, n))
    out = flat_box_mean(img, w)
    gen = np.random.default_rng(17)
    points = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 2)]
    points += [tuple(p) for p in gen.integers(0, n, (300, 2))]
    for y, x in points:
        exact = math.fsum(window_values(img, y, x, w).ravel()) / (w * w)
        assert abs(out[y, x] - exact) <= 1e-11 / (w * w), (y, x)


def test_box_sum_rectangular():
    img = rand_int_image(5, (12, 20))
    np.testing.assert_array_equal(box_mean_padded(img, 7), box_sum_bruteforce(img, 7) / 49)


def test_box_sum_rejects_even_window():
    with pytest.raises(ValueError):
        box_mean(np.zeros(121), 4, 8, 8, np.empty(64), np.empty(88))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    w=st.sampled_from([1, 3, 5]),
)
def test_box_sum_linearity(seed, alpha, beta, w):
    a = rand_image(seed)
    b = rand_image(seed + 1)
    lhs = box_mean_padded(alpha * a + beta * b, w)
    rhs = alpha * box_mean_padded(a, w) + beta * box_mean_padded(b, w)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


def test_as_image_rejects_nan():
    with pytest.raises(ValueError):
        as_image(np.array([[1.0, np.nan]]))


def test_as_image_rejects_1d():
    with pytest.raises(ValueError):
        as_image(np.arange(4.0))
