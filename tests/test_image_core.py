import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdeblur.errors import WindowTooLarge
from gfdeblur.image_core import STRIP_BYTES, as_image, box_mean, centered_sq_norm

from conftest import box_sum_bruteforce, rand_image, rand_int_image, window_values


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
        out = box_mean(np.full((8, 8), 3.5), w)
        np.testing.assert_allclose(out, 3.5, rtol=1e-12)


def test_box_sum_w1_identity():
    img = rand_image(3)
    np.testing.assert_array_equal(box_mean(img, 1), img)


def test_box_sum_matches_bruteforce_exactly():
    # Integer-valued intensities: both summation orders are exact, and
    # each mean is that exact sum divided once by w*w.  The
    # small shapes let the mirror pad reach the far edge; (9, 40) and
    # (5, 70000) at w = 5 have w equal to the image height.  (200, 700)
    # and (600, 900) run in several strips of unequal height, so strip
    # edges fall mid-image and take real neighbouring rows.  A (5, 70000)
    # padded row is wider than STRIP_BYTES, so every strip is one row
    # and inner strips still reach the mirror rows.
    assert 70000 * 8 > STRIP_BYTES and 200 * 700 * 8 > 2 * STRIP_BYTES
    cases = [((16, 16), 5), ((7, 9), 7), ((5, 12), 5), ((9, 40), 9), ((5, 70000), 3),
             ((5, 70000), 5)]
    cases += [(shape, w) for shape in ((200, 700), (600, 900)) for w in (3, 5, 7, 9)]
    for shape, w in cases:
        img = rand_int_image(4, shape)
        np.testing.assert_array_equal(box_mean(img, w), box_sum_bruteforce(img, w) / (w * w))


def test_box_sum_peak_memory_near_output():
    # Strips keep every temporary small: the output is the only
    # image-sized array (a whole-image pad and row sum peak near 3x).
    img = rand_image(8, (1024, 1024))
    tracemalloc.start()
    try:
        out = box_mean(img, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes, peak / out.nbytes


def test_box_sum_accurate_at_2048():
    # Each window sum adds only its own 25 entries, so the error stays at
    # rounding of those; a summed-area table's partial sums grow with the
    # image area (1.4e-7 here).
    n, w = 2048, 5
    img = rand_image(16, (n, n))
    out = box_mean(img, w)
    gen = np.random.default_rng(17)
    points = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 2)]
    points += [tuple(p) for p in gen.integers(0, n, (300, 2))]
    for y, x in points:
        exact = math.fsum(window_values(img, y, x, w).ravel()) / (w * w)
        assert abs(out[y, x] - exact) <= 1e-11 / (w * w), (y, x)


def test_box_sum_rectangular():
    img = rand_int_image(5, (12, 20))
    np.testing.assert_array_equal(box_mean(img, 7), box_sum_bruteforce(img, 7) / 49)


def test_box_sum_window_too_large():
    with pytest.raises(WindowTooLarge):
        box_mean(np.zeros((4, 4)), 5)


def test_box_sum_rejects_even_window():
    with pytest.raises(ValueError):
        box_mean(np.zeros((8, 8)), 4)


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
    lhs = box_mean(alpha * a + beta * b, w)
    rhs = alpha * box_mean(a, w) + beta * box_mean(b, w)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


def test_as_image_rejects_nan():
    with pytest.raises(ValueError):
        as_image(np.array([[1.0, np.nan]]))


def test_as_image_rejects_1d():
    with pytest.raises(ValueError):
        as_image(np.arange(4.0))
