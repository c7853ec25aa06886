import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gfdeblur.errors import PgmParseError, UnsupportedFormat
from gfdeblur.pgm import quantize, read_image, write_image

from conftest import rand_image


def test_read_p2_example(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2 2 2 255 0 128 255 64")
    np.testing.assert_array_equal(read_image(p), [[0.0, 128.0], [255.0, 64.0]])


def test_read_p2_with_comments(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n# a comment\n2 1\n# another\n255\n10 20\n")
    np.testing.assert_array_equal(read_image(p), [[10.0, 20.0]])


def test_p5_round_trip(tmp_path):
    img = rand_image(0, (9, 13))
    p = tmp_path / "rt.pgm"
    write_image(p, img)
    np.testing.assert_array_equal(read_image(p), quantize(img))


def test_sixteen_bit_round_trip_and_scaling(tmp_path):
    img = rand_image(2, (6, 6))
    samples = np.floor(np.clip(img, 0, 255) * (65535.0 / 255.0) + 0.5)
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5\n6 6\n65535\n" + samples.astype(">u2").tobytes())
    back = read_image(p)  # scaled to [0, 255]
    np.testing.assert_allclose(back, np.clip(img, 0, 255), atol=255.0 / 65535.0 + 1e-9)


def test_out_of_range_samples_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    for data, sample, maxval in (
        (b"P5\n2 1\n100\n" + bytes([50, 200]), 200, 100),
        (b"P5\n1 1\n1000\n" + (60000).to_bytes(2, "big"), 60000, 1000),
        (b"P2 2 1 255 -5 300", -5, 255),
        (b"P2 2 1 255 0 300", 300, 255),
    ):
        p.write_bytes(data)
        with pytest.raises(PgmParseError, match=f"sample {sample} .*maxval {maxval}"):
            read_image(p)
    p.write_bytes(b"P2 1 1 255 1" + b"0" * 400)  # beyond float64
    with pytest.raises(PgmParseError, match="P2 sample"):
        read_image(p)


def test_truncated_p5_names_byte_counts(tmp_path):
    p = tmp_path / "trunc.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(PgmParseError, match="expected 16 bytes, got 10"):
        read_image(p)


def test_unsupported_magic(tmp_path):
    p = tmp_path / "x.ppm"
    p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(UnsupportedFormat):
        read_image(p)


def test_bad_header_field(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\nfoo 4\n255\n")
    with pytest.raises(PgmParseError):
        read_image(p)


def test_p2_short_payload(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P2 3 3 255 1 2 3")
    with pytest.raises(PgmParseError, match="expected 9"):
        read_image(p)


def test_quantize_half_away_from_zero():
    np.testing.assert_array_equal(quantize(np.array([[0.5, 1.49, 254.5, 300.0, -4.0]])),
                                  [[1.0, 1.0, 255.0, 255.0, 0.0]])


@settings(max_examples=20, deadline=None)
@given(
    img=arrays(
        np.float64,
        (4, 5),
        elements=st.floats(-20, 300, allow_nan=False, allow_infinity=False),
    )
)
def test_round_trip_property(tmp_path_factory, img):
    p = tmp_path_factory.mktemp("pgm") / "h.pgm"
    write_image(p, img)
    np.testing.assert_array_equal(read_image(p), quantize(img))
