import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gfdeblur.errors import PgmParseError, UnsupportedFormat
from gfdeblur.pgm import quantize, read_image, read_pgm, write_image

from conftest import BAD_PGM_HEADERS, rand_image


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


@pytest.mark.parametrize("data, msg", BAD_PGM_HEADERS)
def test_bad_header_refused(tmp_path, data, msg):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(PgmParseError, match=msg):
        read_image(p)


# Header inputs and what read_pgm gives for each: (image rows, maxval),
# or (exception type, its whole message).  The header's last field ends
# at whitespace, and the payload starts one byte later (so after CR LF
# it starts at the LF).  '#' starts a comment only where a field would
# start; glued to a field it is part of it.
PGM_HEADER_CASES = [
    ("crlf", b"P5\r\n2 1\r\n255\r\n\x07\t", ([[10.0, 7.0]], 255)),
    ("tab", b"P5\t2\t1\t255\t\x07\t", ([[7.0, 9.0]], 255)),
    ("vt", b"P5\x0b2\x0b1\x0b255\x0b\x07\t", ([[7.0, 9.0]], 255)),
    ("ff", b"P5\x0c2\x0c1\x0c255\x0c\x07\t", ([[7.0, 9.0]], 255)),
    ("all_whitespace", b"P5 \t\r\n\x0b\x0c1 1 255 \x03", ([[3.0]], 255)),
    ("comment_after_magic", b"P5# c\n2 1\n255\n\x07\t", ([[7.0, 9.0]], 255)),
    ("comment_between_fields", b"P2\n2 # w\n1\n# h\n255\n7 9\n", ([[7.0, 9.0]], 255)),
    ("comment_cr_ended", b"P5 #c\r1 1 255 \x05", ([[5.0]], 255)),
    ("comment_after_maxval_p5", b"P5\n2 1\n255\n# c\n", ([[35.0, 32.0]], 255)),
    ("comment_after_maxval_p2", b"P2\n2 1\n255\n# c\n7 9\n",
     (PgmParseError, "bad P2 sample: invalid literal for int() with base 10: b'#'")),
    ("comment_to_eof", b"P5\n1 1 # no end", (PgmParseError, "truncated header at byte 15")),
    ("hash_glued_to_width", b"P5\n12#c 1\n255\n\x00",
     (PgmParseError, "expected integer header field at byte 3, got b'12#c'")),
    ("hash_glued_to_maxval", b"P5\n1 1\n255#\n\x00",
     (PgmParseError, "expected integer header field at byte 7, got b'255#'")),
    ("negative_width", b"P5\n-1 1\n255\n\x00",
     (PgmParseError, "expected integer header field at byte 3, got b'-1'")),
    ("byte_ff_height", b"P5\n1 \xff\n255\n\x00",
     (PgmParseError, "expected integer header field at byte 5, got b'\\xff'")),
    ("leading_zeros", b"P5 01 001 0255 \t", ([[9.0]], 255)),
    ("width_glued_to_magic", b"P52 1 255 \x01\x02", ([[1.0, 2.0]], 255)),
    ("maxval_1", b"P5 2 1 1 \x00\x01", ([[0.0, 255.0]], 1)),
    ("sixteen_bit", b"P5 1 2 1000 \x01\xf4\x03\xe8", ([[127.5], [255.0]], 1000)),
    ("magic_only", b"P5", (PgmParseError, "truncated header at byte 2")),
    ("no_payload_byte", b"P2 1 1 255", (PgmParseError, "missing payload after header at byte 10")),
    ("empty_payload", b"P5 1 1 255\n",
     (PgmParseError, "P5 payload truncated at byte 11: expected 1 bytes, got 0")),
    ("p6", b"P6\n1 1\n255\n\x00\x00\x00", (UnsupportedFormat, "not a PGM file (magic b'P6')")),
    ("bare_p", b"P", (UnsupportedFormat, "not a PGM file (magic b'P')")),
    ("empty_file", b"", (UnsupportedFormat, "not a PGM file (magic b'')")),
    ("truncated_p2_payload", b"P2 2 2 255 1 2 3",
     (PgmParseError, "P2 payload has 3 samples, expected 4")),
    ("truncated_p5_payload", b"P5 2 2 255 \x00\x01\x02",
     (PgmParseError, "P5 payload truncated at byte 14: expected 4 bytes, got 3")),
] + [(f"bad_header_{i}", data, (PgmParseError, msg))
      for i, (data, msg) in enumerate(BAD_PGM_HEADERS)]


@pytest.mark.parametrize("data, outcome",
                         [pytest.param(d, o, id=n) for n, d, o in PGM_HEADER_CASES])
def test_header_table(tmp_path, data, outcome):
    p = tmp_path / "h.pgm"
    p.write_bytes(data)
    if isinstance(outcome[0], type):
        with pytest.raises(outcome[0]) as info:
            read_pgm(p)
        assert str(info.value) == outcome[1]
    else:
        img, maxval = read_pgm(p)
        np.testing.assert_array_equal(img, outcome[0])
        assert maxval == outcome[1]


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
