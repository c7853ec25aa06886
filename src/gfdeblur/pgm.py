"""PGM (portable graymap) reading and writing.

Reads binary P5 with 8-bit or 16-bit (big-endian) samples, and ASCII
P2; intensities map to [0, 255] reals, and a sample outside [0, maxval]
is rejected.  Writes 8-bit binary P5, clamped to [0, 255] and rounded
half away from zero, so written files round-trip bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import PgmParseError, UnsupportedFormat


def _read_header_tokens(data: bytes, count: int):
    """Pull `count` whitespace/comment-delimited tokens after the magic.

    Returns (tokens, offset of the byte after the final delimiter).
    """
    tokens = []
    pos = 2  # past the magic
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise PgmParseError(f"truncated header at byte {pos}")
        tok = data[start:pos]
        if not tok.isdigit():
            raise PgmParseError(
                f"expected integer header field at byte {start}, got {tok!r}"
            )
        tokens.append(int(tok))
    if pos >= len(data):
        raise PgmParseError(f"missing payload after header at byte {pos}")
    return tokens, pos + 1  # exactly one whitespace byte before payload


def read_image(path) -> np.ndarray:
    """Read a PGM file as a float64 image with intensities in [0, 255]."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormat(f"not a PGM file (magic {magic!r})")
    (width, height, maxval), payload_at = _read_header_tokens(data, 3)
    if width < 1 or height < 1:
        raise PgmParseError(f"bad dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise PgmParseError(f"bad maxval {maxval}")

    if magic == b"P5":
        bytes_per = 1 if maxval < 256 else 2
        expected = width * height * bytes_per
        payload = data[payload_at : payload_at + expected]
        if len(payload) != expected:
            raise PgmParseError(
                f"P5 payload truncated at byte {payload_at + len(payload)}: "
                f"expected {expected} bytes, got {len(payload)}"
            )
        dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        vals = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        fields = data[payload_at - 1 :].split()
        if len(fields) < width * height:
            raise PgmParseError(
                f"P2 payload has {len(fields)} samples, expected {width * height}"
            )
        try:
            vals = np.array([int(f) for f in fields[: width * height]], dtype=np.float64)
        except (ValueError, OverflowError) as exc:  # OverflowError: beyond float64
            raise PgmParseError(f"bad P2 sample: {exc}") from exc

    bad = (vals < 0) | (vals > maxval)
    if bad.any():
        i = int(np.argmax(bad))
        raise PgmParseError(f"sample {int(vals[i])} at index {i} outside 0..maxval {maxval}")
    img = vals.reshape(height, width)
    if maxval != 255:
        img = img * (255.0 / maxval)
    return img


def quantize(img: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255] and round half away from zero."""
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5)


def write_image(path, img: np.ndarray):
    """Write an image as 8-bit binary P5, quantized to [0, 255]."""
    q = quantize(img)
    height, width = q.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(q.astype(np.uint8).tobytes())
