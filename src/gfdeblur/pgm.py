"""PGM (portable graymap) reading and writing.

Reads binary P5 with 8-bit or 16-bit (big-endian) samples, and ASCII
P2; intensities map to [0, 255] reals, and a sample outside [0, maxval]
is rejected.  Writes 8-bit binary P5, clamped to [0, 255] and rounded
half away from zero, so written files round-trip bit-exactly.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import PgmParseError, UnsupportedFormat


# The magic, then width, height and maxval, each after any run of
# whitespace and '#' comments; a field is empty only at the end of data.
_HEADER = re.compile(rb".." + rb"(?:\s|#[^\n\r]*)*(\S*)" * 3)


def read_image(path) -> np.ndarray:
    """Read a PGM file as a float64 image with intensities in [0, 255]."""
    return read_pgm(path)[0]


def read_pgm(path):
    """Read a PGM file: (the float64 image with intensities in [0, 255],
    the file's maxval).  The image's quantisation step is 255 / maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormat(f"not a PGM file (magic {magic!r})")
    header = _HEADER.match(data)
    for i in (1, 2, 3):
        field, at = header.group(i), header.start(i)
        if not field:
            raise PgmParseError(f"truncated header at byte {at}")
        if not field.isdigit():
            raise PgmParseError(f"expected integer header field at byte {at}, got {field!r}")
    width, height, maxval = map(int, header.groups())
    if header.end() >= len(data):
        raise PgmParseError(f"missing payload after header at byte {header.end()}")
    payload_at = header.end() + 1  # exactly one whitespace byte before payload
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
    return img, maxval


def quantize(img: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255] and round half away from zero."""
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5)


def write_image(path, img: np.ndarray):
    """Write an image as 8-bit binary P5, quantized to [0, 255]: values
    outside that range, +inf and -inf among them, are clamped to 255 and
    0.  A NaN pixel has no byte and raises ValueError before the file is
    opened, so no partial file is left."""
    q = quantize(img)
    if np.isnan(q).any():
        i = int(np.argmax(np.isnan(q)))
        raise ValueError(f"image has a NaN pixel at flat index {i}; cannot write {path}")
    height, width = q.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(q.astype(np.uint8).tobytes())
