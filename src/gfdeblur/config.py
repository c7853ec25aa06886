"""Plain-text run configuration: `key = value` lines, # comments.

The keys are exactly iterations, tau, gf_w, gf_eps and sigma.  Each
names a GfdConfig setting (gf_w and gf_eps the window and eps of the
guided filters); a key the file omits keeps GfdConfig's default.
Unknown keys and malformed values are rejected with the offending key
and line number.
"""

from __future__ import annotations

from .errors import ConfigError


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise ValueError("must be >= 1")
    return v


_KEY_PARSERS = {
    "iterations": _positive_int,
    "tau": float,
    "gf_w": _positive_int,
    "gf_eps": float,
    "sigma": float,
}
KEYS = frozenset(_KEY_PARSERS)


def parse_run_config(text: str) -> dict:
    """The settings the text sets, keyed by name; omitted keys are absent."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            settings[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {value!r} ({exc})"
            ) from exc
    return settings


def load_run_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())
