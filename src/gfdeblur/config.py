"""Plain-text run configuration: `key = value` lines, # comments.

The keys are exactly iterations, tau, gf_w, gf_eps and sigma, each the
name of a GfdConfig field (gf_w and gf_eps are the window and eps of
the guided filters), so the settings pass to GfdConfig unrenamed; a key
the file omits keeps GfdConfig's default.  Each value is converted to
its type and then checked by GfdConfig itself, so an unknown key, a
malformed value and a value GfdConfig refuses (an even window, a
non-positive eps, a NaN tau, a negative or non-finite sigma) are all
reported with the key and line number.
"""

from __future__ import annotations

from .errors import ConfigError
from .pipeline import GfdConfig

_KEY_TYPES = {
    "iterations": int,
    "tau": float,
    "gf_w": int,
    "gf_eps": float,
    "sigma": float,
}
KEYS = frozenset(_KEY_TYPES)


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
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            settings[key] = _KEY_TYPES[key](value)
            GfdConfig(**{key: settings[key]})
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {value!r} ({exc})"
            ) from exc
    return settings


def load_run_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())
