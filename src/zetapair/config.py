"""Run configuration shared by the CLI subcommands.

Precedence: built-in defaults < --config file < flags.
The fields are checked once the flags are applied, whatever set them.
The config file is flat ``key=value`` lines (``#`` comments allowed) with
keys exactly the RunConfig field names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["RunConfig", "load_config_file"]


@dataclass
class RunConfig:
    series_cutoff: int = 1_000_000
    bin_width: float = 0.05
    window_width: float = 200.0   # in mean spacings
    output_format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        if self.series_cutoff <= 0:
            raise ValueError("series_cutoff must be positive")
        if not (0 < self.bin_width < math.inf and 0 < self.window_width < math.inf):
            raise ValueError("bin_width and window_width must be finite and positive")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be 'csv' or 'json'")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


def load_config_file(path: str | Path) -> dict:
    """Parse key=value lines into a RunConfig kwargs dict."""
    out: dict = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            out[key] = _PARSERS[kind](value)
        except ValueError:
            raise ValueError(f"{path}:{ln}: {key} expects {kind}, got {value!r}")
        if kind == "float" and not math.isfinite(out[key]):
            raise ValueError(f"{path}:{ln}: {key} expects a finite float, got {value!r}")
    return out
