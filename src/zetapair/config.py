"""Run configuration shared by the CLI subcommands.

Precedence: built-in defaults < --config file < ZPD_CACHE_DIR < flags.
The fields are checked once the flags are applied, whatever set them.
The config file is flat ``key=value`` lines (``#`` comments allowed) with
keys exactly the RunConfig field names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["RunConfig", "load_config_file", "apply_env"]


@dataclass
class RunConfig:
    sieve_limit: int = 0          # 0 = size automatically for the command
    series_cutoff: int = 1_000_000
    bin_width: float = 0.05
    window_width: float = 200.0   # in mean spacings
    cache_dir: str = ""
    output_format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        if self.sieve_limit < 0:
            raise ValueError(f"sieve_limit must be >= 0 (0 = automatic), got {self.sieve_limit}")
        if self.series_cutoff <= 0:
            raise ValueError("series_cutoff must be positive")
        if self.bin_width <= 0 or self.window_width <= 0:
            raise ValueError("bin_width and window_width must be positive")
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
    return out


def apply_env(cfg: RunConfig) -> RunConfig:
    """ZPD_CACHE_DIR overrides the configured cache directory."""
    env = os.environ.get("ZPD_CACHE_DIR")
    if env:
        cfg.cache_dir = env
    return cfg
