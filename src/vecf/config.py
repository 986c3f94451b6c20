"""Run configuration: one INI-style file, schema-checked, with flag overrides.

Every numeric key is range-checked at load time and unknown keys are
rejected by name.  A key sets the fluid's free parameters or the run; what
each check samples, its resolution ladder included, is a constant of its
module.  Defaults encode the causal regime a1 = 4, a2 = 4.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .constitutive import TransportModel
from .solver1d import COURANT_MAX, MAX_CELLS


class ConfigError(Exception):
    """Invalid configuration; message names the offending key."""


def _finite(s) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {s!r}")
    return x


def _float_range(lo=None, hi=None, lo_open=False):
    def check(v):
        x = _finite(v)
        if lo is not None and (x <= lo if lo_open else x < lo):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and x > hi:
            raise ValueError(f"must be <= {hi}")
        return x
    return check


def _int_range(lo: int, hi: float = math.inf):
    def check(v):
        x = int(v)
        if not lo <= x <= hi:
            raise ValueError(f"must be >= {lo}" if x < lo else f"must be <= {hi}")
        return x
    return check


def _choice(*opts):
    def check(v):
        if v not in opts:
            raise ValueError(f"must be one of {opts}")
        return v
    return check


SCHEMA = {
    "transport": {
        "a2": (_float_range(), 4.0),
        "eta0": (_float_range(lo=0.0, lo_open=True), 1.0),
    },
    "solver": {
        "n_cells": (_int_range(lo=16, hi=MAX_CELLS), 512),
        "length": (_float_range(lo=0.0, lo_open=True), 2.0),
        "cfl": (_float_range(lo=0.0, hi=COURANT_MAX, lo_open=True), 0.25),
        "t_end": (_float_range(lo=0.0, lo_open=True), 0.5),
        "ic": (_choice("constant", "gaussian-eps-pulse", "shear-pulse"),
               "gaussian-eps-pulse"),
        "ic_amplitude": (_float_range(), 0.05),
        "ic_width": (_float_range(lo=0.0, lo_open=True), 0.1),
        "ic_center": (_float_range(), 1.0),
        "eps0": (_float_range(lo=0.0, lo_open=True), 1.0),
        "output_every": (_int_range(lo=0), 0),
    },
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def transport_model(self) -> TransportModel:
        t = self.values["transport"]
        return TransportModel(a2=t["a2"], eta0=t["eta0"])


def _defaults() -> dict:
    return {sec: {k: spec[1] for k, spec in keys.items()}
            for sec, keys in SCHEMA.items()}


def load_config(path: str | None = None, overrides=()) -> RunConfig:
    """Load defaults, then the file, then `section.key=value` overrides."""
    values = _defaults()

    def apply(section: str, key: str, raw):
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key '{key}' in section [{section}]")
        check = SCHEMA[section][key][0]
        try:
            values[section][key] = check(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        if not parser.sections():
            raise ConfigError(
                f"config file {path} is empty: no sections found "
                f"(expected at least one of {sorted(SCHEMA)})")
        for section in parser.sections():
            for key, raw in parser.items(section):
                apply(section, key, raw)

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        apply(section.strip(), key.strip(), raw.strip())
    return RunConfig(values=values)
