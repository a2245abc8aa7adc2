"""Run configuration: JSON schema, defaults, and validated loading.

All frequencies are angular (rad/s), lengths are cm, and the dipole moment
is supplied squared in CGS units (esu^2 cm^2).  The compiled-in defaults
are the parameter set used throughout the documentation: a 1e15 rad/s
transition driven 2e11 rad/s below resonance with a 2e10 rad/s Rabi
frequency, probed 2e9 rad/s below the pump.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .characteristics import MAX_STEPS_PER_PERIOD
from .constants import CGS, DEFAULT_GUARD
from .dressed import DressedGas, generalized_rabi
from .errors import ConfigError, DressedProbeError


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for every experiment subcommand."""

    omega0: float = 1e15
    d_squared: float = 2e-34
    rho: float = 2e15
    detuning: float = -2e11
    rabi: float = 2e10
    alpha: complex = math.sqrt(0.99)
    beta: complex = 0.1
    probe_delta: float = 2e9
    a0: float = 1.0
    z_theta: float = math.pi
    delta_start: float = -4e11
    delta_stop: float = 4e11
    delta_count: int = 401
    t_periods: float = 3.0
    t_samples_per_period: int = 1024
    guard: float = DEFAULT_GUARD
    steps: int = 4000
    out_dir: str = "out"

    def __post_init__(self) -> None:
        for name, (key, _) in _FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, (float, complex)) and not cmath.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.delta_count < 1:
            raise ConfigError("grid count must be >= 1")
        if self.delta_count > 1 and self.delta_stop <= self.delta_start:
            raise ConfigError("grid stop must exceed start")
        if self.z_theta < 0:
            raise ConfigError(f"z.theta must be non-negative, got {self.z_theta!r}")
        if self.guard < 0:
            raise ConfigError("guard must be non-negative")
        if not 1 <= self.steps <= MAX_STEPS_PER_PERIOD:
            raise ConfigError(
                f"steps must be in 1..{MAX_STEPS_PER_PERIOD}, got {self.steps}"
            )
        if self.t_periods <= 0 or self.t_samples_per_period < 1:
            raise ConfigError("time grid must be non-empty")
        try:
            omega_p = self.gas().omega_p
            if self.probe_omega() <= 0:
                raise ValueError("probe omega must be strictly positive")
        except (ValueError, DressedProbeError) as exc:
            raise ConfigError(f"invalid physical parameters: {exc}") from exc
        if omega_p - self.delta_stop <= 0:
            raise ConfigError("delta grid reaches non-positive probe omega")

    def gas(self) -> DressedGas:
        if self.d_squared < 0:
            raise ConfigError("d_squared must be non-negative")
        return DressedGas(
            omega0=self.omega0,
            d=math.sqrt(self.d_squared),
            rho=self.rho,
            detuning=self.detuning,
            rabi=self.rabi,
            alpha=self.alpha,
            beta=self.beta,
        )

    def probe_omega(self) -> float:
        """Probe angular frequency in rad/s, probe.delta below the pump."""
        return self.gas().omega_p - self.probe_delta

    def omega_prime(self) -> float:
        return generalized_rabi(self.detuning, self.rabi)

    def z_fixed(self) -> float:
        """Evaluation plane in cm (theta is the phase w' z / c)."""
        return self.z_theta * CGS.c / self.omega_prime()

    def delta_values(self) -> np.ndarray:
        """Probe offsets in rad/s, delta_start to delta_stop inclusive."""
        if self.delta_count == 1:
            return np.array([self.delta_start])
        step = (self.delta_stop - self.delta_start) / (self.delta_count - 1)
        return self.delta_start + step * np.arange(self.delta_count)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, key: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number")
    return float(value)


def _count(value, key: str) -> int:
    if not (_is_number(value) and float(value).is_integer()):
        raise ConfigError(f"{key} must be a whole number")
    return int(value)


def _as_complex(value, key: str) -> complex:
    if _is_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(x) for x in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{key} must be a number or a [re, im] pair")


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


#: RunConfig field -> (its key in the config file, parser of the value).
_FIELDS = {
    "omega0": ("ensemble.omega0", _number),
    "d_squared": ("ensemble.d_squared", _number),
    "rho": ("ensemble.rho", _number),
    "detuning": ("pump.detuning", _number),
    "rabi": ("pump.rabi", _number),
    "alpha": ("state.alpha", _as_complex),
    "beta": ("state.beta", _as_complex),
    "probe_delta": ("probe.delta", _number),
    "a0": ("probe.a0", _number),
    "z_theta": ("z.theta", _number),
    "delta_start": ("grids.delta.start", _number),
    "delta_stop": ("grids.delta.stop", _number),
    "delta_count": ("grids.delta.count", _count),
    "t_periods": ("grids.t.periods", _number),
    "t_samples_per_period": ("grids.t.samples_per_period", _count),
    "guard": ("guard", _number),
    "steps": ("steps", _count),
    "out_dir": ("out_dir", _string),
}


def _flatten(raw: dict, where: str = "") -> dict:
    """Map each dotted key of the config file to its leaf value, refusing
    unknown keys, sections that are not objects and a partial grids.delta."""
    flat = {}
    for key, value in raw.items():
        name = where + key
        under = [k for k, _ in _FIELDS.values() if (k + ".").startswith(name + ".")]
        if "." in key or not under:
            raise ConfigError(f"unknown key {name}")
        if under == [name]:
            flat[name] = value
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {name} must be an object")
        section = _flatten(value, name + ".")
        if name == "grids.delta":
            for part in under:
                if part not in section:
                    raise ConfigError(f"missing key {part}")
        flat.update(section)
    return flat


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, validating structure and values."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    flat = _flatten(raw)
    kwargs = {n: parse(flat[k], k) for n, (k, parse) in _FIELDS.items() if k in flat}
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(config: RunConfig) -> dict:
    """Round-trippable JSON form of a configuration."""
    out: dict = {}
    for name, (key, _) in _FIELDS.items():
        value = getattr(config, name)
        if isinstance(value, complex):
            value = value.real if value.imag == 0.0 else [value.real, value.imag]
        *sections, leaf = key.split(".")
        section = out
        for head in sections:
            section = section.setdefault(head, {})
        section[leaf] = value
    return out
