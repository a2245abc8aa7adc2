"""Run configuration: JSON schema, defaults, and validated loading.

All frequencies are angular (rad/s), lengths are cm, and the dipole moment
is supplied squared in CGS units (esu^2 cm^2).  The compiled-in defaults
are the parameter set used throughout the documentation: a 1e15 rad/s
transition driven 2e11 rad/s below resonance with a 2e10 rad/s Rabi
frequency, probed 2e9 rad/s below the pump.

Each setting is one ``RunConfig`` field that carries its dotted key in the
config file and its default; the field's type annotation picks the parser
of its value.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .constants import (
    CGS,
    DEFAULT_GUARD,
    MAX_GRID_SAMPLES,
    MAX_PLANE_SAMPLES,
    MAX_STEPS_PER_PERIOD,
)
from .dressed import DressedGas
from .errors import ConfigError, DressedProbeError


def _setting(key: str, default):
    """A RunConfig field set by ``key`` of the config file."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for every experiment subcommand."""

    omega0: float = _setting("ensemble.omega0", 1e15)
    d_squared: float = _setting("ensemble.d_squared", 2e-34)
    rho: float = _setting("ensemble.rho", 2e15)
    detuning: float = _setting("pump.detuning", -2e11)
    rabi: float = _setting("pump.rabi", 2e10)
    alpha: complex = _setting("state.alpha", math.sqrt(0.99))
    beta: complex = _setting("state.beta", 0.1)
    probe_delta: float = _setting("probe.delta", 2e9)
    a0: float = _setting("probe.a0", 1.0)
    z_theta: float = _setting("z.theta", math.pi)
    delta_start: float = _setting("grids.delta.start", -4e11)
    delta_stop: float = _setting("grids.delta.stop", 4e11)
    delta_count: int = _setting("grids.delta.count", 401)
    t_periods: float = _setting("grids.t.periods", 3.0)
    t_samples_per_period: int = _setting("grids.t.samples_per_period", 1024)
    guard: float = _setting("guard", DEFAULT_GUARD)
    steps: int = _setting("steps", 4000)
    out_dir: str = _setting("out_dir", "out")
    _gas: DressedGas = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, key, _ in _SETTINGS:
            value = getattr(self, name)
            if isinstance(value, (float, complex)) and not cmath.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.delta_count < 1:
            raise ConfigError(f"grids.delta.count must be >= 1, got {self.delta_count}")
        if self.delta_count > MAX_GRID_SAMPLES:
            raise ConfigError(
                f"grids.delta.count must be <= {MAX_GRID_SAMPLES}, "
                f"got {self.delta_count}"
            )
        if self.delta_count > 1 and self.delta_stop <= self.delta_start:
            raise ConfigError("grids.delta.stop must exceed grids.delta.start")
        if self.z_theta < 0:
            raise ConfigError(f"z.theta must be non-negative, got {self.z_theta!r}")
        if not 1 <= self.steps <= MAX_STEPS_PER_PERIOD:
            raise ConfigError(
                f"steps must be in 1..{MAX_STEPS_PER_PERIOD}, got {self.steps}"
            )
        if self.t_periods <= 0 or self.t_samples_per_period < 1:
            raise ConfigError("grids.t.periods and samples_per_period must be positive")
        # validate's train check samples 4 periods whatever the config asks.
        if self.t_samples_per_period * max(self.t_periods, 4.0) > MAX_GRID_SAMPLES:
            raise ConfigError(
                "grids.t.samples_per_period * max(grids.t.periods, 4) must be "
                f"<= {MAX_GRID_SAMPLES}"
            )
        try:
            if self.d_squared < 0:
                raise ConfigError("d_squared must be non-negative")
            gas = DressedGas(
                omega0=self.omega0,
                d=math.sqrt(self.d_squared),
                rho=self.rho,
                detuning=self.detuning,
                rabi=self.rabi,
                alpha=self.alpha,
                beta=self.beta,
                guard=self.guard,
            )
            if gas.omega_p - self.probe_delta <= 0:
                raise ValueError("probe.delta must be below omega_p")
        except (ValueError, DressedProbeError) as exc:
            raise ConfigError(f"invalid physical parameters: {exc}") from exc
        object.__setattr__(self, "_gas", gas)
        largest = self.delta_stop if self.delta_count > 1 else self.delta_start
        if gas.omega_p - largest <= 0:
            key = "stop" if self.delta_count > 1 else "start"
            raise ConfigError(f"grids.delta.{key} reaches a non-positive probe omega")
        if not math.isfinite(self.omega_prime() * self.z_fixed() / CGS.c):
            raise ConfigError(
                f"z.theta = {self.z_theta!r} gives a non-finite phase w' z / c"
            )
        # evolve's time column starts at theta / w'; past this bound its ulp
        # nears the 1e-9 dt that pulse-stats allows a step to deviate.
        plane_samples = self.z_theta * self.t_samples_per_period
        if plane_samples > MAX_PLANE_SAMPLES:
            raise ConfigError(
                "z.theta * grids.t.samples_per_period must be <= "
                f"{MAX_PLANE_SAMPLES}, got {plane_samples!r}"
            )

    def gas(self) -> DressedGas:
        """The gas built and checked at load; ``replace`` builds a new one."""
        return self._gas

    def probe_omega(self) -> float:
        """Probe angular frequency in rad/s, probe.delta below the pump."""
        return self._gas.omega_p - self.probe_delta

    def omega_prime(self) -> float:
        return self._gas.omega_prime

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


def _float(value, key: str) -> float:
    """float(value) of a number; a JSON integer beyond the float range is
    refused."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{key} must be finite, got an integer too large for a float"
        ) from None


def _number(value, key: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number")
    return _float(value, key)


def _count(value, key: str) -> int:
    if not (_is_number(value) and _float(value, key).is_integer()):
        raise ConfigError(f"{key} must be a whole number")
    return int(value)


def _as_complex(value, key: str) -> complex:
    if _is_number(value):
        return complex(_float(value, key))
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(x) for x in value)
    ):
        return complex(_float(value[0], key), _float(value[1], key))
    raise ConfigError(f"{key} must be a number or a [re, im] pair")


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


#: Parser of a setting's value, by the annotation of its RunConfig field.
_PARSERS = {"float": _number, "int": _count, "complex": _as_complex, "str": _string}

#: (RunConfig field, its key in the config file, parser of its value).
_SETTINGS = [
    (f.name, f.metadata["key"], _PARSERS[f.type]) for f in fields(RunConfig) if f.init
]


def _flatten(raw: dict, where: str = "") -> dict:
    """Map each dotted key of the config file to its leaf value, refusing
    unknown keys, sections that are not objects and a partial grids.delta."""
    flat = {}
    for key, value in raw.items():
        name = where + key
        under = [k for _, k, _ in _SETTINGS if (k + ".").startswith(name + ".")]
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
    kwargs = {n: parse(flat[k], k) for n, k, parse in _SETTINGS if k in flat}
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(config: RunConfig) -> dict:
    """Round-trippable JSON form of a configuration."""
    out: dict = {}
    for name, key, _ in _SETTINGS:
        value = getattr(config, name)
        if isinstance(value, complex):
            value = value.real if value.imag == 0.0 else [value.real, value.imag]
        *sections, leaf = key.split(".")
        section = out
        for head in sections:
            section = section.setdefault(head, {})
        section[leaf] = value
    return out
