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
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .constants import CGS, DEFAULT_GUARD
from .dressed import DressedGas, generalized_rabi
from .errors import ConfigError, DressedProbeError


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-d grid with inclusive endpoints."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("grid range must be finite")
        if self.count < 1:
            raise ConfigError("grid count must be >= 1")
        if self.count > 1 and self.stop <= self.start:
            raise ConfigError("grid stop must exceed start")

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


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
    z_theta: float | None = math.pi
    z_cm: float | None = None
    delta_grid: GridSpec = field(
        default_factory=lambda: GridSpec(-4e11, 4e11, 401)
    )
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
        if (self.z_theta is None) == (self.z_cm is None):
            raise ConfigError("exactly one of z.theta / z.cm must be set")
        for key, z in (("z.theta", self.z_theta), ("z.cm", self.z_cm)):
            if z is not None and z < 0:
                raise ConfigError(f"{key} must be non-negative, got {z!r}")
        if self.guard < 0:
            raise ConfigError("guard must be non-negative")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.t_periods <= 0 or self.t_samples_per_period < 1:
            raise ConfigError("time grid must be non-empty")
        try:
            omega_p = self.gas().omega_p
            if self.probe_omega() <= 0:
                raise ValueError("probe omega must be strictly positive")
        except (ValueError, DressedProbeError) as exc:
            raise ConfigError(f"invalid physical parameters: {exc}") from exc
        if omega_p - self.delta_grid.stop <= 0:
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
        if self.z_cm is not None:
            return self.z_cm
        return self.z_theta * CGS.c / self.omega_prime()


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


def _grid(value: dict, key: str) -> GridSpec:
    for part in ("start", "stop", "count"):
        if part not in value:
            raise ConfigError(f"missing key {key}.{part}")
    return GridSpec(
        start=_number(value["start"], f"{key}.start"),
        stop=_number(value["stop"], f"{key}.stop"),
        count=_count(value["count"], f"{key}.count"),
    )


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
    "z_cm": ("z.cm", _number),
    "delta_grid": ("grids.delta", _grid),
    "t_periods": ("grids.t.periods", _number),
    "t_samples_per_period": ("grids.t.samples_per_period", _count),
    "guard": ("guard", _number),
    "steps": ("steps", _count),
    "out_dir": ("out_dir", _string),
}

#: Config-file keys whose value is an object of further keys.
_SECTIONS = {
    "ensemble", "pump", "state", "probe", "z", "grids", "grids.delta", "grids.t"
}
_KEYS = (
    {key for key, _ in _FIELDS.values()}
    | _SECTIONS
    | {f"grids.delta.{part}" for part in ("start", "stop", "count")}
)


def _check_keys(raw: dict, where: str = "") -> None:
    """Refuse unknown keys and sections that are not objects."""
    for key, value in raw.items():
        name = where + key
        if "." in key or name not in _KEYS:
            raise ConfigError(f"unknown key {name}")
        if name in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {name} must be an object")
            _check_keys(value, name + ".")


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, validating structure and values."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw)
    kwargs = {}
    for name, (key, parse) in _FIELDS.items():
        *sections, leaf = key.split(".")
        section = raw
        for head in sections:
            section = section.get(head, {})
        if leaf in section:
            kwargs[name] = parse(section[leaf], key)
    zsec = raw.get("z", {})
    if "theta" in zsec and "cm" in zsec:
        raise ConfigError("z must set exactly one of theta / cm")
    if "cm" in zsec:
        kwargs["z_theta"] = None
    elif "theta" in zsec:
        kwargs["z_cm"] = None
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
        if value is None:
            continue
        if isinstance(value, complex):
            value = value.real if value.imag == 0.0 else [value.real, value.imag]
        elif isinstance(value, GridSpec):
            value = asdict(value)
        *sections, leaf = key.split(".")
        section = out
        for head in sections:
            section = section.setdefault(head, {})
        section[leaf] = value
    return out
