"""Exception types for invalid physical or numerical regimes."""

from __future__ import annotations


class DressedProbeError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateDressing(DressedProbeError):
    """Detuning and Rabi frequency both vanish; dressed states undefined."""


class ZeroRabi(DressedProbeError):
    """Pump Rabi frequency is zero; dressed admixtures are undefined."""


class ZeroDipole(DressedProbeError):
    """Dipole matrix element is zero; dipole-relative ratios undefined."""


class ResonancePole(DressedProbeError):
    """A resonance denominator fell inside the configured guard band."""

    def __init__(self, denominator: str, value: float, guard: float):
        self.denominator = denominator
        self.value = value
        self.guard = guard
        super().__init__(
            f"denominator {denominator} = {value:.6g} rad/s lies within the "
            f"guard band (+-{guard:.6g} rad/s) around a resonance pole"
        )


class ShallowModulation(DressedProbeError):
    """Modulation too shallow for the requested pulse measure."""


class UnderSampled(DressedProbeError):
    """Series does not meet the span or sampling-density preconditions."""


class StepTooCoarse(DressedProbeError):
    """Integration step density is below the accuracy floor."""


class GridTooCoarse(DressedProbeError):
    """Finite-difference grid is below the accuracy floor."""


class ConfigError(DressedProbeError):
    """Run configuration failed validation."""
