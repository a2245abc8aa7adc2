"""Probe-wave pulse trains in a gas of pump-dressed two-level atoms.

A monochromatic probe entering a gas prepared in a superposition of two
pump-dressed internal states picks up red- and blue-sideband components
offset by the generalized Rabi frequency.  The beat turns the probe into a
periodic train of pulses whose repetition period is set by that frequency
alone, while depth and width follow from the gas density and resonance
brackets.  This package evaluates the closed-form envelope, the dressed
refractive index including the beyond-dipole term, pulse-train statistics,
and an independent characteristic-integration oracle for the reduced wave
equation.

The gas is one object, ``DressedGas``: the two-level atoms (omega0, d, rho),
the pump that dresses them (detuning, rabi) and the prepared superposition
(alpha, beta).  Every closed-form function takes it first, and its pump
frequency ``omega_p = omega0 + detuning`` is strictly positive by
construction.

The envelope is evaluated on arrays: ``exponent_grid`` gives G and
``log_amplitude_grid`` ln A over a (z, t) grid, a single value being the
[0, 0] cell of a one-point grid; ``modulation_depth`` and
``refractive_index`` give the depth and index at one plane and frequency.

Units are Gaussian-CGS; every frequency is angular (rad/s).
"""

from .characteristics import (
    RweCoefficients,
    derive_coefficients,
    integrate_characteristic,
    log_amplitude_grid,
    residual_check,
)
from .config import GridSpec, RunConfig, config_from_dict, load_config
from .constants import CGS, DEFAULT_GUARD
from .dispersion import DispersionResult, beyond_dipole_fraction, refractive_index
from .dressed import DressedGas, generalized_rabi
from .errors import (
    ConfigError,
    DegenerateDressing,
    DressedProbeError,
    GridTooCoarse,
    ResonancePole,
    ShallowModulation,
    StepTooCoarse,
    UnderSampled,
    ZeroDipole,
)
from .modulation import (
    exponent_grid,
    k_scale,
    modulation_depth,
)
from .pulsetrain import (
    PulseTrainStats,
    TimeSeries,
    analyze_train,
    fwhm_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "CGS",
    "ConfigError",
    "DEFAULT_GUARD",
    "DegenerateDressing",
    "DispersionResult",
    "DressedGas",
    "DressedProbeError",
    "GridSpec",
    "GridTooCoarse",
    "PulseTrainStats",
    "ResonancePole",
    "RunConfig",
    "RweCoefficients",
    "ShallowModulation",
    "StepTooCoarse",
    "TimeSeries",
    "UnderSampled",
    "ZeroDipole",
    "analyze_train",
    "beyond_dipole_fraction",
    "config_from_dict",
    "derive_coefficients",
    "exponent_grid",
    "fwhm_closed_form",
    "generalized_rabi",
    "integrate_characteristic",
    "k_scale",
    "load_config",
    "log_amplitude_grid",
    "modulation_depth",
    "refractive_index",
    "residual_check",
]
