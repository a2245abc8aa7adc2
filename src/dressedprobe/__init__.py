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

The envelope is evaluated on arrays: ``exponent_grid(gas, omega, z, t)``
gives G and ``log_amplitude_grid(derive_coefficients(gas, omega), z, t)``
ln A over a (z, t) grid, a single value being the [0, 0] cell of a
one-point grid; ``modulation_depth`` and ``refractive_index`` give the
depth and index at one plane and frequency.

Units are Gaussian-CGS; every frequency is angular (rad/s).

Each public name resolves on first access: ``dressedprobe.exponent_grid``
imports ``dressedprobe.modulation`` then, so importing the package, or one
of its modules, loads no module that is not used.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "characteristics": "RweCoefficients derive_coefficients "
        "integrate_characteristic log_amplitude_grid residual_check",
        "config": "RunConfig config_from_dict load_config",
        "constants": "CGS DEFAULT_GUARD",
        "dispersion": "DispersionResult beyond_dipole_fraction refractive_index",
        "dressed": "DressedGas generalized_rabi",
        "errors": "ConfigError DegenerateDressing DressedProbeError GridTooCoarse "
        "ResonancePole ShallowModulation StepTooCoarse UnderSampled ZeroDipole",
        "modulation": "exponent_grid k_scale modulation_depth",
        "pulsetrain": "PulseTrainStats TimeSeries analyze_train fwhm_closed_form",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
