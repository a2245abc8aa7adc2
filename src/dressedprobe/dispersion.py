"""Ordinary refractive index of the dressed gas for a weak probe.

The index consists of two sideband-resonant terms.  Each term carries a
dipole contribution scaling with d^2 omega0^2 and a second contribution
(e^2/m)(rabi^2/omega_prime) that survives beyond the dipole approximation
of the probe coupling.  The whole correction to n = 1 is proportional to
the dressed-state population difference, so a balanced superposition or an
empty cell leaves the probe undispersed.

The model is lossless: the index is purely real and diverges at the two
sideband resonances.  Evaluation inside the gas's guard band around those
poles (``DressedGas.guard``, set from the config key ``guard``) is refused
rather than regularized.

``resonance_denominators`` owns the guard rule for these and the
modulation's denominators, and refuses a non-positive probe frequency.
It and ``index_parts``, the one evaluation of the index, take one probe
frequency or an array of them: one at a pole raises ResonancePole, and an
array marks its poles in a mask.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import CGS
from .dressed import DressedGas, _split_offsets
from .errors import ResonancePole, ZeroDipole


def _as_array(probe_omega) -> tuple[np.ndarray, bool]:
    """``probe_omega`` as a float array, one frequency as a one-element
    array, and whether it was one frequency."""
    scalar = np.ndim(probe_omega) == 0
    return np.asarray([probe_omega] if scalar else probe_omega, dtype=float), scalar


def resonance_denominators(
    gas: DressedGas, probe_omega, *, rayleigh: bool = True
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """omega_p - omega and omega_p - omega +- omega_prime, and the pole mask,
    as arrays (of one element for one probe frequency).

    A guarded denominator is at a pole unless |den| > gas.guard (NaN is a
    pole); omega_p - omega is guarded only if ``rayleigh``.  One probe
    frequency at a pole raises ResonancePole for the first pole in the
    order of the result; an array marks its poles in the mask.  A probe
    frequency that is not strictly positive raises ValueError; every
    closed-form evaluation passes through here.
    """
    omega, scalar = _as_array(probe_omega)
    if np.any(omega <= 0):
        raise ValueError("probe_omega must be strictly positive")
    delta_po = gas.omega_p - omega
    omega_prime = gas.omega_prime
    named = (
        ("omega_p - omega", delta_po),
        ("omega_p - omega + omega_prime", delta_po + omega_prime),
        ("omega_p - omega - omega_prime", delta_po - omega_prime),
    )
    pole = np.zeros(delta_po.shape, dtype=bool)
    for name, den in named[0 if rayleigh else 1 :]:
        inside = ~(np.abs(den) > gas.guard)
        if scalar and inside[0]:
            raise ResonancePole(name, float(den[0]), gas.guard)
        pole |= inside
    return tuple(den for _, den in named), pole


def _numerators(gas: DressedGas) -> tuple:
    """Dipole numerators of the red and blue sideband terms, then the
    beyond-dipole numerator (e^2/m)(rabi^2/omega_prime)."""
    omega_prime = gas.omega_prime
    minus, plus = _split_offsets(gas.detuning, gas.rabi)
    d2w2 = gas.d_squared * gas.omega0**2
    dip_plus = d2w2 * minus * minus / (CGS.hbar * omega_prime**2)
    dip_minus = d2w2 * plus * plus / (CGS.hbar * omega_prime**2)
    beyond = (CGS.e**2 / CGS.m) * gas.rabi**2 / omega_prime
    return dip_plus, dip_minus, beyond


def index_parts(gas: DressedGas, probe_omega) -> tuple:
    """n0 and the dipole and beyond-dipole parts of n0 - 1 at the probe
    angular frequency ``probe_omega`` in rad/s, a scalar or an array, with
    the pole mask; the parts are meaningless under it.

    One frequency within ``gas.guard`` of a sideband pole raises
    ResonancePole naming the first such denominator.
    """
    omega, scalar = _as_array(probe_omega)
    dens, pole = resonance_denominators(gas, probe_omega, rayleigh=False)
    parts = (*_index_terms(gas, omega, dens), pole)
    return tuple(part[0] for part in parts) if scalar else parts


def _index_terms(gas: DressedGas, omega: np.ndarray, dens) -> tuple:
    """n0 = 1.0 + dipole + beyond, summed in that order, and the dipole and
    beyond-dipole parts of n0 - 1, from the resonance denominators ``dens``
    of the probe frequencies ``omega``."""
    _, den_plus, den_minus = dens
    dip_plus, dip_minus, beyond = _numerators(gas)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # libm pow, which Python's float ** 2 uses; numpy's x**2 is x*x.
        prefactor = (
            math.pi
            * gas.rho
            / (2.0 * np.float_power(omega, 2.0))
            * gas.population_difference
        )
        dipole_part = prefactor * (dip_plus / den_plus - dip_minus / den_minus)
        beyond_part = prefactor * beyond * (1.0 / den_plus - 1.0 / den_minus)
        n0 = 1.0 + dipole_part + beyond_part  # inf - inf where K overflows
    return n0, dipole_part, beyond_part


def beyond_dipole_fraction(gas: DressedGas) -> float:
    """Ratio of the beyond-dipole to the larger dipole numerator.

    The larger one carries (omega_prime + |detuning|)^2: it is the red
    sideband's d^2 omega0^2 (omega_prime - detuning)^2 / (hbar
    omega_prime^2) for red detuning and the blue sideband's, with
    omega_prime + detuning, for blue detuning.  The ratio to
    (e^2/m)(rabi^2/omega_prime) then goes as
    rabi^2 omega_prime / (omega_prime + |detuning|)^2, which grows without
    bound in the pump Rabi frequency for either sign of the detuning: the
    non-saturating signature of the beyond-dipole coupling.

    Raises
    ------
    ZeroDipole
        If the gas has no dipole moment to compare against.
    """
    if gas.d == 0:
        raise ZeroDipole("dipole matrix element is zero")
    if gas.rabi == 0:
        return 0.0
    dip_plus, dip_minus, beyond = _numerators(gas)
    return beyond / max(dip_plus, dip_minus)
