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
modulation's denominators, and refuses a non-positive probe frequency;
it and ``index_parts`` take arrays of probe frequencies and
mark poles in a mask, which ``refractive_index`` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS
from .dressed import DressedGas, _split_offsets
from .errors import ResonancePole, ZeroDipole


@dataclass(frozen=True)
class DispersionResult:
    """Refractive index split into its two physical contributions.

    n0 is ``1.0 + dipole_part + beyond_dipole_part`` rounded; the split lets
    the non-saturating beyond-dipole term be explored parametrically.
    """

    n0: float
    dipole_part: float
    beyond_dipole_part: float


def resonance_denominators(
    gas: DressedGas,
    probe_omega,
    *,
    rayleigh: bool = True,
    strict: bool = False,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """omega_p - omega and omega_p - omega +- omega_prime, and the pole mask.

    A guarded denominator is at a pole unless |den| > gas.guard (NaN is a
    pole); omega_p - omega is guarded only if ``rayleigh``.  ``strict``
    raises ResonancePole for the first pole in the order of the result.
    A probe frequency that is not strictly positive raises ValueError;
    every closed-form evaluation passes through here.
    """
    omega = np.asarray(probe_omega, dtype=float)
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
        if strict and inside.any():
            raise ResonancePole(name, float(np.extract(inside, den)[0]), gas.guard)
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


def index_parts(
    gas: DressedGas,
    probe_omega,
    *,
    strict: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dipole and beyond-dipole parts of n0 - 1 at each probe frequency.

    Also returns the pole mask; the parts are meaningless under it.
    """
    omega = np.asarray(probe_omega, dtype=float)
    (_, den_plus, den_minus), pole = resonance_denominators(
        gas, omega, rayleigh=False, strict=strict
    )
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
    return dipole_part, beyond_part, pole


def refractive_index(gas: DressedGas, probe_omega: float) -> DispersionResult:
    """Evaluate the probe refractive index n0(omega).

    Parameters
    ----------
    probe_omega : float
        Probe angular frequency, rad/s.

    Raises
    ------
    ResonancePole
        If a sideband denominator lies within ``gas.guard`` of zero; the
        message names the offending denominator.
    """
    dipole, beyond, _ = index_parts(gas, [probe_omega], strict=True)
    dipole, beyond = float(dipole[0]), float(beyond[0])
    return DispersionResult(
        n0=1.0 + dipole + beyond,
        dipole_part=dipole,
        beyond_dipole_part=beyond,
    )


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
