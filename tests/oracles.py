"""Independent high-precision oracles used to freeze expected values.

These reimplement the closed-form expressions directly in 50-digit mpmath
arithmetic, sharing no code with the package under test.  Tests evaluate
them at runtime where cheap (dispersion, dressed algebra) and otherwise
assert against pre-computed constants in conftest.FROZEN.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50

# Same numeric constant choices as dressedprobe.constants, as exact decimals.
C = mp.mpf("2.99792458e10")
HBAR = mp.mpf("1.054571817e-27")
E_CHARGE = mp.mpf("4.80320471257e-10")
M_ELECTRON = mp.mpf("9.1093837015e-28")


def omega_prime(detuning, rabi):
    return mp.sqrt(mp.mpf(detuning) ** 2 + mp.mpf(rabi) ** 2)


def refractive_index_offset(
    omega0, d_squared, rho, detuning, rabi, pop_diff, probe_omega
):
    """n0 - 1 evaluated in high precision, split into its two parts."""
    omega0 = mp.mpf(omega0)
    d2 = mp.mpf(d_squared)
    rho = mp.mpf(rho)
    detuning = mp.mpf(detuning)
    rabi = mp.mpf(rabi)
    probe_omega = mp.mpf(probe_omega)
    w_prime = omega_prime(detuning, rabi)
    pump_omega = omega0 + detuning
    delta_po = pump_omega - probe_omega

    dip_plus = d2 * omega0**2 * (w_prime - detuning) ** 2 / (HBAR * w_prime**2)
    dip_minus = d2 * omega0**2 * (w_prime + detuning) ** 2 / (HBAR * w_prime**2)
    beyond = (E_CHARGE**2 / M_ELECTRON) * rabi**2 / w_prime
    prefactor = mp.pi * rho / (2 * probe_omega**2) * mp.mpf(pop_diff)
    den_plus = delta_po + w_prime
    den_minus = delta_po - w_prime
    dipole = prefactor * (dip_plus / den_plus - dip_minus / den_minus)
    beyond_part = prefactor * beyond * (1 / den_plus - 1 / den_minus)
    return dipole, beyond_part


def resonance_brackets(detuning, rabi, delta_po):
    detuning = mp.mpf(detuning)
    rabi = mp.mpf(rabi)
    delta_po = mp.mpf(delta_po)
    w_prime = omega_prime(detuning, rabi)
    b1 = (w_prime + detuning) / delta_po + (w_prime - detuning) / (
        delta_po + w_prime
    )
    b2 = (w_prime - detuning) / delta_po + (w_prime + detuning) / (
        delta_po - w_prime
    )
    return b1, b2


def exponent_scale(omega0, d_squared, rho, detuning, rabi, probe_omega):
    w_prime = omega_prime(detuning, rabi)
    return (
        2
        * mp.pi
        * mp.mpf(rho)
        * mp.mpf(d_squared)
        * mp.mpf(omega0) ** 2
        * mp.mpf(rabi)
        / (HBAR * mp.mpf(probe_omega) * w_prime**3)
    )
