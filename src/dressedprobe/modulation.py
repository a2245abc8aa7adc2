"""Sideband modulation of the probe envelope.

The probe envelope acquires a multiplicative prefactor exp(G(z, t)).  The
complex exponent is a two-term harmonic in the generalized Rabi frequency,

    G(z, t) = c1(z) exp(+i w' t) + c2(z) exp(-i w' t),

with z-dependent coefficients that vanish at the entry face:

    c1(z) = +K conj(alpha) beta  (1 - exp(-i w' z / c)) b1,
    c2(z) = -K alpha conj(beta) (1 - exp(+i w' z / c)) b2,

where K = 2 pi rho d^2 omega0^2 rabi / (hbar omega w'^3) and b1, b2 are the
red- and blue-sideband resonance brackets.  Re G is a zero-mean sinusoid in
time whose amplitude (the modulation depth) controls pulse contrast; Im G
is pure phase modulation.  The exponent is proportional to the coherence
alpha * beta, so a gas prepared in a single dressed state is not modulated
at all.

The probe frequency enters only through a1 = K conj(alpha) beta b1 and
a2 = K alpha conj(beta) b2.  ``sideband_amplitudes`` evaluates them for an
array of probe frequencies and marks poles in a mask (``strict`` raises
ResonancePole instead).  ``exponent_grid`` gives G over a (z, t) grid and
``exponent_sweep`` over probe frequencies and t; a single value is the
[0, 0] cell of a one-point grid.  ``modulation_depth`` is the closed-form
amplitude of Re G and ``intensity_gain`` turns G into exp(2 Re G).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import CGS, DEFAULT_GUARD
from .dispersion import resonance_denominators
from .dressed import DressedGas, _split_offsets
from .errors import ConfigError


def _brackets(gas: DressedGas, dens) -> tuple:
    """b1 = (w'+detuning)/(wp-w) + (w'-detuning)/(wp-w+w') and
    b2 = (w'-detuning)/(wp-w) + (w'+detuning)/(wp-w-w') from the three
    resonance denominators."""
    delta_po, den_plus, den_minus = dens
    minus, plus = _split_offsets(gas.detuning, gas.rabi)
    b1 = plus / delta_po + minus / den_plus
    b2 = minus / delta_po + plus / den_minus
    return b1, b2


def k_scale(gas: DressedGas, probe_omega):
    """Exponent scale K = 2 pi rho d^2 w0^2 rabi/(hbar w w'^3); w may be an array."""
    omega_prime = gas.omega_prime
    return (
        2.0
        * math.pi
        * gas.rho
        * gas.d_squared
        * gas.omega0**2
        * gas.rabi
        / (CGS.hbar * probe_omega * omega_prime**3)
    )


def sideband_amplitudes(
    gas: DressedGas,
    probe_omega,
    guard: float = DEFAULT_GUARD,
    *,
    strict: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a1 = K conj(alpha) beta b1 and a2 = K alpha conj(beta) b2.

    Also returns the pole mask of all three resonance denominators; the
    amplitudes are meaningless under it, and ``strict`` raises instead.
    """
    omega = np.asarray(probe_omega, dtype=float)
    dens, pole = resonance_denominators(gas, omega, guard, strict=strict)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b1, b2 = _brackets(gas, dens)
        scale = k_scale(gas, omega)
        a1 = scale * gas.alpha.conjugate() * gas.beta * b1
        a2 = scale * gas.alpha * gas.beta.conjugate() * b2
    return a1, a2, pole


def modulation_depth(
    gas: DressedGas,
    probe_omega: float,
    z: float,
    guard: float = DEFAULT_GUARD,
) -> float:
    """Amplitude R(z) of the sinusoid Re G(z, t) = R cos(w' t + psi) for
    the probe angular frequency ``probe_omega`` in rad/s.

    R controls the intensity contrast exp(+-2R) of the pulse train and is
    periodic in z with the spatial modulation period 2 pi c / w'.
    """
    if z < 0:
        raise ValueError("z must be non-negative")
    a1, a2, _ = sideband_amplitudes(gas, [probe_omega], guard, strict=True)
    # |c1 + conj(c2)| = |1 - exp(-i w' z / c)| |a1 - conj(a2)|
    ramp = 2.0 * abs(math.sin(0.5 * gas.omega_prime * z / CGS.c))
    return ramp * float(abs(a1[0] - np.conj(a2[0])))


def _exponent(a1, a2, omega_prime: float, z, t) -> np.ndarray:
    """G over the (len(z), len(t)) grid; a1 and a2 broadcast against z.

    The operand shapes pick numpy's complex-multiply loop and with it
    whether a fused multiply-add rounds, so every caller shares them.
    """
    theta = omega_prime * np.asarray(z, dtype=float) / CGS.c
    ramp_red = (1.0 - np.exp(-1j * theta))[:, None]
    ramp_blue = (1.0 - np.exp(1j * theta))[:, None]
    wt = np.exp(1j * omega_prime * np.asarray(t, dtype=float))[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        return a1 * ramp_red * wt - a2 * ramp_blue * np.conj(wt)


def exponent_grid(
    gas: DressedGas,
    probe_omega: float,
    z: np.ndarray,
    t: np.ndarray,
    guard: float = DEFAULT_GUARD,
) -> np.ndarray:
    """Vectorized G over the outer product of z and t grids.

    Returns a complex array of shape (len(z), len(t)) for one probe
    frequency, for residual checks and time series.
    """
    if np.any(np.asarray(z) < 0):
        raise ValueError("z must be non-negative")
    a1, a2, _ = sideband_amplitudes(gas, [probe_omega], guard, strict=True)
    return _exponent(a1[0], a2[0], gas.omega_prime, z, t)


def exponent_sweep(
    gas: DressedGas,
    probe_omega: np.ndarray,
    z: float,
    t: np.ndarray,
    guard: float = DEFAULT_GUARD,
) -> tuple[np.ndarray, np.ndarray]:
    """G at plane z, shape (len(probe_omega), len(t)), and the pole mask.

    Row i equals ``exponent_grid`` at probe_omega[i]; rows under the mask
    of ``sideband_amplitudes`` are meaningless.
    """
    if z < 0:
        raise ValueError("z must be non-negative")
    a1, a2, pole = sideband_amplitudes(gas, probe_omega, guard)
    g = _exponent(a1[:, None], a2[:, None], gas.omega_prime, [z], t)
    return g, pole


def intensity_gain(g: np.ndarray) -> np.ndarray:
    """Probe intensity gain exp(2 Re G) of an array of exponents.

    Raises
    ------
    ConfigError
        If some |2 Re G| is too large for exp in double precision, or NaN.
    """
    twice_re = 2.0 * g.real
    if not float(np.max(np.abs(twice_re))) <= 709.0:
        raise ConfigError(
            "intensity gain exceeds double-precision range at these "
            "parameters; reduce rho, the coherence, or the plane depth"
        )
    return np.exp(twice_re)
