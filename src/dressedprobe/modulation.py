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

The probe frequency enters only through a1 = K conj(alpha) beta b1,
a2 = K alpha conj(beta) b2 and, in ln A, the index n0 - 1, with the n0
``dispersion.index_parts`` gives.  ``derive_coefficients`` evaluates
them once, at one probe frequency or an array of them, and a config keeps
those at its probe frequency (``RunConfig.coefficients``); the functions
below read its result and evaluate nothing else.  ``exponent_grid`` is
the one evaluation of G: over a (z, t) grid at one frequency, or over an
array's frequencies and t at one plane; a single value is the [0, 0] cell
of a one-point grid.
``modulation_depth`` is the closed-form amplitude of Re G,
``intensity_gain`` turns G into exp(2 Re G), and ``gain_series`` samples
that gain over time at one plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constants import CGS
from .dispersion import _as_array, _index_terms, resonance_denominators
from .dressed import DressedGas, _split_offsets
from .errors import ConfigError

if TYPE_CHECKING:
    from .pulsetrain import TimeSeries


@dataclass(frozen=True)
class RweCoefficients:
    """The closed form's inputs at one probe frequency or an array of them:
    the index n0 - 1, the sideband amplitudes a1, a2, and the pole mask under
    which they are meaningless.  The oracle reads only the coefficients
    d_coef, ls and rs derived from them, independent of z and t.
    """

    omega_prime: float
    probe_omega: float | np.ndarray
    index: float | np.ndarray
    a1: complex | np.ndarray
    a2: complex | np.ndarray
    pole: bool | np.ndarray = False

    @property
    def d_coef(self):
        return self.probe_omega * self.index / CGS.c

    @property
    def ls(self):
        return self.omega_prime / CGS.c * self.a1

    @property
    def rs(self):
        return self.omega_prime / CGS.c * self.a2


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
    return (
        2.0
        * math.pi
        * gas.rho
        * gas.d_squared
        * gas.omega0**2
        * gas.rabi
        / (CGS.hbar * probe_omega * gas.omega_prime**3)
    )


def derive_coefficients(gas: DressedGas, probe_omega) -> RweCoefficients:
    """The closed form's inputs at the probe angular frequency
    ``probe_omega`` in rad/s, a scalar or an array, with fields of its shape.

    One pass over the resonance denominators, Rayleigh first, marks the
    poles; one frequency raises ResonancePole at the first instead, and is
    evaluated as a one-element array, as the operand shapes of
    ``exponent_grid`` require.
    """
    omega, scalar = _as_array(probe_omega)
    dens, pole = resonance_denominators(gas, probe_omega)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n0, _, _ = _index_terms(gas, omega, dens)
        index = n0 - 1.0
        b1, b2 = _brackets(gas, dens)
        scale = k_scale(gas, omega)
        a1 = scale * gas.alpha.conjugate() * gas.beta * b1
        a2 = scale * gas.alpha * gas.beta.conjugate() * b2
    fields = (index, a1, a2, pole)
    if scalar:
        omega, fields = probe_omega, [field[0] for field in fields]
    return RweCoefficients(gas.omega_prime, omega, *fields)


def _plane(z) -> np.ndarray:
    """The planes ``z`` as a float array, refused unless each is finite and
    non-negative (a NaN fails both comparisons)."""
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0) & (z < math.inf)):
        raise ValueError("z must be non-negative and finite")
    return z


def modulation_depth(coefs: RweCoefficients, z: float) -> float:
    """Amplitude R(z) of the sinusoid Re G(z, t) = R cos(w' t + psi) at the
    one probe frequency of ``coefs``.

    R controls the intensity contrast exp(+-2R) of the pulse train and is
    periodic in z with the spatial modulation period 2 pi c / w'.
    """
    _plane(z)
    # |c1 + conj(c2)| = |1 - exp(-i w' z / c)| |a1 - conj(a2)|
    ramp = 2.0 * abs(math.sin(0.5 * coefs.omega_prime * z / CGS.c))
    return ramp * float(abs(coefs.a1 - np.conj(coefs.a2)))


def exponent_grid(coefs: RweCoefficients, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized G over the outer product of z and t grids.

    At the one probe frequency of ``coefs`` the result has shape
    (len(z), len(t)).  An array of frequencies takes one plane z, and row i
    is G at the i-th frequency; rows under ``coefs.pole`` are meaningless.

    The operand shapes pick numpy's complex-multiply loop and with it
    whether a fused multiply-add rounds, so both cases share them.
    """
    z = _plane(z)
    a1, a2 = coefs.a1, coefs.a2
    if np.ndim(a1):
        # Else numpy would pair frequency i with plane i when the lengths match.
        if z.size != 1:
            raise ValueError("an array of probe frequencies takes exactly one plane z")
        a1, a2 = a1[:, None], a2[:, None]
    theta = coefs.omega_prime * z / CGS.c
    ramp_red = (1.0 - np.exp(-1j * theta))[:, None]
    ramp_blue = (1.0 - np.exp(1j * theta))[:, None]
    wt = np.exp(1j * coefs.omega_prime * np.asarray(t, dtype=float))[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        return a1 * ramp_red * wt - a2 * ramp_blue * np.conj(wt)


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


def gain_series(
    coefs: RweCoefficients, z: float, periods: float, samples_per_period: int
) -> TimeSeries:
    """Intensity gain at plane z from the arrival time z / c, over
    ``periods`` modulation periods of ``samples_per_period`` samples."""
    from .pulsetrain import TimeSeries  # here, so a sweep does not load it

    t0 = z / CGS.c
    dt = 2.0 * math.pi / coefs.omega_prime / samples_per_period
    t = t0 + dt * np.arange(round(periods * samples_per_period))
    g = exponent_grid(coefs, z=[z], t=t)[0]
    return TimeSeries(t0=t0, dt=dt, gains=intensity_gain(g))
