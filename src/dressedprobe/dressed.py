"""Two-level atoms dressed by a strong monochromatic pump.

A far off-resonance pump mixes the bare ground and excited states into two
dressed eigenstates split by the generalized Rabi frequency
``w' = sqrt(detuning^2 + rabi^2)``.  Everything downstream (refractive
index, sideband modulation, the pulse train) reads the pair through w' and
the two offsets ``w' -+ detuning`` of ``_split_offsets``.

Conventions: Gaussian-CGS units throughout, and every frequency-like
quantity is an *angular* frequency in rad/s.  The detuning is pump
frequency minus transition frequency and may take either sign.  The atoms,
the pump and the prepared state are one object, ``DressedGas``: every
closed-form quantity depends on all three.  Its pump frequency
omega_p = omega0 + detuning is a property, and a gas with omega_p <= 0
cannot be built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDressing


def generalized_rabi(detuning: float, rabi: float) -> float:
    """Splitting frequency sqrt(detuning^2 + rabi^2) of the dressed pair.

    This single frequency sets the sideband offsets and all modulation
    periods of the probe field.

    Parameters
    ----------
    detuning : float
        Pump minus transition angular frequency, rad/s.
    rabi : float
        Pump Rabi frequency, rad/s, non-negative.

    Returns
    -------
    float
        Strictly positive generalized Rabi frequency, rad/s.

    Raises
    ------
    DegenerateDressing
        If detuning and Rabi frequency are both zero.
    """
    if rabi < 0:
        raise ValueError("rabi must be non-negative")
    if detuning == 0.0 and rabi == 0.0:
        raise DegenerateDressing(
            "detuning and Rabi frequency cannot both vanish"
        )
    return math.hypot(detuning, rabi)


def _split_offsets(detuning: float, rabi: float) -> tuple[float, float]:
    """Return (omega_prime - detuning, omega_prime + detuning) stably.

    They are the dressed pair: in the pump's rotating frame its levels sit
    at +(omega_prime - detuning)/2 and -(omega_prime + detuning)/2, and
    their ground-state components are rabi / sqrt(2 omega_prime offset).
    One of the two offsets suffers catastrophic cancellation when
    rabi << |detuning|; it is recovered from the exact identity
    (omega_prime - detuning)(omega_prime + detuning) = rabi^2.
    """
    omega_prime = generalized_rabi(detuning, rabi)
    if detuning >= 0.0:
        plus = omega_prime + detuning
        minus = (rabi * rabi) / plus
    else:
        minus = omega_prime - detuning
        plus = (rabi * rabi) / minus
    return minus, plus


@dataclass(frozen=True)
class DressedGas:
    """Gas of identical two-level atoms, dressed by a strong monochromatic
    pump and prepared in a superposition of the two dressed states.

    Attributes
    ----------
    omega0 : float
        Transition angular frequency, rad/s.
    d : float
        Dipole matrix element, esu*cm (non-negative).
    rho : float
        Number density, cm^-3.
    detuning : float
        Pump minus transition angular frequency, rad/s, of either sign.
    rabi : float
        Pump Rabi frequency, rad/s (non-negative).
    alpha, beta : complex
        Amplitudes of the prepared dressed-state superposition.

    The pump dresses the atoms only through its detuning and Rabi
    frequency, so the dressed algebra never has to subtract two nearly
    equal optical frequencies.  A gas whose pump frequency
    omega_p = omega0 + detuning is not strictly positive cannot be built.
    """

    omega0: float
    d: float
    rho: float
    detuning: float
    rabi: float
    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        if self.omega0 <= 0:
            raise ValueError("omega0 must be strictly positive")
        if self.d < 0:
            raise ValueError("dipole matrix element must be non-negative")
        if self.rho < 0:
            raise ValueError("number density must be non-negative")
        # Raises DegenerateDressing when detuning and rabi both vanish.
        generalized_rabi(self.detuning, self.rabi)
        if self.omega_p <= 0:
            raise ValueError("omega_p must be strictly positive")
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(
                f"|alpha|^2 + |beta|^2 = {norm!r} must equal 1 within 1e-12"
            )

    @property
    def d_squared(self) -> float:
        return self.d * self.d

    @property
    def omega_prime(self) -> float:
        return generalized_rabi(self.detuning, self.rabi)

    @property
    def omega_p(self) -> float:
        """Pump angular frequency omega0 + detuning, rad/s."""
        return self.omega0 + self.detuning

    @property
    def population_difference(self) -> float:
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2
