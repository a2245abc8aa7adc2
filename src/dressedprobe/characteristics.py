"""Independent validation of the closed-form envelope solution.

Along a characteristic line z = c (t - t_entry) the reduced wave equation
for the log-amplitude becomes an ordinary differential equation,

    d(ln A)/dz = i (D + ls exp(+i w' t) + rs exp(-i w' t)),

with constant coefficients: D = omega (n0 - 1) / c from the direct
(population-difference) response and two sideband coefficients
proportional to the dressed-state coherence,

    ls = +(w'/c) K conj(alpha) beta  b1,
    rs = +(w'/c) K alpha conj(beta) b2.

The coefficients are fixed by requiring the closed-form envelope to
satisfy the equation exactly, so the numerical integration (composite
Simpson, which is classical Runge-Kutta for this ln A-free right-hand side;
its fourth order is measured on the sideband part over 1000-2000 steps per
period) and the finite-difference residual provide checks that are
independent in their propagation, not in their inputs.

``log_amplitude_grid`` gives the closed-form ln A over a (z, t) grid;
``derive_coefficients``, ``integrate_characteristic`` and ``residual_check``
are the oracle side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS, DEFAULT_GUARD
from .dispersion import refractive_index
from .dressed import DressedGas
from .modulation import exponent_grid, sideband_amplitudes
from .errors import GridTooCoarse, StepTooCoarse
from .pulsetrain import MIN_GRID_PER_PERIOD, is_uniform

#: Minimum integration steps per spatial modulation period traversed.
MIN_STEPS_PER_PERIOD = 1000

#: Most steps per period a config may ask for.  Simpson's error on the
#: e^{+-iw'z/c} terms, (2 pi / n)**4 / 2880 of the span at n steps per
#: period, is 4.7e-19 here, far below rounding.
MAX_STEPS_PER_PERIOD = 2**15


@dataclass(frozen=True)
class RweCoefficients:
    """Constant coefficients of the reduced wave equation along z.

    d_coef is real (lossless direct response); ls and rs are complex and
    independent of z and t by construction.
    """

    d_coef: float
    ls: complex
    rs: complex
    omega_prime: float


def derive_coefficients(
    gas: DressedGas,
    probe_omega: float,
    guard: float = DEFAULT_GUARD,
) -> RweCoefficients:
    """Assemble the constant coefficients of the reduced wave equation at
    the probe angular frequency ``probe_omega`` in rad/s.

    The direct term vanishes for a balanced superposition and the sideband
    terms vanish for a pure dressed state, mirroring which part of the
    atomic response each one represents.
    """
    disp = refractive_index(gas, probe_omega, guard)
    a1, a2, _ = sideband_amplitudes(gas, [probe_omega], guard, strict=True)
    rate = gas.omega_prime / CGS.c
    return RweCoefficients(
        d_coef=probe_omega * (disp.n0 - 1.0) / CGS.c,
        ls=complex(rate * a1[0]),
        rs=complex(rate * a2[0]),
        omega_prime=gas.omega_prime,
    )


def _rhs(coefs: RweCoefficients, t: np.ndarray) -> np.ndarray:
    """i (D + ls exp(+i w' t) + rs exp(-i w' t)) at times t."""
    w = np.exp(1j * coefs.omega_prime * t)
    return 1j * (coefs.d_coef + coefs.ls * w + coefs.rs * np.conj(w))


def integrate_characteristic(
    coefs: RweCoefficients, z_end: float, t_entry: float, steps: int
) -> complex:
    """Integrate the log-amplitude ODE along one characteristic.

    Composite Simpson quadrature with ``steps`` panels from z = 0 to z_end
    for a ray entering the medium at time t_entry, which equals classical
    fourth-order Runge-Kutta because the right-hand side does not depend
    on ln A.  The weighted right-hand sides at the 2 steps + 1 nodes are
    evaluated as one array, held in memory as every grid function's is, and
    its real and imaginary parts are summed exactly.  Returns ln A(z_end);
    the initial log-amplitude is zero.

    Raises
    ------
    StepTooCoarse
        If fewer than 1000 steps per spatial modulation period traversed.
    """
    if z_end < 0:
        raise ValueError("z_end must be non-negative")
    if z_end == 0.0:
        return 0.0 + 0.0j
    length_period = 2.0 * math.pi * CGS.c / coefs.omega_prime
    required = math.ceil(MIN_STEPS_PER_PERIOD * z_end / length_period - 1e-9)
    if steps < max(1, required):
        raise StepTooCoarse(
            f"{steps} steps over {z_end / length_period:.3g} modulation "
            f"periods; need >= {max(1, required)}"
        )

    h = z_end / steps
    weights = np.full(2 * steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    z = np.arange(2 * steps + 1) * (0.5 * h)
    terms = (h / 6.0) * weights * _rhs(coefs, t_entry + z / CGS.c)
    return complex(
        math.fsum(memoryview(terms.real)), math.fsum(memoryview(terms.imag))
    )


def log_amplitude_grid(
    gas: DressedGas,
    probe_omega: float,
    z: np.ndarray,
    t: np.ndarray,
    guard: float = DEFAULT_GUARD,
) -> np.ndarray:
    """Closed-form ln A over the outer product of z and t grids at the
    probe angular frequency ``probe_omega`` in rad/s."""
    z = np.asarray(z, dtype=float)
    grid = exponent_grid(gas, probe_omega, z=z, t=t, guard=guard)
    disp = refractive_index(gas, probe_omega, guard)
    phase = 1j * probe_omega * (disp.n0 - 1.0) * z / CGS.c
    return grid + phase[:, None]


def residual_check(
    log_amplitude: np.ndarray,
    z: np.ndarray,
    t: np.ndarray,
    coefs: RweCoefficients,
) -> float:
    """Finite-difference residual of the reduced wave equation.

    Applies centered differences (d/dz + (1/c) d/dt) to a sampled ln A
    grid and compares with the right-hand side built from the constant
    coefficients.  Returns the maximum residual magnitude over interior
    points, normalized by the maximum right-hand-side magnitude (or the
    raw maximum when the right-hand side vanishes identically).  The
    residual shrinks by about 4x per grid halving (second order).

    Raises
    ------
    GridTooCoarse
        If either grid direction has fewer than ``MIN_GRID_PER_PERIOD`` (64)
        intervals per modulation period, or is not uniform (``is_uniform``;
        a NaN coordinate is not).
    """
    a = np.asarray(log_amplitude, dtype=complex)
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    if a.shape != (len(z), len(t)):
        raise ValueError("log_amplitude shape must be (len(z), len(t))")
    if len(z) < 3 or len(t) < 3:
        raise GridTooCoarse("need at least 3 grid points in each direction")
    dz = float(z[1] - z[0])
    dt = float(t[1] - t[0])
    if dz <= 0 or dt <= 0:
        raise ValueError("grids must be strictly increasing")
    if not (is_uniform(z) and is_uniform(t)):
        raise GridTooCoarse("grids must be uniform")
    period_t = 2.0 * math.pi / coefs.omega_prime
    period_z = period_t * CGS.c
    floor = MIN_GRID_PER_PERIOD * (1.0 - 1e-9)
    if period_z / dz < floor or period_t / dt < floor:
        raise GridTooCoarse(
            f"grid has {period_z / dz:.1f} x {period_t / dt:.1f} points per "
            f"modulation period; need >= {MIN_GRID_PER_PERIOD} in each"
        )

    lhs = (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * dz) + (
        a[1:-1, 2:] - a[1:-1, :-2]
    ) / (2.0 * dt * CGS.c)
    rhs_grid = np.broadcast_to(_rhs(coefs, t[1:-1])[None, :], lhs.shape)
    rhs_max = float(np.max(np.abs(rhs_grid)))
    residual = float(np.max(np.abs(lhs - rhs_grid)))
    if rhs_max == 0.0:
        return residual
    return residual / rhs_max
