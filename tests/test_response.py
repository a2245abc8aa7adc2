"""First-order response theory on the ``np.linalg.eigh`` basis of the pump.

An oracle that builds the dressed pair itself instead of reading the
closed form's inputs.  Conventions, with every frequency angular (rad/s)
and hbar = 1 inside the Hamiltonian:

- Basis (g, e), the pump's rotating frame at omega_p = omega0 + detuning,
  the rotating-wave approximation and d.E coupling:
  H0 = [[0, -rabi/2], [-rabi/2, -detuning]].
- Labelling: the dressed pair is ``np.linalg.eigh(H0)`` ordered by the
  larger shift, |+> first, with each ground component made positive.
  |+> and |-> then sit at +(w' - detuning)/2 and -(w' + detuning)/2.
- Probe: E = (eps/2) exp(-i omega t) + c.c. with Rabi frequency
  eps_R = d eps / hbar.  In the rotating frame it couples as
  V = W exp(i delta t) + W^dagger exp(-i delta t), W = -(eps_R/2)|e><g|,
  with delta = omega_p - omega.
- State: alpha|+> + beta|->.  To first order in eps_R, each component
  c_j |j> exp(-i lambda_j t) drives the steady-state amplitude
  c_j <k|W|j> / (lambda_j - delta - lambda_k) on
  |k> exp(-i (lambda_j - delta) t), and the W^dagger term with +delta.
- Polarization: P+ = rho d c_g* c_e exp(-i omega_p t).  The parts of
  c_g* c_e at exp(i delta t) and exp(i (delta +- w') t) radiate at omega
  and omega -+ w'.  Each gives chi = 2 rho d^2 (part) / (hbar eps_R).
- Map: n0 - 1 <-> 2 pi chi_0, and ls, rs <-> 2 pi omega chi_+- / c.  Each
  carries the (omega0/omega)^2 by which the closed form's p.A coupling
  differs from d.E.

The closed form equals this theory in every denominator, bracket weight
and scale, up to one constant per part: its dipole part of n0 - 1 is
INDEX_CONSTANT times the theory's and its ls and rs are SIDEBAND_CONSTANT
times.  The textbook values would be +1 and +1.  Which constants are right
is for a derivation to settle; this test pins the ones the closed form has.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from dressedprobe import CGS, derive_coefficients, refractive_index
from dressedprobe.dressed import _split_offsets
from dressedprobe.validation import _ORACLE_SETS

from conftest import DETUNING, FROZEN, PROBE_DELTA, RABI, documented_gas

INDEX_CONSTANT = -1.0
SIDEBAND_CONSTANT = 2.0

#: Unit roundoff of double precision.
U = np.finfo(float).eps / 2

#: Rounded operations that one set's ratio can accumulate, in units of
#: u kappa (see ``_parts``): per side, a denominator's two roundings
#: amplified by kappa_den plus at most ten products and quotients per term,
#: so 12 u kappa_den kappa_sum; two sides and the ratio's own eight.
ROUNDINGS = 2 * 12 + 8


def dressed_pair(detuning: float, rabi: float) -> tuple[np.ndarray, np.ndarray]:
    """Levels (lambda+, lambda-) and eigenvectors (columns, rows g and e)."""
    h0 = np.array([[0.0, -rabi / 2], [-rabi / 2, -detuning]])
    levels, vectors = np.linalg.eigh(h0)
    levels, vectors = levels[::-1], vectors[:, ::-1]
    return levels, vectors * np.where(vectors[0] < 0, -1.0, 1.0)


def _parts(gas, probe_omega: float) -> tuple[dict, float]:
    """chi_s for s = 0, +1, -1 (parts at exp(i (delta + s w') t)), each with
    kappa_sum = sum |terms| / |sum|, and kappa_den = max (|delta| + w') /
    |den| over the denominators delta and delta +- w'.  eps_R = 1."""
    levels, (v_g, v_e) = dressed_pair(gas.detuning, gas.rabi)
    delta = gas.omega_p - probe_omega
    amp = np.array([gas.alpha, gas.beta])
    w = -0.5 * np.outer(v_e, v_g)  # <k|W|j>
    down = w * amp / (levels - delta - levels[:, None])
    up = w.T * amp / (levels + delta - levels[:, None])
    terms = {0: [], 1: [], -1: []}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                # |+> is index 0, so lambda_i - lambda_j = (j - i) w'.
                terms[j - i].append(v_g[i] * np.conj(amp[i]) * v_e[k] * down[k, j])
                terms[i - j].append(v_g[k] * np.conj(up[k, j]) * v_e[i] * amp[i])
    scale = 2.0 * gas.rho * gas.d_squared / CGS.hbar
    chi = {}
    for s, ts in terms.items():
        total = sum(ts)
        spread = sum(abs(t) for t in ts)
        chi[s] = (scale * total, spread / abs(total) if total else math.inf)
    w_prime = gas.omega_prime
    kappa_den = max(
        (abs(delta) + w_prime) / abs(delta + s * w_prime) for s in (0, 1, -1)
    )
    return chi, kappa_den


def _oracle_gas(gas, detuning, rabi, b, phase, rho):
    return replace(
        gas,
        rho=rho,
        detuning=detuning,
        rabi=rabi,
        alpha=math.sqrt(1.0 - b * b),
        beta=b * complex(math.cos(phase), math.sin(phase)),
    )


def _sets() -> list[tuple]:
    """(gas, probe_omega): the documented set, the validate oracle sets and
    200 seeded draws with the probe 0.01-2 w' from the pump, either side."""
    documented = documented_gas()
    sets = [(documented, documented.omega_p - PROBE_DELTA)]
    for detuning, rabi, offset, b, phase, rho in _ORACLE_SETS:
        gas = _oracle_gas(documented, detuning, rabi, b, phase, rho)
        sets.append((gas, gas.omega_p - offset * gas.omega_prime))
    rng = np.random.default_rng(20)
    for _ in range(200):
        detuning = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(9, 12)
        rabi = 10 ** rng.uniform(8, math.log10(3e11))
        offset = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0)
        b, phase = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2 * math.pi)
        rho = 10 ** rng.uniform(12, 16)
        gas = _oracle_gas(documented, detuning, rabi, b, phase, rho)
        sets.append((gas, gas.omega_p - offset * gas.omega_prime))
    return sets


SETS = _sets()


def test_eigh_pair_matches_frozen():
    levels, vectors = dressed_pair(DETUNING, RABI)
    assert levels[0] == pytest.approx(FROZEN["lambda_plus"], rel=1e-12)
    assert levels[1] == pytest.approx(FROZEN["lambda_minus"], rel=1e-12)
    assert vectors[0, 0] == pytest.approx(FROZEN["n_plus"], rel=1e-12)
    assert vectors[0, 1] == pytest.approx(FROZEN["n_minus"], rel=1e-12)


def test_split_offsets_are_the_eigh_pair():
    # eigh is backward stable: levels to a few u w', unit vectors to a few u.
    for gas, _ in SETS:
        levels, vectors = dressed_pair(gas.detuning, gas.rabi)
        minus, plus = _split_offsets(gas.detuning, gas.rabi)
        w_prime = gas.omega_prime
        assert np.abs(levels - (0.5 * minus, -0.5 * plus)).max() <= 8 * U * w_prime
        ground = gas.rabi / np.sqrt(2.0 * w_prime * np.array([minus, plus]))
        assert np.abs(vectors[0] - ground).max() <= 8 * U


def test_bare_limit_is_the_two_level_susceptibility():
    # A dark-enough pump and the dressed state that is mostly |g>:
    # chi_0 = rho d^2 / (hbar (omega0 - omega)), up to (rabi / 2 detuning)^2.
    for detuning in (-2e11, 2e11):
        gas = replace(documented_gas(), detuning=detuning, rabi=1e3)
        _, vectors = dressed_pair(gas.detuning, gas.rabi)
        ground = int(np.argmax(vectors[0]))
        gas = replace(gas, alpha=float(ground == 0), beta=float(ground == 1))
        probe_omega = gas.omega_p - PROBE_DELTA
        chi, _ = _parts(gas, probe_omega)
        bare = gas.rho * gas.d_squared / (CGS.hbar * (gas.omega0 - probe_omega))
        assert abs(chi[0][0] - bare) <= 1e-12 * abs(bare)


@pytest.mark.parametrize("part", ["dipole_part", "ls", "rs"])
def test_closed_form_is_response_theory_times_one_constant(part):
    s, constant = {
        "dipole_part": (0, INDEX_CONSTANT),
        "ls": (1, SIDEBAND_CONSTANT),
        "rs": (-1, SIDEBAND_CONSTANT),
    }[part]
    worst = 0.0
    for gas, omega in SETS:
        chi, kappa_den = _parts(gas, omega)
        chi_s, kappa_sum = chi[s]
        coupling = 2.0 * math.pi * (gas.omega0 / omega) ** 2
        if part == "dipole_part":
            closed = refractive_index(gas, omega).dipole_part
            theory = coupling * chi_s
        else:
            closed = getattr(derive_coefficients(gas, omega), part)
            theory = coupling * omega * chi_s / CGS.c
        bound = ROUNDINGS * U * kappa_den * kappa_sum
        # A bound this loose would no longer pin the constant.
        assert bound < 1e-6
        error = abs(closed / theory - constant) / abs(constant)
        assert error <= bound, (gas, omega, error, bound)
        worst = max(worst, error / bound)
    print(f"{part}: closed / theory = {constant:+g}, worst {worst:.2f} of the bound")
