"""Refractive index: oracle values, identities, pole guards, properties."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dressedprobe import (
    ResonancePole,
    ZeroDipole,
    beyond_dipole_fraction,
    config_from_dict,
    index_parts,
)

import oracles
from conftest import (
    ALPHA,
    BETA,
    CONFIGS,
    D_SQUARED,
    DETUNING,
    FROZEN,
    OMEGA0,
    PROBE_DELTA,
    RABI,
    RHO_DENSE,
    documented_gas,
)


def test_balanced_superposition_is_vacuum(gas_dense):
    balanced = replace(gas_dense, alpha=math.sqrt(0.5), beta=math.sqrt(0.5))
    _, dipole_part, beyond_dipole_part, _ = index_parts(
        balanced, balanced.omega_p - PROBE_DELTA
    )
    assert dipole_part == 0.0
    assert beyond_dipole_part == 0.0


def test_empty_cell_is_vacuum():
    empty = documented_gas(rho=0.0)
    probe = empty.omega_p - 2e9
    n0, _, _, _ = index_parts(empty, probe)
    assert n0 == 1.0


def test_documented_value_matches_high_precision_oracle(gas_dense, probe):
    n0, dipole_part, beyond_dipole_part, _ = index_parts(gas_dense, probe)
    dipole, beyond = oracles.refractive_index_offset(
        OMEGA0,
        D_SQUARED,
        RHO_DENSE,
        DETUNING,
        RABI,
        gas_dense.population_difference,
        probe,
    )
    assert n0 - 1.0 == pytest.approx(
        float(dipole + beyond), rel=1e-12
    )
    assert dipole_part == pytest.approx(float(dipole), rel=1e-12)
    assert beyond_dipole_part == pytest.approx(float(beyond), rel=1e-12)
    assert n0 - 1.0 == pytest.approx(
        FROZEN["n0_minus_1_dense"], rel=1e-12
    )


def test_sign_antisymmetry_in_population_difference(gas_dense, probe):
    state = replace(gas_dense, alpha=ALPHA, beta=BETA)
    swapped = replace(gas_dense, alpha=BETA, beta=ALPHA)
    _, direct_dipole, direct_beyond, _ = index_parts(state, probe)
    _, mirrored_dipole, mirrored_beyond, _ = index_parts(swapped, probe)
    assert mirrored_dipole == -direct_dipole
    assert mirrored_beyond == -direct_beyond


def test_linearity_in_density(probe):
    base = documented_gas(rho=RHO_DENSE)
    doubled = documented_gas(rho=2.0 * RHO_DENSE)
    _, lo_dipole, lo_beyond, _ = index_parts(base, probe)
    _, hi_dipole, hi_beyond, _ = index_parts(doubled, probe)
    assert hi_dipole == 2.0 * lo_dipole
    assert hi_beyond == 2.0 * lo_beyond


def test_pole_guard_names_offending_denominator(gas_dense):
    # One frequency inside a sideband guard band raises; an array marks it.
    gas = replace(gas_dense, guard=1e6)
    omega_prime = gas.omega_prime
    red, blue = gas.omega_p - omega_prime - 5e5, gas.omega_p + omega_prime + 5e5
    with pytest.raises(ResonancePole) as info:
        index_parts(gas, red)
    assert info.value.denominator == "omega_p - omega - omega_prime"
    with pytest.raises(ResonancePole) as info:
        index_parts(gas, blue)
    assert info.value.denominator == "omega_p - omega + omega_prime"
    *_, pole = index_parts(gas, [red, blue])
    assert pole.tolist() == [True, True]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_array_equals_scalar_bit_for_bit(name):
    # Over the config's delta grid: the mask is true exactly where the
    # scalar call raises, and every other offset has its bits.
    config = config_from_dict(CONFIGS[name])
    gas = config.gas()
    omegas = gas.omega_p - config.delta_values()
    *parts, pole = index_parts(gas, omegas)
    for i, omega in enumerate(omegas.tolist()):
        try:
            *one, one_pole = index_parts(gas, omega)
        except ResonancePole:
            assert pole[i], i
            continue
        assert not pole[i] and not one_pole, i
        for field, array, value in zip(("n0", "dipole", "beyond"), parts, one):
            assert array[i].tobytes() == value.tobytes(), (i, field)


def test_no_pole_at_rayleigh_degeneracy(gas_dense):
    # The index itself is regular at omega = omega_p.
    n0, _, _, _ = index_parts(gas_dense, gas_dense.omega_p)
    assert math.isfinite(n0)


def test_continuity_off_poles(gas_dense, probe):
    omegas = [probe, probe + 1e6, probe + 1e4, probe + 1e2]
    n0, _, _, pole = index_parts(gas_dense, omegas)
    assert not pole.any()
    base, *shifted = n0.tolist()
    diffs = [abs(n0 - base) for n0 in shifted]
    assert diffs[0] > diffs[1] > diffs[2]


class TestBeyondDipoleFraction:
    def test_zero_pump(self, gas_dense):
        assert beyond_dipole_fraction(replace(gas_dense, rabi=0.0)) == 0.0

    def test_documented_value(self, gas_dense):
        assert beyond_dipole_fraction(gas_dense) == pytest.approx(
            FROZEN["beyond_dipole_fraction"], rel=1e-12
        )

    def test_zero_dipole_rejected(self, gas_dense):
        with pytest.raises(ZeroDipole):
            beyond_dipole_fraction(replace(gas_dense, d=0.0))

    def test_doubling_rabi_grows_fraction(self, gas_dense):
        for rabi in (2e8, 2e9, 2e10, 2e11):
            lo = beyond_dipole_fraction(replace(gas_dense, rabi=rabi))
            hi = beyond_dipole_fraction(replace(gas_dense, rabi=2.0 * rabi))
            assert hi > lo

    def test_non_saturating_over_four_decades(self, gas_dense):
        ladder = [2e8 * 10 ** (0.25 * k) for k in range(17)]
        values = [
            beyond_dipole_fraction(replace(gas_dense, rabi=rabi))
            for rabi in ladder
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        # Non-saturating: still growing by decades at the top of the ladder.
        assert values[-1] / values[0] > 1e3

    @pytest.mark.parametrize("detuning", [1e9, 5e10, 2e11, 1e12])
    def test_non_saturating_for_blue_detuning(self, gas_dense, detuning):
        # The quoted dipole numerator is the one carrying
        # (omega_prime + |detuning|)^2, here the blue sideband's.
        ladder = [2e8 * 10 ** (0.25 * k) for k in range(17)]
        values = [
            beyond_dipole_fraction(
                replace(gas_dense, detuning=detuning, rabi=rabi)
            )
            for rabi in ladder
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] / values[0] > 1e3

    def test_mirror_detuning_gives_the_same_fraction(self, gas_dense):
        # The larger numerator depends on |detuning| only.
        blue = replace(gas_dense, detuning=-DETUNING)
        assert beyond_dipole_fraction(blue) == pytest.approx(
            beyond_dipole_fraction(gas_dense), rel=1e-12
        )


@settings(max_examples=50)
@given(
    rho=st.floats(min_value=1e12, max_value=1e16),
    rabi=st.floats(min_value=1e9, max_value=1e11),
    beta_sq=st.floats(min_value=0.0, max_value=1.0),
)
def test_offset_proportional_to_population_difference(rho, rabi, beta_sq):
    gas = replace(
        documented_gas(rho=rho),
        rabi=rabi,
        alpha=math.sqrt(1.0 - beta_sq),
        beta=math.sqrt(beta_sq),
    )
    probe_omega = gas.omega_p - PROBE_DELTA
    _, dipole_part, _, _ = index_parts(gas, probe_omega)
    _, reference, _, _ = index_parts(replace(gas, alpha=1.0, beta=0.0), probe_omega)
    expected = gas.population_difference * reference
    assert dipole_part == pytest.approx(expected, rel=1e-12, abs=1e-300)
