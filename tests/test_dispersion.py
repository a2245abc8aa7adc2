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
    refractive_index,
)

import oracles
from conftest import (
    ALPHA,
    BETA,
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
    result = refractive_index(balanced, balanced.omega_p - PROBE_DELTA)
    assert result.n0 == 1.0
    assert result.dipole_part == 0.0
    assert result.beyond_dipole_part == 0.0


def test_empty_cell_is_vacuum():
    empty = documented_gas(rho=0.0)
    probe = empty.omega_p - 2e9
    assert refractive_index(empty, probe).n0 == 1.0


def test_documented_value_matches_high_precision_oracle(gas_dense, probe):
    result = refractive_index(gas_dense, probe)
    dipole, beyond = oracles.refractive_index_offset(
        OMEGA0,
        D_SQUARED,
        RHO_DENSE,
        DETUNING,
        RABI,
        gas_dense.population_difference,
        probe,
    )
    assert result.n0 - 1.0 == pytest.approx(
        float(dipole + beyond), rel=1e-12
    )
    assert result.dipole_part == pytest.approx(float(dipole), rel=1e-12)
    assert result.beyond_dipole_part == pytest.approx(float(beyond), rel=1e-12)
    assert result.n0 - 1.0 == pytest.approx(
        FROZEN["n0_minus_1_dense"], rel=1e-12
    )


def test_decomposition_sums_to_offset(gas_dense, probe):
    result = refractive_index(gas_dense, probe)
    assert result.n0 - 1.0 == pytest.approx(
        result.dipole_part + result.beyond_dipole_part, rel=1e-12
    )


def test_sign_antisymmetry_in_population_difference(gas_dense, probe):
    state = replace(gas_dense, alpha=ALPHA, beta=BETA)
    swapped = replace(gas_dense, alpha=BETA, beta=ALPHA)
    direct = refractive_index(state, probe)
    mirrored = refractive_index(swapped, probe)
    assert mirrored.dipole_part == -direct.dipole_part
    assert mirrored.beyond_dipole_part == -direct.beyond_dipole_part


def test_linearity_in_density(probe):
    base = documented_gas(rho=RHO_DENSE)
    doubled = documented_gas(rho=2.0 * RHO_DENSE)
    lo = refractive_index(base, probe)
    hi = refractive_index(doubled, probe)
    assert hi.dipole_part == 2.0 * lo.dipole_part
    assert hi.beyond_dipole_part == 2.0 * lo.beyond_dipole_part
    assert hi.n0 - 1.0 == pytest.approx(2.0 * (lo.n0 - 1.0), rel=1e-12)


def test_pole_guard_names_offending_denominator(gas_dense):
    gas = replace(gas_dense, guard=1e6)
    omega_prime = gas.omega_prime
    with pytest.raises(ResonancePole) as info:
        refractive_index(gas, gas.omega_p - omega_prime - 5e5)
    assert info.value.denominator == "omega_p - omega - omega_prime"
    with pytest.raises(ResonancePole) as info:
        refractive_index(gas, gas.omega_p + omega_prime + 5e5)
    assert info.value.denominator == "omega_p - omega + omega_prime"


def test_no_pole_at_rayleigh_degeneracy(gas_dense):
    # The index itself is regular at omega = omega_p.
    result = refractive_index(gas_dense, gas_dense.omega_p)
    assert math.isfinite(result.n0)


def test_continuity_off_poles(gas_dense, probe):
    base = refractive_index(gas_dense, probe).n0
    diffs = [
        abs(refractive_index(gas_dense, probe + eps).n0 - base)
        for eps in (1e6, 1e4, 1e2)
    ]
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
    result = refractive_index(gas, probe_omega)
    reference = refractive_index(replace(gas, alpha=1.0, beta=0.0), probe_omega)
    expected = gas.population_difference * reference.dipole_part
    assert result.dipole_part == pytest.approx(expected, rel=1e-12, abs=1e-300)
