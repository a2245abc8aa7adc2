"""Refractive index: oracle values, identities, pole guards, properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from dressedprobe import (
    AtomEnsemble,
    PumpField,
    ResonancePole,
    SuperpositionState,
    ZeroDipole,
    beyond_dipole_fraction,
    generalized_rabi,
    refractive_index,
)
from dressedprobe.dressed import pump_omega

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
)


def test_balanced_superposition_is_vacuum(ensemble_dense, pump):
    balanced = SuperpositionState(alpha=math.sqrt(0.5), beta=math.sqrt(0.5))
    result = refractive_index(
        ensemble_dense, pump, balanced, pump_omega(ensemble_dense, pump) - PROBE_DELTA
    )
    assert result.n0 == 1.0
    assert result.dipole_part == 0.0
    assert result.beyond_dipole_part == 0.0


def test_empty_cell_is_vacuum(pump, state):
    empty = AtomEnsemble(omega0=OMEGA0, d=math.sqrt(D_SQUARED), rho=0.0)
    probe = pump_omega(empty, pump) - 2e9
    assert refractive_index(empty, pump, state, probe).n0 == 1.0


def test_documented_value_matches_high_precision_oracle(
    ensemble_dense, pump, state, probe
):
    result = refractive_index(ensemble_dense, pump, state, probe)
    dipole, beyond = oracles.refractive_index_offset(
        OMEGA0,
        D_SQUARED,
        RHO_DENSE,
        DETUNING,
        RABI,
        state.population_difference,
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


def test_decomposition_sums_to_offset(ensemble_dense, pump, state, probe):
    result = refractive_index(ensemble_dense, pump, state, probe)
    assert result.n0 - 1.0 == pytest.approx(
        result.dipole_part + result.beyond_dipole_part, rel=1e-12
    )


def test_sign_antisymmetry_in_population_difference(
    ensemble_dense, pump, probe
):
    state = SuperpositionState(alpha=ALPHA, beta=BETA)
    swapped = SuperpositionState(alpha=BETA, beta=ALPHA)
    direct = refractive_index(ensemble_dense, pump, state, probe)
    mirrored = refractive_index(ensemble_dense, pump, swapped, probe)
    assert mirrored.dipole_part == -direct.dipole_part
    assert mirrored.beyond_dipole_part == -direct.beyond_dipole_part


def test_linearity_in_density(pump, state, probe):
    base = AtomEnsemble(omega0=OMEGA0, d=math.sqrt(D_SQUARED), rho=RHO_DENSE)
    doubled = AtomEnsemble(
        omega0=OMEGA0, d=math.sqrt(D_SQUARED), rho=2.0 * RHO_DENSE
    )
    lo = refractive_index(base, pump, state, probe)
    hi = refractive_index(doubled, pump, state, probe)
    assert hi.dipole_part == 2.0 * lo.dipole_part
    assert hi.beyond_dipole_part == 2.0 * lo.beyond_dipole_part
    assert hi.n0 - 1.0 == pytest.approx(2.0 * (lo.n0 - 1.0), rel=1e-12)


def test_pole_guard_names_offending_denominator(ensemble_dense, pump, state):
    omega_prime = pump.omega_prime
    with pytest.raises(ResonancePole) as info:
        refractive_index(
            ensemble_dense,
            pump,
            state,
            pump_omega(ensemble_dense, pump) - omega_prime - 5e5,
            guard=1e6,
        )
    assert info.value.denominator == "omega_p - omega - omega_prime"
    with pytest.raises(ResonancePole) as info:
        refractive_index(
            ensemble_dense,
            pump,
            state,
            pump_omega(ensemble_dense, pump) + omega_prime + 5e5,
            guard=1e6,
        )
    assert info.value.denominator == "omega_p - omega + omega_prime"


def test_no_pole_at_rayleigh_degeneracy(ensemble_dense, pump, state):
    # The index itself is regular at omega = omega_p.
    omega_p = pump_omega(ensemble_dense, pump)
    result = refractive_index(ensemble_dense, pump, state, omega_p)
    assert math.isfinite(result.n0)


def test_continuity_off_poles(ensemble_dense, pump, state, probe):
    base = refractive_index(ensemble_dense, pump, state, probe).n0
    diffs = [
        abs(
            refractive_index(
                ensemble_dense, pump, state, probe + eps
            ).n0
            - base
        )
        for eps in (1e6, 1e4, 1e2)
    ]
    assert diffs[0] > diffs[1] > diffs[2]


class TestBeyondDipoleFraction:
    def test_zero_pump(self, ensemble_dense):
        pump = PumpField(rabi=0.0, detuning=DETUNING)
        assert beyond_dipole_fraction(ensemble_dense, pump) == 0.0

    def test_documented_value(self, ensemble_dense, pump):
        assert beyond_dipole_fraction(ensemble_dense, pump) == pytest.approx(
            FROZEN["beyond_dipole_fraction"], rel=1e-12
        )

    def test_zero_dipole_rejected(self, pump):
        bare = AtomEnsemble(omega0=OMEGA0, d=0.0, rho=RHO_DENSE)
        with pytest.raises(ZeroDipole):
            beyond_dipole_fraction(bare, pump)

    def test_doubling_rabi_grows_fraction(self, ensemble_dense):
        for rabi in (2e8, 2e9, 2e10, 2e11):
            lo = beyond_dipole_fraction(
                ensemble_dense,
                PumpField(rabi=rabi, detuning=DETUNING),
            )
            hi = beyond_dipole_fraction(
                ensemble_dense,
                PumpField(rabi=2.0 * rabi, detuning=DETUNING),
            )
            assert hi > lo

    def test_non_saturating_over_four_decades(self, ensemble_dense):
        ladder = [2e8 * 10 ** (0.25 * k) for k in range(17)]
        values = [
            beyond_dipole_fraction(
                ensemble_dense,
                PumpField(rabi=rabi, detuning=DETUNING),
            )
            for rabi in ladder
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        # Non-saturating: still growing by decades at the top of the ladder.
        assert values[-1] / values[0] > 1e3


@settings(max_examples=50)
@given(
    rho=st.floats(min_value=1e12, max_value=1e16),
    rabi=st.floats(min_value=1e9, max_value=1e11),
    beta_sq=st.floats(min_value=0.0, max_value=1.0),
)
def test_offset_proportional_to_population_difference(rho, rabi, beta_sq):
    ensemble = AtomEnsemble(omega0=OMEGA0, d=math.sqrt(D_SQUARED), rho=rho)
    pump = PumpField(rabi=rabi, detuning=DETUNING)
    state = SuperpositionState(
        alpha=math.sqrt(1.0 - beta_sq), beta=math.sqrt(beta_sq)
    )
    probe_omega = pump_omega(ensemble, pump) - PROBE_DELTA
    result = refractive_index(ensemble, pump, state, probe_omega)
    reference = refractive_index(
        ensemble,
        pump,
        SuperpositionState(alpha=1.0, beta=0.0),
        probe_omega,
    )
    expected = state.population_difference * reference.dipole_part
    assert result.dipole_part == pytest.approx(expected, rel=1e-12, abs=1e-300)
