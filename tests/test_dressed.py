"""Dressed-state algebra: examples, identities, and property tests."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from dressedprobe import (
    DEFAULT_GUARD,
    ConfigError,
    DegenerateDressing,
    DressedGas,
    generalized_rabi,
)

from conftest import DETUNING, FROZEN, OMEGA0, RABI

frequencies = st.floats(min_value=1e6, max_value=1e13)
detunings = st.floats(min_value=-1e13, max_value=1e13).filter(
    lambda x: abs(x) > 1e6
)


class TestGeneralizedRabi:
    def test_zero_detuning(self):
        assert generalized_rabi(0.0, 5.0) == 5.0

    def test_pythagorean_triple(self):
        assert generalized_rabi(3.0, 4.0) == 5.0

    def test_documented_value(self):
        assert generalized_rabi(DETUNING, RABI) == pytest.approx(
            FROZEN["omega_prime"], rel=1e-12
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateDressing):
            generalized_rabi(0.0, 0.0)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            generalized_rabi(1.0, -1.0)

    @given(detuning=detunings, rabi=frequencies)
    def test_dominates_both_arguments(self, detuning, rabi):
        value = generalized_rabi(detuning, rabi)
        assert value >= max(abs(detuning), rabi)
        assert value > abs(detuning)
        assert value > rabi

    @given(detuning=detunings)
    def test_equality_at_zero_rabi(self, detuning):
        assert generalized_rabi(detuning, 0.0) == abs(detuning)

    def test_pure(self):
        assert generalized_rabi(-2e11, 2e10) == generalized_rabi(-2e11, 2e10)


class TestTypes:
    def test_physical_constants(self):
        from dressedprobe import CGS

        assert CGS.c == 2.99792458e10
        assert CGS.hbar > 0 and CGS.e > 0 and CGS.m > 0

    def test_dark_pump_needs_detuning(self, gas_dense):
        replace(gas_dense, rabi=0.0, detuning=2e11)
        with pytest.raises(DegenerateDressing):
            replace(gas_dense, rabi=0.0, detuning=0.0)

    def test_ensemble_validation(self, gas_dense):
        for change, message in (
            ({"omega0": 0.0}, "omega0 must be strictly positive"),
            ({"d": -1e-17}, "dipole matrix element must be non-negative"),
            ({"rho": -1.0}, "number density must be non-negative"),
            ({"rabi": -1.0}, "rabi must be non-negative"),
            ({"guard": -1.0}, "guard must be non-negative"),
            ({"guard": math.nan}, "guard must be non-negative"),
        ):
            with pytest.raises(ValueError, match=message):
                replace(gas_dense, **change)

    def test_omega_p_is_omega0_plus_detuning(self, gas_dense):
        assert gas_dense.omega_p == OMEGA0 + DETUNING
        assert gas_dense.omega_prime == generalized_rabi(DETUNING, RABI)
        assert gas_dense.d_squared == gas_dense.d * gas_dense.d

    @pytest.mark.parametrize("detuning", [-OMEGA0, -2.0 * OMEGA0])
    def test_non_positive_omega_p_rejected(self, gas_dense, detuning):
        # omega0 + detuning <= 0: no pump frequency, so no gas to evaluate.
        message = "omega_p must be strictly positive"
        with pytest.raises(ValueError, match=message):
            replace(gas_dense, detuning=detuning)
        with pytest.raises(ValueError, match=message):
            DressedGas(
                omega0=OMEGA0,
                d=gas_dense.d,
                rho=gas_dense.rho,
                detuning=detuning,
                rabi=RABI,
                alpha=gas_dense.alpha,
                beta=gas_dense.beta,
            )

    def test_first_invalid_input_is_named(self, gas_dense):
        # The order is omega0, d, rho, the dressing, omega_p, the norm,
        # the guard.
        with pytest.raises(ValueError, match="omega0"):
            replace(gas_dense, omega0=-1.0, d=-1.0, detuning=0.0, rabi=0.0)
        with pytest.raises(DegenerateDressing):
            replace(gas_dense, detuning=0.0, rabi=0.0, beta=1.0)
        with pytest.raises(ValueError, match="omega_p"):
            replace(gas_dense, detuning=-2e15, beta=1.0)

    def test_state_normalization_enforced(self, gas_dense):
        with pytest.raises(ValueError):
            replace(gas_dense, alpha=1.0, beta=0.1)
        balanced = replace(
            gas_dense, alpha=math.sqrt(0.5), beta=1j * math.sqrt(0.5)
        )
        assert balanced.population_difference == pytest.approx(0.0, abs=1e-15)
        assert isinstance(replace(gas_dense, alpha=1, beta=0).alpha, complex)

    @pytest.mark.parametrize("alpha", [1e155, complex(1e308, 1e308), math.nan])
    def test_non_finite_norm_is_a_value_error(self, gas_dense, alpha):
        # |alpha|^2 (or |alpha| itself) overflows a float, or is NaN.
        with pytest.raises(ValueError, match="must equal 1 within"):
            replace(gas_dense, alpha=alpha)

    @pytest.mark.parametrize(
        "change, power",
        [
            ({"omega0": 1e200}, "omega0**2"),
            ({"d": 1e150}, "d**2 * omega0**2"),
            ({"rabi": 1e103}, "w'**3"),
        ],
        ids=["omega0", "d", "rabi"],
    )
    def test_overflowing_power_refused(self, gas_dense, change, power):
        # The closed form's powers must be finite doubles for the gas to be
        # built at all; no later evaluation handles their overflow.
        with pytest.raises(ConfigError, match=re.escape(power)):
            replace(gas_dense, **change)

    def test_variants_keep_the_guard(self, gas_dense):
        assert gas_dense.guard == DEFAULT_GUARD
        gas = replace(gas_dense, guard=3e9)
        assert replace(gas, rho=2.0 * gas.rho).guard == 3e9
        assert replace(gas, alpha=1.0, beta=0.0).guard == 3e9

    def test_types_frozen(self, gas_dense):
        with pytest.raises(AttributeError):
            gas_dense.rabi = 0.0
        with pytest.raises(AttributeError):
            gas_dense.alpha = 0.0
