"""Dressed-state algebra: examples, identities, and property tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from dressedprobe import (
    AtomEnsemble,
    DegenerateDressing,
    PumpField,
    SuperpositionState,
    ZeroRabi,
    generalized_rabi,
    normalization_coeffs,
    stark_shifts,
)
from dressedprobe.dressed import pump_omega

from conftest import DETUNING, FROZEN, RABI

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


class TestStarkShifts:
    def test_symmetric_at_zero_detuning(self):
        assert stark_shifts(0.0, 6.0) == (3.0, -3.0)

    def test_zero_field_limit(self):
        assert stark_shifts(2e11, 0.0) == (0.0, -2e11)

    def test_documented_values(self):
        lam_plus, lam_minus = stark_shifts(DETUNING, RABI)
        assert lam_plus == pytest.approx(FROZEN["lambda_plus"], rel=1e-12)
        assert lam_minus == pytest.approx(FROZEN["lambda_minus"], rel=1e-12)

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateDressing):
            stark_shifts(0.0, 0.0)

    @given(detuning=detunings, rabi=frequencies)
    def test_ordering_and_sum(self, detuning, rabi):
        lam_plus, lam_minus = stark_shifts(detuning, rabi)
        omega_prime = generalized_rabi(detuning, rabi)
        assert lam_plus >= lam_minus
        # Algebraically lam+ + lam- = -detuning; numerically the residual
        # is bounded by a few ulp of the dominant scale omega_prime.
        assert abs(lam_plus + lam_minus + detuning) <= 1e-12 * omega_prime

    @given(detuning=detunings, rabi=frequencies)
    def test_product_identity(self, detuning, rabi):
        lam_plus, lam_minus = stark_shifts(detuning, rabi)
        assert lam_plus * lam_minus == pytest.approx(
            -(rabi**2) / 4.0, rel=1e-12
        )


class TestNormalizationCoeffs:
    def test_equal_admixture_at_resonance(self):
        n_plus, n_minus = normalization_coeffs(0.0, 7.7e9)
        assert n_plus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert n_minus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_documented_values(self):
        n_plus, n_minus = normalization_coeffs(DETUNING, RABI)
        assert n_plus == pytest.approx(FROZEN["n_plus"], rel=1e-12)
        assert n_minus == pytest.approx(FROZEN["n_minus"], rel=1e-12)

    def test_zero_rabi(self):
        with pytest.raises(ZeroRabi):
            normalization_coeffs(2e11, 0.0)

    @given(detuning=detunings, rabi=frequencies)
    def test_per_state_normalization(self, detuning, rabi):
        n_plus, n_minus = normalization_coeffs(detuning, rabi)
        lam_plus, lam_minus = stark_shifts(detuning, rabi)
        for n, lam in ((n_plus, lam_plus), (n_minus, lam_minus)):
            assert n**2 * (1.0 + 4.0 * lam**2 / rabi**2) == pytest.approx(
                1.0, rel=1e-12
            )

    @given(detuning=detunings, rabi=frequencies)
    def test_admixture_monotone_in_detuning_sign(self, detuning, rabi):
        n_plus, n_minus = normalization_coeffs(detuning, rabi)
        if detuning <= 0:
            assert n_plus <= n_minus
        else:
            assert n_plus >= n_minus


class TestTypes:
    def test_physical_constants(self):
        from dressedprobe import CGS

        assert CGS.c == 2.99792458e10
        assert CGS.hbar > 0 and CGS.e > 0 and CGS.m > 0

    def test_dark_pump_needs_detuning(self):
        PumpField(rabi=0.0, detuning=2e11)
        with pytest.raises(DegenerateDressing):
            PumpField(rabi=0.0, detuning=0.0)

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            AtomEnsemble(omega0=0.0, d=1e-17, rho=1e15)
        with pytest.raises(ValueError):
            AtomEnsemble(omega0=1e15, d=-1e-17, rho=1e15)
        with pytest.raises(ValueError):
            AtomEnsemble(omega0=1e15, d=1e-17, rho=-1.0)

    def test_pump_for_ensemble_locks_detuning(self, ensemble_dense):
        pump = PumpField(rabi=RABI, detuning=DETUNING)
        assert pump_omega(ensemble_dense, pump) == ensemble_dense.omega0 + DETUNING

    def test_state_normalization_enforced(self):
        with pytest.raises(ValueError):
            SuperpositionState(alpha=1.0, beta=0.1)
        state = SuperpositionState(alpha=math.sqrt(0.5), beta=1j * math.sqrt(0.5))
        assert state.population_difference == pytest.approx(0.0, abs=1e-15)

    def test_types_frozen(self, pump, state):
        with pytest.raises(AttributeError):
            pump.rabi = 0.0
        with pytest.raises(AttributeError):
            state.alpha = 0.0
