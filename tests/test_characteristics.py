"""Reduced-wave-equation oracle: coefficients, integration, residuals."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import dressedprobe.characteristics as chars
from dressedprobe import (
    CGS,
    DressedGas,
    GridTooCoarse,
    RweCoefficients,
    StepTooCoarse,
    derive_coefficients,
    exponent_grid,
    generalized_rabi,
    integrate_characteristic,
    log_amplitude_grid,
    refractive_index,
    residual_check,
)

from conftest import D_SQUARED, FROZEN, OMEGA0

OMEGA_PRIME = FROZEN["omega_prime"]
PERIOD = 2.0 * math.pi / OMEGA_PRIME
LENGTH = PERIOD * CGS.c


class TestDeriveCoefficients:
    def test_pure_state_has_no_sidebands(self, gas_dense, probe):
        pure = replace(gas_dense, alpha=1.0, beta=0.0)
        coefs = derive_coefficients(pure, probe)
        assert coefs.ls == 0.0
        assert coefs.rs == 0.0
        disp = refractive_index(pure, probe)
        assert coefs.d_coef == pytest.approx(
            probe * (disp.n0 - 1.0) / CGS.c, rel=1e-12
        )

    def test_balanced_state_has_no_direct_term(self, gas_dense, probe):
        balanced = replace(gas_dense, alpha=math.sqrt(0.5), beta=math.sqrt(0.5))
        coefs = derive_coefficients(balanced, probe)
        assert coefs.d_coef == 0.0
        assert abs(coefs.ls) > 0.0
        assert abs(coefs.rs) > 0.0

    def test_sideband_magnitude_ratio(self, gas_train, probe):
        coefs = derive_coefficients(gas_train, probe)
        # |rs/ls| = b2/b1 regardless of the amplitudes' phases.
        assert abs(coefs.rs) / abs(coefs.ls) == pytest.approx(
            FROZEN["rs_over_ls"], rel=1e-12
        )

    def test_coefficients_do_not_depend_on_an_origin(
        self, gas_train, probe
    ):
        first = derive_coefficients(gas_train, probe)
        second = derive_coefficients(gas_train, probe)
        assert (first.d_coef, first.ls, first.rs) == (
            second.d_coef,
            second.ls,
            second.rs,
        )


class TestIntegrateCharacteristic:
    def test_zero_span(self, gas_train, probe):
        coefs = derive_coefficients(gas_train, probe)
        assert integrate_characteristic(coefs, 0.0, 0.0, 1) == 0.0

    def test_pure_phase_for_silent_sidebands(self):
        coefs = RweCoefficients(
            omega_prime=OMEGA_PRIME, probe_omega=CGS.c, index=123.456, a1=0.0, a2=0.0
        )
        z_end = 0.5 * LENGTH
        value = integrate_characteristic(coefs, z_end, 1e-11, 1000)
        assert value.real == 0.0
        assert value.imag == pytest.approx(123.456 * z_end, rel=1e-14)

    def test_step_guard(self, gas_train, probe):
        coefs = derive_coefficients(gas_train, probe)
        with pytest.raises(StepTooCoarse):
            integrate_characteristic(coefs, LENGTH, 0.0, 999)
        with pytest.raises(StepTooCoarse):
            integrate_characteristic(coefs, 0.25 * LENGTH, 0.0, 249)
        integrate_characteristic(coefs, 0.25 * LENGTH, 0.0, 250)

    def test_one_rhs_evaluation_per_call(
        self, gas_train, probe, monkeypatch
    ):
        coefs = derive_coefficients(gas_train, probe)
        rhs = chars._rhs
        calls = []

        def counted(*args):
            calls.append(args)
            return rhs(*args)

        monkeypatch.setattr(chars, "_rhs", counted)
        integrate_characteristic(coefs, LENGTH, 0.0, 4000)
        assert len(calls) == 1

    def test_negative_span_rejected(self, gas_train, probe):
        coefs = derive_coefficients(gas_train, probe)
        with pytest.raises(ValueError):
            integrate_characteristic(coefs, -1.0, 0.0, 1000)
        with pytest.raises(ValueError, match="z must be non-negative"):
            log_amplitude_grid(coefs, [-1.0], [0.0])

    def test_agreement_with_closed_form(
        self, gas_train, probe
    ):
        coefs = derive_coefficients(gas_train, probe)
        t_entry = 0.4 * PERIOD
        for frac in (0.25, 0.5, 1.0):
            z_end = frac * LENGTH
            numeric = integrate_characteristic(
                coefs, z_end, t_entry, math.ceil(1000 * frac)
            )
            closed = log_amplitude_grid(
                coefs, [z_end], [t_entry + z_end / CGS.c]
            )[0, 0]
            assert abs(numeric - closed) / (1.0 + abs(closed)) < 1e-6

    def test_agreement_with_complex_amplitudes(self, gas_train, probe):
        gas = replace(gas_train, alpha=math.sqrt(0.9), beta=math.sqrt(0.1) * 1j)
        coefs = derive_coefficients(gas, probe)
        z_end = 0.62 * LENGTH
        t_entry = 0.13 * PERIOD
        numeric = integrate_characteristic(
            coefs, z_end, t_entry, math.ceil(1000 * 0.62)
        )
        closed = log_amplitude_grid(
            coefs, [z_end], [t_entry + z_end / CGS.c]
        )[0, 0]
        assert abs(numeric - closed) / (1.0 + abs(closed)) < 1e-6

    def test_fourth_order_convergence(self, gas_train, probe):
        # The sideband part alone (D is integrated exactly and only adds
        # rounding), over an incommensurate fraction of the spatial period:
        # over a whole period the truncation terms cancel spectrally.
        coefs = replace(
            derive_coefficients(gas_train, probe), index=0.0
        )
        z_end = 0.37 * LENGTH
        closed = complex(
            exponent_grid(
                gas_train, probe, [z_end], [z_end / CGS.c]
            )[0, 0]
        )
        steps = [math.ceil(0.37 * n) for n in (1000, 1414, 2000)]
        errors = [
            abs(integrate_characteristic(coefs, z_end, 0.0, n) - closed)
            for n in steps
        ]
        orders = [
            math.log(errors[i] / errors[i + 1]) / math.log(steps[i + 1] / steps[i])
            for i in range(2)
        ]
        for order in orders:
            assert 3.5 < order < 4.5, f"expected fourth order: {orders}"


@pytest.fixture(scope="module")
def coefs(gas_train, probe):
    return derive_coefficients(gas_train, probe)


class TestResidualCheck:
    def grid(self, gas, probe, n):
        z = np.linspace(0.0, LENGTH, n + 1)
        t = np.linspace(0.0, PERIOD, n + 1)
        return z, t, log_amplitude_grid(derive_coefficients(gas, probe), z, t)

    def test_analytic_field_residual_small(
        self, gas_train, probe, coefs
    ):
        z, t, grid = self.grid(gas_train, probe, 256)
        residual = residual_check(grid, z, t, coefs)
        assert residual < 1e-4

    def test_second_order_refinement(
        self, gas_train, probe, coefs
    ):
        residuals = []
        for n in (64, 128, 256):
            z, t, grid = self.grid(gas_train, probe, n)
            residuals.append(residual_check(grid, z, t, coefs))
        ratios = [residuals[0] / residuals[1], residuals[1] / residuals[2]]
        for ratio in ratios:
            assert 3.4 < ratio < 4.6, f"expected ~4x per halving: {ratios}"

    def test_zero_coefficients_zero_residual(self):
        coefs = RweCoefficients(
            omega_prime=OMEGA_PRIME, probe_omega=OMEGA0, index=0.0, a1=0.0, a2=0.0
        )
        z = np.linspace(0.0, LENGTH, 129)
        t = np.linspace(0.0, PERIOD, 129)
        grid = np.zeros((129, 129), complex)
        assert residual_check(grid, z, t, coefs) == 0.0

    def test_grid_guard(self, gas_train, probe, coefs):
        z, t, grid = self.grid(gas_train, probe, 48)
        with pytest.raises(GridTooCoarse):
            residual_check(grid, z, t, coefs)
        with pytest.raises(GridTooCoarse):
            residual_check(grid, z, t, coefs)

    def test_floor_is_64_intervals_per_period(
        self, gas_train, probe, coefs
    ):
        z, t, grid = self.grid(gas_train, probe, 63)
        with pytest.raises(GridTooCoarse, match="need >= 64"):
            residual_check(grid, z, t, coefs)
        z, t, grid = self.grid(gas_train, probe, 64)
        assert residual_check(grid, z, t, coefs) > 0.0

    @pytest.mark.parametrize("index", [0, 1, 10])
    def test_nan_coordinate_rejected(
        self, gas_train, probe, coefs, index
    ):
        z, t, grid = self.grid(gas_train, probe, 128)
        z[index] = math.nan
        with pytest.raises(GridTooCoarse, match="uniform"):
            residual_check(grid, z, t, coefs)
        with pytest.raises(GridTooCoarse, match="uniform"):
            residual_check(grid.T, t, z, coefs)

    def test_malformed_grids_rejected(self, gas_train, probe, coefs):
        z, t, grid = self.grid(gas_train, probe, 128)
        with pytest.raises(ValueError, match="shape"):
            residual_check(grid[:, :-1], z, t, coefs)
        with pytest.raises(GridTooCoarse, match="at least 3"):
            residual_check(grid[:2], z[:2], t, coefs)
        with pytest.raises(ValueError, match="strictly increasing"):
            residual_check(grid[::-1], z[::-1], t, coefs)

    def test_non_uniform_grid_rejected(
        self, gas_train, probe, coefs
    ):
        z, t, grid = self.grid(gas_train, probe, 256)
        warped = z.copy()
        warped[10] += 0.3 * (z[1] - z[0])
        with pytest.raises(GridTooCoarse):
            residual_check(grid, warped, t, coefs)


class TestRandomizedOracle:
    def test_twenty_randomized_parameter_sets(self):
        rng = np.random.default_rng(987654321)
        worst = 0.0
        for _ in range(20):
            rho = float(10 ** rng.uniform(13.0, 15.3))
            detuning = float(
                rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(10.7, 11.7)
            )
            rabi = float(10 ** rng.uniform(9.0, 11.0))
            omega_prime = generalized_rabi(detuning, rabi)
            delta = float(
                rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.8) * omega_prime
            )
            beta_mag = rng.uniform(0.05, 0.7)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            gas = DressedGas(
                omega0=OMEGA0,
                d=math.sqrt(D_SQUARED),
                rho=rho,
                detuning=detuning,
                rabi=rabi,
                alpha=math.sqrt(1.0 - beta_mag**2),
                beta=beta_mag * complex(math.cos(phase), math.sin(phase)),
            )
            probe = gas.omega_p - delta
            coefs = derive_coefficients(gas, probe)
            length = 2.0 * math.pi * CGS.c / omega_prime
            t_entry = float(rng.uniform(0.0, 2.0)) * PERIOD
            for frac in (0.25, 0.5, 1.0):
                z_end = frac * length
                numeric = integrate_characteristic(
                    coefs, z_end, t_entry, math.ceil(1000 * frac)
                )
                closed = log_amplitude_grid(
                    coefs, [z_end], [t_entry + z_end / CGS.c]
                )[0, 0]
                worst = max(
                    worst, abs(numeric - closed) / (1.0 + abs(closed))
                )
        assert worst < 1e-6
