"""Envelope exponent and intensity gain: oracle values and exact symmetries."""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dressedprobe import (
    CGS,
    ConfigError,
    DressedGas,
    config_from_dict,
    ResonancePole,
    derive_coefficients,
    exponent_grid,
    k_scale,
    log_amplitude_grid,
    modulation_depth,
)
from dressedprobe.dispersion import resonance_denominators
from dressedprobe.modulation import intensity_gain

import oracles
from conftest import (
    ALPHA,
    BETA,
    CONFIGS,
    DETUNING,
    FROZEN,
    PROBE_DELTA,
    RABI,
    RHO_DENSE,
    RHO_TRAIN,
    documented_gas,
)

@pytest.fixture(scope="module")
def geometry(gas_dense):
    omega_prime = gas_dense.omega_prime
    return {
        "omega_prime": omega_prime,
        "period": 2.0 * math.pi / omega_prime,
        "length": 2.0 * math.pi * CGS.c / omega_prime,
        "z_half": math.pi * CGS.c / omega_prime,
        "t_half": math.pi / omega_prime,
    }


def _brackets(gas, probe_omega):
    """b1 and b2 read off a1 = K conj(alpha) beta b1, a2 = K alpha conj(beta) b2."""
    coefs = derive_coefficients(gas, probe_omega)
    scale = k_scale(gas, probe_omega)
    alpha, beta = gas.alpha, gas.beta
    return (
        coefs.a1 / (scale * alpha.conjugate() * beta),
        coefs.a2 / (scale * alpha * beta.conjugate()),
    )


def _g(gas, probe, z, t):
    """G(z, t) as the one cell of a one-point ``exponent_grid``."""
    return complex(exponent_grid(derive_coefficients(gas, probe), z=[z], t=[t])[0, 0])


class TestSidebandBrackets:
    def test_exact_fractions_at_zero_detuning(self, gas_dense):
        rabi = 6.0e9
        gas = replace(gas_dense, rabi=rabi, detuning=0.0, guard=0.0)
        b1, b2 = _brackets(gas, gas.omega_p - 2.0 * rabi)
        assert b1 == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert b2 == pytest.approx(3.0 / 2.0, rel=1e-12)

    def test_documented_values(self, gas_dense, probe):
        b1, b2 = _brackets(gas_dense, probe)
        assert b1 == pytest.approx(FROZEN["b1"], rel=1e-12)
        assert b2 == pytest.approx(FROZEN["b2"], rel=1e-12)
        ref1, ref2 = oracles.resonance_brackets(DETUNING, RABI, PROBE_DELTA)
        assert b1 == pytest.approx(float(ref1), rel=1e-12)
        assert b2 == pytest.approx(float(ref2), rel=1e-12)

    def test_pole_at_hypercombination_offset(self, gas_dense):
        omega_prime = gas_dense.omega_prime
        omega_p = gas_dense.omega_p
        with pytest.raises(ResonancePole) as info:
            resonance_denominators(gas_dense, omega_p - omega_prime)
        assert info.value.denominator == "omega_p - omega - omega_prime"

    def test_exact_pole_hit_with_zero_guard(self):
        # Small exact numbers: delta_po = omega_prime = 3 exactly.
        toy = DressedGas(
            omega0=10.0,
            d=0.0,
            rho=0.0,
            detuning=0.0,
            rabi=3.0,
            alpha=1.0,
            beta=0.0,
            guard=0.0,
        )
        with pytest.raises(ResonancePole):
            resonance_denominators(toy, 7.0)

    def test_rayleigh_pole(self, gas_dense):
        omega_p = gas_dense.omega_p
        with pytest.raises(ResonancePole) as info:
            resonance_denominators(gas_dense, omega_p)
        assert info.value.denominator == "omega_p - omega"


class TestDeriveCoefficients:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_array_equals_scalar_bit_for_bit(self, name):
        # Over the config's delta grid: the mask is true exactly where the
        # scalar call raises, and every other offset has its bits.
        config = config_from_dict(CONFIGS[name])
        gas = config.gas()
        omegas = gas.omega_p - config.delta_values()
        coefs = derive_coefficients(gas, omegas)
        for i, omega in enumerate(omegas.tolist()):
            try:
                one = derive_coefficients(gas, omega)
            except ResonancePole:
                assert coefs.pole[i], i
                continue
            assert not coefs.pole[i], i
            for field in ("index", "a1", "a2"):
                bits = getattr(coefs, field)[i].tobytes()
                assert bits == getattr(one, field).tobytes(), (i, field)

    def test_rayleigh_pole_named_first(self, gas_dense):
        # A guard of w' puts omega_p - omega and omega_p - omega + w' inside
        # it at once; the one pass checks the Rayleigh denominator first.
        omega_prime = gas_dense.omega_prime
        gas = replace(gas_dense, guard=omega_prime)
        probe = gas.omega_p + 0.5 * omega_prime
        with pytest.raises(ResonancePole) as info:
            derive_coefficients(gas, probe)
        assert info.value.denominator == "omega_p - omega"


class TestExponentGrid:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_array_equals_scalar_bit_for_bit(self, name):
        # At the config's plane and the sweep's two times: every row off
        # the poles has the bits of its one-frequency grid.
        config = config_from_dict(CONFIGS[name])
        gas = config.gas()
        omegas = gas.omega_p - config.delta_values()
        z = [config.z_fixed()]
        times = [math.pi / config.omega_prime(), 2.0 * math.pi / config.omega_prime()]
        coefs = derive_coefficients(gas, omegas)
        rows = exponent_grid(coefs, z=z, t=times)
        for i, omega in enumerate(omegas.tolist()):
            try:
                one = derive_coefficients(gas, omega)
            except ResonancePole:
                assert coefs.pole[i], i
                continue
            assert rows[i].tobytes() == exponent_grid(one, z=z, t=times)[0].tobytes(), i

    def test_array_takes_one_plane(self, gas_dense, probe):
        # Two frequencies and two planes would broadcast without the check.
        coefs = derive_coefficients(gas_dense, [probe, probe + 1e9])
        with pytest.raises(ValueError, match="exactly one plane"):
            exponent_grid(coefs, z=[0.0, 1.0], t=[0.0, 1e-12])


class TestExponent:
    def test_entry_face_is_exactly_zero(
        self, gas_dense, probe
    ):
        for t in (0.0, 1e-12, 3.7e-11):
            assert _g(gas_dense, probe, 0.0, t) == 0.0
        assert modulation_depth(derive_coefficients(gas_dense, probe), 0.0) == 0.0

    def test_pure_dressed_state_is_unmodulated(
        self, gas_dense, probe, geometry
    ):
        pure = replace(gas_dense, alpha=1.0, beta=0.0)
        g = _g(pure, probe, geometry["z_half"], 1e-11)
        assert g == 0.0

    def test_documented_k_scale(self, gas_dense, probe):
        assert k_scale(gas_dense, probe) == pytest.approx(
            FROZEN["k_dense"], rel=1e-12
        )

    def test_documented_exponent_value(
        self, gas_dense, probe, geometry
    ):
        g = _g(
            gas_dense,
            probe,
            geometry["z_half"],
            geometry["t_half"],
        )
        # At theta = w' z / c = pi and w' t = pi the closed form collapses
        # to 2 alpha beta K (b2 - b1) for real amplitudes.
        assert g.real == pytest.approx(FROZEN["re_g_dense"], rel=1e-12)
        assert g.imag == pytest.approx(0.0, abs=1e-9)
        assert k_scale(gas_dense, probe) == pytest.approx(
            FROZEN["k_dense"], rel=1e-12
        )

    def test_negative_z_rejected(self, gas_dense, probe):
        with pytest.raises(ValueError):
            _g(gas_dense, probe, -1.0, 0.0)
        with pytest.raises(ValueError):
            modulation_depth(derive_coefficients(gas_dense, probe), -1.0)
        with pytest.raises(ValueError, match="z must be non-negative"):
            exponent_grid(
                derive_coefficients(gas_dense, [probe]), z=[-1.0], t=[0.0]
            )

    @pytest.mark.parametrize(
        "name",
        ["exponent_grid", "exponent_grid_sweep", "modulation_depth", "log_amplitude_grid"],
    )
    def test_non_finite_z_rejected(self, gas_dense, probe, name):
        coefs = derive_coefficients(gas_dense, probe)
        sweep = derive_coefficients(gas_dense, [probe])
        call = {
            "exponent_grid": lambda z: exponent_grid(coefs, z=[z], t=[0.0]),
            "exponent_grid_sweep": lambda z: exponent_grid(sweep, z=[z], t=[0.0]),
            "modulation_depth": lambda z: modulation_depth(coefs, z),
            "log_amplitude_grid": lambda z: log_amplitude_grid(coefs, [z], [0.0]),
        }[name]
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="z must be non-negative and finite"):
                call(z)

    @pytest.mark.parametrize("omega", [0.0, -1e15])
    def test_non_positive_probe_frequency_rejected(self, gas_dense, omega):
        calls = (
            lambda: exponent_grid(
                derive_coefficients(gas_dense, omega), z=[0.0], t=[0.0]
            ),
            lambda: exponent_grid(
                derive_coefficients(gas_dense, [omega]), z=[0.0], t=[0.0]
            ),
            lambda: derive_coefficients(gas_dense, [omega]),
            lambda: modulation_depth(derive_coefficients(gas_dense, omega), 0.0),
        )
        for call in calls:
            with pytest.raises(
                ValueError, match="probe_omega must be strictly positive"
            ):
                call()

    def test_antiperiodicity_on_grid(
        self, gas_dense, probe, geometry
    ):
        z = np.linspace(0.0, geometry["length"], 64, endpoint=False)
        t = np.linspace(0.0, geometry["period"], 64, endpoint=False)
        coefs = derive_coefficients(gas_dense, probe)
        g = exponent_grid(coefs, z=z, t=t)
        g_shifted = exponent_grid(coefs, z=z, t=t + 0.5 * geometry["period"])
        assert np.max(np.abs(g + g_shifted) / (1.0 + np.abs(g))) < 1e-9

    def test_periodicity_in_time_and_space(
        self, gas_dense, probe, geometry
    ):
        z0, t0 = 0.31 * geometry["length"], 0.2 * geometry["period"]
        ref = _g(gas_dense, probe, z0, t0)
        shift_t = _g(
            gas_dense, probe, z0, t0 + geometry["period"]
        )
        shift_z = _g(
            gas_dense, probe, z0 + geometry["length"], t0
        )
        assert shift_t == pytest.approx(ref, rel=1e-9)
        assert shift_z == pytest.approx(ref, rel=1e-9)

    def test_zero_mean_over_period(
        self, gas_dense, probe, geometry
    ):
        t = np.linspace(0.0, geometry["period"], 1024, endpoint=False)
        g = exponent_grid(
            derive_coefficients(gas_dense, probe),
            z=np.array([0.4 * geometry["length"]]),
            t=t,
        )[0]
        assert abs(float(np.mean(g.real))) < 1e-9

    def test_exponent_linear_in_density(self, probe, geometry):
        lo_gas = documented_gas(rho=RHO_TRAIN)
        hi_gas = documented_gas(rho=2.0 * RHO_TRAIN)
        z, t = 0.23 * geometry["length"], 0.71 * geometry["period"]
        assert _g(hi_gas, probe, z, t) == 2.0 * _g(lo_gas, probe, z, t)
        assert modulation_depth(
            derive_coefficients(hi_gas, probe), z
        ) == 2.0 * modulation_depth(derive_coefficients(lo_gas, probe), z)

    def test_pure_function_bit_identical(
        self, gas_dense, probe, geometry
    ):
        args = (gas_dense, probe, geometry["z_half"], 1e-11)
        assert _g(*args) == _g(*args)

    @settings(max_examples=25, deadline=None)
    @given(
        z_frac=st.floats(min_value=0.0, max_value=2.0),
        t_frac=st.floats(min_value=0.0, max_value=2.0),
        beta_mag=st.floats(min_value=0.01, max_value=0.7),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_half_period_flip_property(self, z_frac, t_frac, beta_mag, phase):
        gas = replace(
            documented_gas(rho=RHO_DENSE),
            alpha=math.sqrt(1.0 - beta_mag**2),
            beta=beta_mag * cmath.exp(1j * phase),
        )
        probe = gas.omega_p - PROBE_DELTA
        omega_prime = gas.omega_prime
        z = z_frac * 2.0 * math.pi * CGS.c / omega_prime
        t = t_frac * 2.0 * math.pi / omega_prime
        g = _g(gas, probe, z, t)
        flipped = _g(gas, probe, z, t + math.pi / omega_prime)
        assert abs(g + flipped) <= 1e-9 * (1.0 + abs(g))


class TestDepth:
    def test_zero_at_entry(self, gas_train, probe):
        assert modulation_depth(derive_coefficients(gas_train, probe), 0.0) == 0.0

    def test_documented_value(self, gas_train, probe, geometry):
        depth = modulation_depth(
            derive_coefficients(gas_train, probe), geometry["z_half"]
        )
        assert depth == pytest.approx(FROZEN["depth_train"], rel=1e-12)

    def test_closed_form_for_real_amplitudes(
        self, gas_train, probe, geometry
    ):
        z = 0.18 * geometry["length"]
        theta = gas_train.omega_prime * z / CGS.c
        b1, b2 = _brackets(gas_train, probe)
        scale = k_scale(gas_train, probe)
        expected = (
            scale
            * ALPHA
            * BETA
            * abs(1.0 - cmath.exp(-1j * theta))
            * abs(b1 - b2)
        )
        depth = modulation_depth(derive_coefficients(gas_train, probe), z)
        assert depth == pytest.approx(expected, rel=1e-12)

    def test_periodic_in_z(self, gas_train, probe, geometry):
        z = 0.37 * geometry["length"]
        a = modulation_depth(derive_coefficients(gas_train, probe), z)
        b = modulation_depth(
            derive_coefficients(gas_train, probe), z + geometry["length"]
        )
        assert b == pytest.approx(a, rel=1e-9)

    def test_depth_is_amplitude_of_re_g(
        self, gas_train, probe, geometry
    ):
        z = 0.41 * geometry["length"]
        depth = modulation_depth(derive_coefficients(gas_train, probe), z)
        t = np.linspace(0.0, geometry["period"], 4096, endpoint=False)
        g = exponent_grid(
            derive_coefficients(gas_train, probe), z=np.array([z]), t=t
        )[0]
        assert float(np.max(g.real)) == pytest.approx(depth, rel=1e-6)
        assert float(np.min(g.real)) == pytest.approx(-depth, rel=1e-6)

    def test_jensen_and_geometric_mean(
        self, gas_train, probe, geometry
    ):
        z = geometry["z_half"]
        t0 = z / CGS.c
        t = t0 + np.linspace(0.0, geometry["period"], 4096, endpoint=False)
        g = exponent_grid(
            derive_coefficients(gas_train, probe), z=np.array([z]), t=t
        )[0]
        gains = np.exp(2.0 * g.real)
        assert float(np.mean(gains)) >= 1.0
        assert float(np.max(gains) * np.min(gains)) == pytest.approx(
            1.0, rel=1e-9
        )


class TestIntensityGain:
    def test_equals_exp_of_twice_re_g(
        self, gas_train, probe, geometry
    ):
        t = np.linspace(0.0, geometry["period"], 256, endpoint=False)
        z = np.array([0.0, geometry["z_half"]])
        g = exponent_grid(derive_coefficients(gas_train, probe), z=z, t=t)
        assert np.array_equal(intensity_gain(g), np.exp(2.0 * g.real))

    @pytest.mark.parametrize("re_g", [354.6, -354.6])
    def test_beyond_double_range_refused(self, re_g):
        with pytest.raises(ConfigError, match="double-precision range"):
            intensity_gain(np.array([0.0, complex(re_g, 1.0)]))

    @pytest.mark.parametrize("re_g", [math.nan, math.inf])
    def test_nan_and_inf_refused(self, re_g):
        with pytest.raises(ConfigError, match="double-precision range"):
            intensity_gain(np.array([0.0, complex(re_g, 1.0)]))

    def test_limit_is_inclusive(self):
        gains = intensity_gain(np.array([354.5 + 2j, -354.5 + 0j]))
        assert gains.tolist() == [math.exp(709.0), math.exp(-709.0)]
