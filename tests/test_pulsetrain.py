"""Pulse-train statistics of sampled and module-generated gain series."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dressedprobe import (
    CGS,
    ShallowModulation,
    TimeSeries,
    UnderSampled,
    analyze_train,
    exponent_grid,
    fwhm_closed_form,
    modulation_depth,
)

from conftest import FROZEN

OMEGA_PRIME = FROZEN["omega_prime"]
PERIOD = 2.0 * math.pi / OMEGA_PRIME


def synthetic_series(depth, samples_per_period=512, periods=3, phase=0.0):
    """Gain series exp(2 depth cos(w' t + phase)) on an aligned grid."""
    dt = PERIOD / samples_per_period
    t = dt * np.arange(round(periods * samples_per_period))
    gains = np.exp(2.0 * depth * np.cos(OMEGA_PRIME * t + phase))
    return TimeSeries(t0=0.0, dt=dt, gains=tuple(gains))


class TestAnalyzeTrain:
    def test_period_recovered(self):
        stats = analyze_train(synthetic_series(2.0), OMEGA_PRIME)
        assert stats.period == pytest.approx(PERIOD, rel=1e-9)

    def test_fwhm_matches_closed_form_at_ln2(self):
        # depth = ln 2 makes the half-max crossings land at a third of
        # the period: fwhm = 2 pi / (3 w').
        stats = analyze_train(
            synthetic_series(math.log(2.0), samples_per_period=2048),
            OMEGA_PRIME,
        )
        assert stats.fwhm == pytest.approx(
            2.0 * math.pi / (3.0 * OMEGA_PRIME), rel=1e-4
        )

    def test_extrema_and_depth(self):
        stats = analyze_train(synthetic_series(3.0), OMEGA_PRIME)
        assert stats.peak_gain == pytest.approx(math.exp(6.0), rel=1e-9)
        assert stats.min_gain == pytest.approx(math.exp(-6.0), rel=1e-9)
        assert stats.depth == pytest.approx(3.0, rel=1e-9)
        assert stats.peak_gain * stats.min_gain == pytest.approx(1.0, rel=1e-6)

    def test_unaligned_grid_still_accurate(self):
        stats = analyze_train(
            synthetic_series(3.0, samples_per_period=1024, phase=1.234),
            OMEGA_PRIME,
        )
        assert stats.period == pytest.approx(PERIOD, rel=1e-6)
        assert stats.depth == pytest.approx(3.0, rel=1e-5)
        assert stats.peak_gain * stats.min_gain == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["minima", "maxima"])
    def test_extremum_between_two_equal_samples(self, sign):
        # An odd count per period puts every minimum (or, flipped, every
        # maximum) midway between two bit-equal samples.
        samples_per_period = 129
        k = np.arange(samples_per_period)
        phase = 2.0 * math.pi / samples_per_period * np.minimum(k, k[::-1] + 1)
        cycle = np.exp(sign * 6.0 * np.cos(phase))
        series = TimeSeries(
            t0=0.0, dt=PERIOD / samples_per_period, gains=np.tile(cycle, 4)
        )
        stats = analyze_train(series, OMEGA_PRIME)
        assert stats.period == pytest.approx(PERIOD, rel=1e-12)
        assert stats.depth == pytest.approx(3.0, rel=1e-3)
        assert stats.peak_gain * stats.min_gain == pytest.approx(1.0, rel=1e-2)

    def test_undersampled_density(self):
        with pytest.raises(UnderSampled):
            analyze_train(
                synthetic_series(2.0, samples_per_period=32), OMEGA_PRIME
            )

    def test_undersampled_span(self):
        series = synthetic_series(2.0, samples_per_period=512, periods=1.5)
        with pytest.raises(UnderSampled):
            analyze_train(series, OMEGA_PRIME)

    def test_shallow_modulation_rejected(self):
        with pytest.raises(ShallowModulation):
            analyze_train(synthetic_series(0.15), OMEGA_PRIME)

    def test_flat_series_rejected(self):
        flat = TimeSeries(
            t0=0.0, dt=PERIOD / 128, gains=(1.0,) * 512
        )
        with pytest.raises(ShallowModulation):
            analyze_train(flat, OMEGA_PRIME)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, dt=-1.0, gains=(1.0,))
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, dt=1.0, gains=())
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, dt=1.0, gains=(1.0, 0.0))
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, dt=1.0, gains=(1.0, math.inf))

    @pytest.mark.parametrize(
        "t0, dt",
        [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)],
    )
    def test_non_finite_axis_rejected(self, t0, dt):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(t0=t0, dt=dt, gains=(1.0, 2.0))

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, dt=1.0, gains=(1.0, math.nan))

    def test_two_dimensional_gains_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, dt=1.0, gains=[[1.0, 2.0], [2.0, 1.0]])

    def test_gains_are_a_read_only_copy(self):
        source = np.array([1.0, 2.0, 1.0])
        series = TimeSeries(t0=0.0, dt=1.0, gains=source)
        assert series.gains.dtype == np.float64
        with pytest.raises(ValueError):
            series.gains[0] = 5.0
        source[0] = 5.0
        assert series.gains[0] == 1.0
        # Equality and hash by identity: the array is never compared or
        # hashed element-wise.
        twin = TimeSeries(t0=0.0, dt=1.0, gains=series.gains)
        assert series != twin and series == series
        assert len({series, twin}) == 2


class TestClosedFormFwhm:
    def test_ln2_depth(self):
        assert fwhm_closed_form(math.log(2.0), OMEGA_PRIME) == pytest.approx(
            2.0 * math.pi / (3.0 * OMEGA_PRIME), rel=1e-12
        )

    def test_documented_value(self):
        assert fwhm_closed_form(
            FROZEN["depth_train"], OMEGA_PRIME
        ) == pytest.approx(FROZEN["fwhm_train"], rel=1e-12)

    def test_shallow_rejected(self):
        with pytest.raises(ShallowModulation):
            fwhm_closed_form(math.log(2.0) / 4.0, OMEGA_PRIME)

    def test_large_depth_limit_and_monotonicity(self):
        depths = [5.0, 50.0, 500.0, 5000.0]
        widths = [fwhm_closed_form(depth, OMEGA_PRIME) for depth in depths]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        for depth, width in zip(depths, widths):
            asymptote = (2.0 / OMEGA_PRIME) * math.sqrt(
                math.log(2.0) / depth
            )
            assert width == pytest.approx(asymptote, rel=0.1 / depth**0.5 + 0.02)


@pytest.fixture(scope="module")
def train_stats(gas_train, probe):
    omega_prime = gas_train.omega_prime
    period = 2.0 * math.pi / omega_prime
    z = math.pi * CGS.c / omega_prime
    spp = 1024
    t0 = z / CGS.c
    t = t0 + (period / spp) * np.arange(4 * spp)
    g = exponent_grid(
        gas_train, probe, np.array([z]), t
    )[0]
    series = TimeSeries(
        t0=t0, dt=period / spp, gains=tuple(np.exp(2.0 * g.real))
    )
    depth = modulation_depth(gas_train, probe, z)
    return analyze_train(series, omega_prime), depth


class TestClosedLoop:
    """Stats measured from module-generated series match the closed forms."""

    def test_period_closed_loop(self, train_stats):
        stats, _ = train_stats
        assert stats.period == pytest.approx(PERIOD, rel=1e-6)

    def test_depth_closed_loop(self, train_stats):
        stats, depth = train_stats
        assert depth == pytest.approx(FROZEN["depth_train"], rel=1e-12)
        assert stats.depth == pytest.approx(depth, rel=1e-6)

    def test_fwhm_closed_loop(self, train_stats):
        stats, depth = train_stats
        assert stats.fwhm == pytest.approx(
            fwhm_closed_form(depth, OMEGA_PRIME), rel=0.01
        )
        assert stats.fwhm == pytest.approx(FROZEN["fwhm_train"], rel=0.01)

    def test_geometric_mean_unity_closed_loop(self, train_stats):
        stats, _ = train_stats
        assert stats.peak_gain * stats.min_gain == pytest.approx(
            1.0, rel=1e-6
        )
