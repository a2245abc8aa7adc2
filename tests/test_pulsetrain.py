"""Pulse-train statistics of sampled and module-generated gain series."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

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
from dressedprobe.config import load_config
from dressedprobe.modulation import gain_series

from conftest import FROZEN, UNRESOLVED, spiked

OMEGA_PRIME = FROZEN["omega_prime"]
PERIOD = 2.0 * math.pi / OMEGA_PRIME
TRAIN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pulse_train.json"


def synthetic_series(depth, samples_per_period=512, periods=3, phase=0.0):
    """Gain series exp(2 depth cos(w' t + phase)) on an aligned grid."""
    dt = PERIOD / samples_per_period
    t = dt * np.arange(round(periods * samples_per_period))
    gains = np.exp(2.0 * depth * np.cos(OMEGA_PRIME * t + phase))
    return TimeSeries(t0=0.0, dt=dt, gains=tuple(gains))


def tiled_cycle(sign):
    """Four periods of exp(6 sign cos) at an odd count per period, which puts
    every minimum (or, for sign -1, every maximum) midway between two
    bit-equal samples."""
    samples_per_period = 129
    k = np.arange(samples_per_period)
    phase = 2.0 * math.pi / samples_per_period * np.minimum(k, k[::-1] + 1)
    cycle = np.exp(sign * 6.0 * np.cos(phase))
    return TimeSeries(t0=0.0, dt=PERIOD / samples_per_period, gains=np.tile(cycle, 4))


def log_gain_series(ln, samples_per_period=64):
    return TimeSeries(t0=0.0, dt=PERIOD / samples_per_period, gains=np.exp(ln))


def equal_peaks():
    """Two pulses whose three top samples, and so whose refined peaks, are
    bit-equal; the later one is wider at half maximum."""
    ln = np.zeros(192)
    ln[61:68] = [5.0, 9.5, 9.9, 10.0, 9.9, 9.5, 5.0]
    ln[125:132] = [5.0, 9.8, 9.9, 10.0, 9.9, 9.8, 5.0]
    return log_gain_series(ln)


def edge_peak():
    """A decaying train that starts one sample before its tallest peak, so
    that peak has no left half-maximum crossing inside the series."""
    i = np.arange(4 * 64)
    return log_gain_series(6.0 * (1.0 - 0.01 * i / 64) * np.cos(2.0 * math.pi * (i - 1) / 64))


def pulse_train_series():
    config = load_config(TRAIN_CONFIG)
    return gain_series(config, config.t_periods, 1024)


def bits(stats):
    return tuple(repr(value) for value in dataclasses.astuple(stats))


# PulseTrainStats fields (period, fwhm, peak_gain, min_gain, depth), frozen
# bit for bit as repr.
PINNED = {
    "pulse_train_series": ("3.126001526812331e-11", "9.944265128052541e-13",
                           "1.9222735168874868e+60", "5.2021733182860644e-61",
                           "69.4043070942701"),
    "minima": ("3.126001526812332e-11", "4.829418792413353e-12", "403.4287934927351",
               "0.0024787541380863146", "2.999999802176757"),
    "maxima": ("3.126001526812331e-11", "4.8246410649661785e-12", "403.4284742624919",
               "0.0024787521766663585", "2.999999802176757"),
    "equal_peaks": ("3.126001526812331e-11", "1.995680008516723e-12", "22026.465794806718",
                    "0.5352614285189903", "2.65625"),
    "edge_peak": ("3.1259933938625083e-11", "4.852520708091163e-12", "403.05379254779376",
                  "0.002556617786486919", "2.992035026118671"),
}


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
        stats = analyze_train(tiled_cycle(sign), OMEGA_PRIME)
        assert stats.period == pytest.approx(PERIOD, rel=1e-12)
        assert stats.depth == pytest.approx(3.0, rel=1e-3)
        assert stats.peak_gain * stats.min_gain == pytest.approx(1.0, rel=1e-2)
        assert bits(stats) == PINNED["minima" if sign > 0 else "maxima"]

    @pytest.mark.parametrize(
        "series", [pulse_train_series, equal_peaks, edge_peak], ids=lambda f: f.__name__
    )
    def test_stats_pinned_bit_for_bit(self, series):
        assert bits(analyze_train(series(), OMEGA_PRIME)) == PINNED[series.__name__]

    @pytest.mark.parametrize("name", UNRESOLVED)
    def test_unresolved_peak_refused(self, name):
        # The refined peak lies more than ln 2 above its own sample, so no
        # sample is above the half-maximum level; or it is beyond a double.
        values, fragment = UNRESOLVED[name]
        with pytest.raises(UnderSampled, match=fragment):
            analyze_train(spiked(values), OMEGA_PRIME)

    def test_undersampled_density(self):
        with pytest.raises(UnderSampled):
            analyze_train(
                synthetic_series(2.0, samples_per_period=32), OMEGA_PRIME
            )

    def test_undersampled_span(self):
        series = synthetic_series(2.0, samples_per_period=512, periods=1.5)
        with pytest.raises(UnderSampled):
            analyze_train(series, OMEGA_PRIME)

    def test_single_interior_peak_rejected(self):
        # Two periods at 64 samples each: of the peaks at samples 0, 64 and
        # 128, only 64 is an interior sample (128 is past the end).
        series = synthetic_series(1.0, samples_per_period=64, periods=2)
        with pytest.raises(UnderSampled, match="fewer than two interior"):
            analyze_train(series, OMEGA_PRIME)

    def test_shallow_modulation_rejected(self):
        with pytest.raises(ShallowModulation):
            analyze_train(synthetic_series(0.15), OMEGA_PRIME)

    def test_rising_series_has_no_resolved_pulse(self):
        # Ripples on a ramp: each peak's half-maximum level is crossed
        # before it, but the ramp stays above it up to the last sample.
        i = np.arange(256)
        ln = 0.005 * i + 0.1 * np.cos(2.0 * math.pi * i / 64)
        series = TimeSeries(t0=0.0, dt=PERIOD / 64, gains=np.exp(ln))
        with pytest.raises(ShallowModulation, match="no pulse has both"):
            analyze_train(series, OMEGA_PRIME)

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


@pytest.mark.parametrize("omega_prime", [0.0, -1.0])
def test_non_positive_omega_prime_rejected(omega_prime):
    with pytest.raises(ValueError, match="omega_prime must be strictly"):
        analyze_train(synthetic_series(2.0), omega_prime)
    with pytest.raises(ValueError, match="omega_prime must be strictly"):
        fwhm_closed_form(2.0, omega_prime)


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
