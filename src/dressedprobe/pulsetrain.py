"""Pulse-train statistics of a modulated intensity series.

The intensity gain of the probe is exp(2 Re G) with Re G a zero-mean
sinusoid at the generalized Rabi frequency, so the train repeats with
period 2 pi / w', the peak and minimum gains are exp(+-2R), and the pulse
width has the closed form fwhm = (2/w') arccos(1 - ln2 / (2R)).  This
module measures those quantities from sampled series and provides the
closed form for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShallowModulation, UnderSampled

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled intensity-gain series along one coordinate.

    The coordinate is normally time (seconds) at a fixed plane, but
    nothing below depends on that: a spatial cut works identically with dt
    meaning the grid spacing in cm and the rate argument rescaled to w'/c.

    ``gains`` is stored as a read-only 1-d float64 copy of the argument.
    Equality and hashing are by identity, so the array is never compared.
    """

    t0: float
    dt: float
    gains: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and 0 < self.dt < math.inf):
            raise ValueError("t0 must be finite, dt finite and strictly positive")
        gains = np.array(self.gains, dtype=np.float64)
        gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)
        if gains.ndim != 1 or gains.size == 0:
            raise ValueError("gains must be a non-empty 1-d sequence")
        # NaN fails both comparisons, inf the second.
        if not np.all((gains > 0.0) & (gains < np.inf)):
            raise ValueError("all gains must be finite and strictly positive")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.gains))


def is_uniform(x: np.ndarray) -> bool:
    """Whether every step of the samples ``x`` lies within 1e-9 relative of
    the first one; never for a NaN sample, which fails every comparison."""
    step = x[1] - x[0]
    return bool(np.all(np.abs(np.diff(x) - step) <= 1e-9 * abs(step)))


@dataclass(frozen=True)
class PulseTrainStats:
    """Measured repetition period, pulse width, extrema and depth."""

    period: float
    fwhm: float
    peak_gain: float
    min_gain: float
    depth: float


def _refine(ln: np.ndarray, idx: int, t0: float, dt: float) -> tuple[float, float]:
    """Log-parabola refinement of an extremum through three samples."""
    y0, y1, y2 = ln[idx - 1], ln[idx], ln[idx + 1]
    curvature = y0 - 2.0 * y1 + y2
    if curvature == 0.0:
        return t0 + idx * dt, y1
    offset = 0.5 * (y0 - y2) / curvature
    value = y1 - 0.25 * (y0 - y2) * offset
    return t0 + (idx + offset) * dt, value


def _half_max_crossings(
    ln: np.ndarray, peak_idx: int, level: float, t0: float, dt: float
) -> tuple[float, float] | None:
    """Linearly interpolated (in log gain) crossings around one peak."""
    left = peak_idx
    while left > 0 and ln[left - 1] > level:
        left -= 1
    right = peak_idx
    last = len(ln) - 1
    while right < last and ln[right + 1] > level:
        right += 1
    if left == 0 or right == last:
        return None
    t_left = t0 + dt * (left - (level - ln[left]) / (ln[left - 1] - ln[left]))
    t_right = t0 + dt * (
        right + (ln[right] - level) / (ln[right] - ln[right + 1])
    )
    return t_left, t_right


def analyze_train(series: TimeSeries, omega_prime: float) -> PulseTrainStats:
    """Measure pulse-train statistics from a sampled gain series.

    The series must span at least two nominal periods 2 pi / omega_prime
    with at least 64 samples per period.  The repetition period comes from
    the mean spacing of refined local maxima; the width from half-maximum
    crossings around the tallest peak (earliest peak on ties); the depth
    from the log-extrema, depth = (ln peak - ln min) / 4.

    Raises
    ------
    UnderSampled
        If span or sampling density is insufficient, or fewer than two
        interior peaks are resolved.
    ShallowModulation
        If the half-maximum level does not separate the pulses.
    """
    if omega_prime <= 0:
        raise ValueError("omega_prime must be strictly positive")
    period_nominal = 2.0 * math.pi / omega_prime
    n = len(series.gains)
    if period_nominal / series.dt < 64.0 * (1.0 - 1e-9):
        raise UnderSampled(
            f"{period_nominal / series.dt:.1f} samples per period; need >= 64"
        )
    if n * series.dt < 2.0 * period_nominal * (1.0 - 1e-9):
        raise UnderSampled(
            f"series spans {n * series.dt / period_nominal:.2f} periods; "
            "need >= 2"
        )
    ln = np.log(series.gains)

    if ln.min() >= ln.max() - _LN2:
        raise ShallowModulation(
            "half-maximum level does not separate pulses "
            f"(log-gain swing {ln.max() - ln.min():.3g} <= ln 2)"
        )

    # A two-sample plateau is one extremum, found at its right sample, where
    # _refine puts the vertex at the midpoint.
    interior = ln[1:-1]
    peak_idx = (
        np.nonzero((interior >= ln[:-2]) & (interior > ln[2:]))[0] + 1
    )
    min_idx = np.nonzero((interior <= ln[:-2]) & (interior < ln[2:]))[0] + 1
    if len(peak_idx) < 2 or len(min_idx) < 1:
        raise UnderSampled("fewer than two interior pulse peaks resolved")

    refined_peaks = [_refine(ln, i, series.t0, series.dt) for i in peak_idx]
    refined_mins = [_refine(ln, i, series.t0, series.dt) for i in min_idx]
    peak_times = np.array([t for t, _ in refined_peaks])
    period = float(np.mean(np.diff(peak_times)))

    # Tallest peak, earliest on ties, that has both half-max crossings
    # inside the series.
    order = sorted(
        range(len(peak_idx)),
        key=lambda k: (-refined_peaks[k][1], refined_peaks[k][0]),
    )
    ln_peak = refined_peaks[order[0]][1]
    fwhm = None
    for k in order:
        level = refined_peaks[k][1] - _LN2
        crossings = _half_max_crossings(
            ln, int(peak_idx[k]), level, series.t0, series.dt
        )
        if crossings is not None:
            fwhm = crossings[1] - crossings[0]
            break
    if fwhm is None:
        raise ShallowModulation(
            "no pulse has both half-maximum crossings inside the series"
        )

    ln_min = min(v for _, v in refined_mins)
    return PulseTrainStats(
        period=float(period),
        fwhm=float(fwhm),
        peak_gain=math.exp(ln_peak),
        min_gain=math.exp(ln_min),
        depth=float(0.25 * (ln_peak - ln_min)),
    )


def fwhm_closed_form(depth: float, omega_prime: float) -> float:
    """Pulse width implied by a sinusoidal log-gain of amplitude ``depth``.

    Returns (2/omega_prime) arccos(1 - ln2 / (2 depth)).  For large depth
    this falls off as (2/omega_prime) sqrt(ln2 / depth).

    Raises
    ------
    ShallowModulation
        If depth <= ln2 / 4, where the half-maximum level no longer
        separates consecutive pulses.
    """
    if omega_prime <= 0:
        raise ValueError("omega_prime must be strictly positive")
    if depth <= _LN2 / 4.0:
        raise ShallowModulation(
            f"depth {depth:.3g} <= ln2/4; pulses are not separated"
        )
    return (2.0 / omega_prime) * math.acos(1.0 - _LN2 / (2.0 * depth))
