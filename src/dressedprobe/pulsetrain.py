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

#: Minimum samples per modulation period of a measured series, and grid
#: intervals of a checked residual: the coarsest order-study grid.
MIN_GRID_PER_PERIOD = 64


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


def _vertices(
    ln: np.ndarray, idx: np.ndarray, t0: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of the log-parabolas through the three samples
    around each extremum index in ``idx``."""
    y0, y1, y2 = ln[idx - 1], ln[idx], ln[idx + 1]
    offset = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return t0 + (idx + offset) * dt, y1 - 0.25 * (y0 - y2) * offset


def analyze_train(series: TimeSeries, omega_prime: float) -> PulseTrainStats:
    """Measure pulse-train statistics from a sampled gain series.

    The series must span at least two nominal periods 2 pi / omega_prime
    with at least 64 samples per period.  Each interior extremum of the log
    gain is refined to the vertex of the parabola through it and its two
    neighbours.  That parabola's curvature y0 - 2 y1 + y2 cannot vanish:
    at a peak y0 <= y1 > y2, and since rounding is monotonic the computed
    curvature is at most fl(y2 - y1) < 0; at a minimum it is positive.
    The repetition period is the mean spacing of the refined peaks; the
    depth comes from the log-extrema, depth = (ln peak - ln min) / 4.

    The width is measured on the tallest refined peak, earliest on ties,
    whose half-maximum level ln peak - ln 2 is crossed on both sides
    inside the series.  Each crossing is bracketed by the sample at or
    below the level nearest the peak and its neighbour towards the peak,
    and interpolated linearly in log gain between the two.

    Raises
    ------
    UnderSampled
        If span or sampling density is insufficient, fewer than two interior
        peaks are resolved, the measured peak's own sample is not above its
        half-maximum level (so no sample brackets a crossing), or the
        tallest refined peak gain overflows a double.
    ShallowModulation
        If the half-maximum level does not separate the pulses.
    """
    if omega_prime <= 0:
        raise ValueError("omega_prime must be strictly positive")
    period_nominal = 2.0 * math.pi / omega_prime
    n = len(series.gains)
    if period_nominal / series.dt < MIN_GRID_PER_PERIOD * (1.0 - 1e-9):
        raise UnderSampled(
            f"{period_nominal / series.dt:.1f} samples per period; "
            f"need >= {MIN_GRID_PER_PERIOD}"
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

    # A two-sample plateau is one extremum, found at its right sample, with
    # its vertex at the midpoint.
    interior = ln[1:-1]
    peak_idx = np.flatnonzero((interior >= ln[:-2]) & (interior > ln[2:])) + 1
    min_idx = np.flatnonzero((interior <= ln[:-2]) & (interior < ln[2:])) + 1
    if len(peak_idx) < 2 or len(min_idx) < 1:
        raise UnderSampled("fewer than two interior pulse peaks resolved")

    t0, dt = series.t0, series.dt
    peak_t, peak_ln = _vertices(ln, peak_idx, t0, dt)
    ln_min = _vertices(ln, min_idx, t0, dt)[1].min()
    period = float(np.mean(np.diff(peak_t)))

    # Tallest peak, earliest on ties, that has both half-max crossings
    # inside the series.
    order = np.lexsort((peak_t, -peak_ln))
    for k in order:
        p, level = peak_idx[k], peak_ln[k] - _LN2
        if ln[p] <= level:
            raise UnderSampled(
                f"peak sample at log gain {ln[p]:.6g} is not above its "
                f"half-maximum level {level:.6g}; the samples do not resolve "
                "the pulse"
            )
        below_left = np.flatnonzero(ln[:p] <= level)
        below_right = np.flatnonzero(ln[p + 1:] <= level)
        if below_left.size and below_right.size:
            break
    else:
        raise ShallowModulation(
            "no pulse has both half-maximum crossings inside the series"
        )
    left, right = below_left[-1] + 1, p + below_right[0]
    t_left = t0 + dt * (left - (level - ln[left]) / (ln[left - 1] - ln[left]))
    t_right = t0 + dt * (right + (ln[right] - level) / (ln[right] - ln[right + 1]))

    ln_peak = peak_ln[order[0]]
    try:
        peak_gain = math.exp(ln_peak)
    except OverflowError:
        raise UnderSampled(
            f"refined peak log gain {ln_peak:.6g} overflows a double"
        ) from None
    return PulseTrainStats(
        period=period,
        fwhm=float(t_right - t_left),
        peak_gain=peak_gain,
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
