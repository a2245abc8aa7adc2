"""Invariant suite behind the ``validate`` subcommand.

Each check exercises one exact property of the model (boundary identity,
half-period mirror, modulation periods, the zero-mean exponent, oracle
agreement between closed form and characteristic integration, convergence
orders, dispersion identities) and reports a measured number next to its
threshold.  Checks run independently; a physics error in one (for example
a probe parked on a resonance pole) is reported as a clean failure line
instead of aborting the suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import characteristics as chars
from . import dispersion as disp
from . import modulation as mod
from . import pulsetrain as pt
from .config import RunConfig
from .constants import CGS
from .dressed import AtomEnsemble, ProbeField, PumpField, SuperpositionState
from .errors import DressedProbeError, ResonancePole, StepTooCoarse


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str):
    """Report the decorated check, whose body returns (passed, detail), as
    ``name``; a domain error it raises becomes a failure of that name."""

    def decorate(body):
        @functools.wraps(body)
        def check(config: RunConfig, *args, **kwargs) -> CheckResult:
            try:
                return CheckResult(name, *body(config, *args, **kwargs))
            except DressedProbeError as exc:
                return CheckResult(name, False, f"{type(exc).__name__}: {exc}")

        return check

    return decorate


def _objects(config: RunConfig):
    return (
        config.ensemble(),
        config.pump(),
        config.state(),
        config.probe(),
    )


def _with_rho(ensemble: AtomEnsemble, rho: float) -> AtomEnsemble:
    return AtomEnsemble(omega0=ensemble.omega0, d=ensemble.d, rho=rho)


@_check("boundary_identity")
def check_boundary_identity(config: RunConfig) -> tuple[bool, str]:
    """|exp(G(0, t)) - 1| stays below 1e-12 over 1024 samples."""
    ensemble, pump, state, probe = _objects(config)
    period = 2.0 * math.pi / config.omega_prime()
    t = np.linspace(0.0, period, 1024, endpoint=False)
    g = mod.exponent_grid(
        ensemble, pump, state, probe.omega, np.array([0.0]), t, config.guard
    )
    worst = float(np.max(np.abs(np.exp(g) - 1.0)))
    return worst < 1e-12, f"max |F(0,t)-1| = {worst:.3e}"


@_check("antiperiodicity")
def check_antiperiodicity(config: RunConfig) -> tuple[bool, str]:
    """G(z, t + half period) = -G(z, t) on a 64 x 64 grid."""
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    length = period * CGS.c
    z = np.linspace(0.0, length, 64, endpoint=False)
    t = np.linspace(0.0, period, 64, endpoint=False)
    g = mod.exponent_grid(ensemble, pump, state, probe.omega, z, t, config.guard)
    g_shift = mod.exponent_grid(
        ensemble, pump, state, probe.omega, z, t + 0.5 * period, config.guard
    )
    worst = float(np.max(np.abs(g + g_shift) / (1.0 + np.abs(g))))
    return worst < 1e-9, f"max |G(t+T/2)+G|/(1+|G|) = {worst:.3e}"


@_check("modulation_periods")
def check_modulation_periods(config: RunConfig) -> tuple[bool, str]:
    """Measured repetition periods in t and z match 2 pi / w' and 2 pi c / w'."""
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    length = period * CGS.c
    z_fixed = config.z_fixed()

    spp = 512
    t0 = z_fixed / CGS.c
    t = t0 + np.arange(3 * spp) * (period / spp)
    g = mod.exponent_grid(
        ensemble, pump, state, probe.omega, np.array([z_fixed]), t, config.guard
    )[0]
    series = pt.TimeSeries(t0=t0, dt=period / spp, gains=mod.intensity_gain(g))
    stats = pt.analyze_train(series, omega_prime)
    err_t = abs(stats.period - period) / period

    z = np.arange(3 * spp) * (length / spp)
    t_fix = math.pi / omega_prime
    gz = mod.exponent_grid(
        ensemble, pump, state, probe.omega, z, np.array([t_fix]), config.guard
    )[:, 0]
    series_z = pt.TimeSeries(t0=0.0, dt=length / spp, gains=mod.intensity_gain(gz))
    stats_z = pt.analyze_train(series_z, omega_prime / CGS.c)
    err_z = abs(stats_z.period - length) / length

    ok = err_t < 1e-6 and err_z < 1e-6
    return (
        ok,
        f"period {stats.period:.6e} s (rel err {err_t:.2e}), "
        f"length {stats_z.period:.6e} cm (rel err {err_z:.2e})",
    )


@_check("zero_mean_jensen_geometric")
def check_zero_mean_jensen(config: RunConfig) -> tuple[bool, str]:
    """Time-mean Re G vanishes; mean gain >= 1; peak*min gain = 1."""
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    t = np.linspace(0.0, period, 4096, endpoint=False)
    g = mod.exponent_grid(
        ensemble,
        pump,
        state,
        probe.omega,
        np.array([config.z_fixed()]),
        t,
        config.guard,
    )[0]
    mean_re = abs(float(np.mean(g.real)))
    gains = mod.intensity_gain(g)
    mean_gain = float(np.mean(gains))
    geo = float(np.max(gains) * np.min(gains))
    ok = mean_re < 1e-9 and mean_gain >= 1.0 and abs(geo - 1.0) < 1e-6
    return (
        ok,
        f"|mean Re G| = {mean_re:.3e}, mean gain = {mean_gain:.6g}, "
        f"peak*min = 1 {geo - 1.0:+.3e}",
    )


def _oracle_error(
    ensemble, pump, state, probe, guard: float, steps_per_period: int
) -> float:
    """Worst oracle-vs-closed-form error over z in {L/4, L/2, L}."""
    omega_prime = pump.omega_prime
    length = 2.0 * math.pi * CGS.c / omega_prime
    coefs = chars.derive_coefficients(ensemble, pump, state, probe, guard)
    t_entry = 0.37 * 2.0 * math.pi / omega_prime
    worst = 0.0
    for frac in (0.25, 0.5, 1.0):
        z_end = frac * length
        t = t_entry + z_end / CGS.c
        steps = max(1, math.ceil(steps_per_period * frac))
        numeric = chars.integrate_characteristic(coefs, z_end, t_entry, steps)
        closed = chars.closed_form_log_amplitude(
            ensemble, pump, state, probe, z_end, t, guard
        )
        err = abs(numeric - closed) / (1.0 + abs(closed))
        worst = max(worst, err)
    return worst


@_check("oracle_agreement")
def check_oracle_agreement(config: RunConfig) -> tuple[bool, str]:
    """Characteristic integration matches the closed form to 1e-6."""
    ensemble, pump, state, probe = _objects(config)
    worst = _oracle_error(
        ensemble, pump, state, probe, config.guard, config.steps
    )
    return (
        worst < 1e-6,
        f"max rel log-amplitude error = {worst:.3e} at z in L/4, L/2, L",
    )


@_check("oracle_randomized")
def check_oracle_randomized(
    config: RunConfig, sets: int = 20
) -> tuple[bool, str]:
    """Oracle agreement over randomized (seeded) parameter sets."""
    rng = np.random.default_rng(20260809)
    worst = 0.0
    ensemble = config.ensemble()
    for _ in range(sets):
        detuning = float(
            rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(10.7, 11.7)
        )
        rabi = float(10 ** rng.uniform(9.0, 11.0))
        pump = PumpField.for_ensemble(ensemble, detuning=detuning, rabi=rabi)
        omega_prime = pump.omega_prime
        delta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.8)) * (
            omega_prime
        )
        probe = ProbeField(omega=pump.omega_p - delta)
        b = rng.uniform(0.05, 0.7)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        state = SuperpositionState(
            alpha=math.sqrt(1.0 - b * b),
            beta=b * complex(math.cos(phase), math.sin(phase)),
        )
        dense = _with_rho(ensemble, float(10 ** rng.uniform(13, 15.3)))
        err = _oracle_error(dense, pump, state, probe, config.guard, 1000)
        worst = max(worst, err)
    return (
        worst < 1e-6,
        f"max rel log-amplitude error over {sets} seeded sets = {worst:.3e}",
    )


@_check("rk4_convergence_order")
def check_rk4_convergence(config: RunConfig) -> tuple[bool, str]:
    """Integration error of the sideband part falls at fourth order.

    D is left out: the rule integrates it exactly, so it adds only rounding.
    The span is incommensurate (0.37 spatial periods), since over a whole
    period the truncation terms cancel spectrally; at 1000-2000 steps per
    period truncation stays far above the rounding floor.
    """
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    length = 2.0 * math.pi * CGS.c / omega_prime
    z_end = 0.37 * length
    coefs = replace(
        chars.derive_coefficients(ensemble, pump, state, probe, config.guard),
        d_coef=0.0,
    )
    closed = mod.exponent(
        ensemble, pump, state, probe, z_end, z_end / CGS.c, config.guard
    ).g
    steps = [math.ceil(0.37 * per_period) for per_period in (1000, 1414, 2000)]
    errors = [
        abs(chars.integrate_characteristic(coefs, z_end, 0.0, n) - closed)
        for n in steps
    ]
    if not all(errors):
        return False, "integration error is 0 (no sideband part): no order"
    orders = [
        math.log(errors[i] / errors[i + 1]) / math.log(steps[i + 1] / steps[i])
        for i in range(len(steps) - 1)
    ]
    return (
        all(3.5 < p < 4.5 for p in orders),
        "orders over 1000/1414/2000 steps per period = "
        + ", ".join(f"{p:.3f}" for p in orders)
        + " (expect 4)",
    )


@_check("fd_residual_convergence")
def check_fd_residual(config: RunConfig) -> tuple[bool, str]:
    """Centered-difference residual converges at second order.

    Without a sideband part the residual is rounding only and has no order.
    """
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    length = period * CGS.c
    coefs = chars.derive_coefficients(
        ensemble, pump, state, probe, config.guard
    )
    if coefs.ls == 0 and coefs.rs == 0:
        return False, "no sideband part: the residual is rounding only, no order"
    residuals = []
    for n in (64, 128, 256):
        z = np.linspace(0.0, length, n + 1)
        t = np.linspace(0.0, period, n + 1)
        grid = chars.log_amplitude_grid(
            ensemble, pump, state, probe, z, t, config.guard
        )
        residuals.append(
            chars.residual_check(grid, z, t, coefs, min_points_per_period=64)
        )
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    ok = all(3.0 < r < 5.5 for r in ratios) and residuals[-1] < 5e-4
    return (
        ok,
        f"residuals = {residuals[0]:.2e}/{residuals[1]:.2e}/{residuals[2]:.2e}, "
        "ratios = " + ", ".join(f"{r:.2f}" for r in ratios) + " (expect ~4)",
    )


@_check("dispersion_identities")
def check_dispersion_identities(config: RunConfig) -> tuple[bool, str]:
    """n0 = 1 for balanced states and empty cells; n0 - 1 linear in rho,
    measured on dipole_part + beyond_dipole_part since n0 - 1.0 carries the
    rounding of n0 (eps / |n0 - 1| relative); n0 is exactly their sum + 1."""
    ensemble, pump, state, probe = _objects(config)
    balanced = SuperpositionState(
        alpha=math.sqrt(0.5), beta=math.sqrt(0.5)
    )
    n_balanced = disp.refractive_index(
        ensemble, pump, balanced, probe.omega, config.guard
    ).n0
    empty = _with_rho(ensemble, 0.0)
    n_empty = disp.refractive_index(
        empty, pump, state, probe.omega, config.guard
    ).n0
    base = disp.refractive_index(ensemble, pump, state, probe.omega, config.guard)
    doubled = disp.refractive_index(
        _with_rho(ensemble, 2.0 * ensemble.rho),
        pump,
        state,
        probe.omega,
        config.guard,
    )
    offset = base.dipole_part + base.beyond_dipole_part
    doubled_offset = doubled.dipole_part + doubled.beyond_dipole_part
    lin_err = abs(doubled_offset - 2.0 * offset) / abs(doubled_offset)
    ok = (
        n_balanced == 1.0
        and n_empty == 1.0
        and lin_err < 1e-12
        and base.n0 == 1.0 + base.dipole_part + base.beyond_dipole_part
    )
    return (
        ok,
        f"n0(balanced) - 1 = {n_balanced - 1.0:.1e}, "
        f"n0(rho=0) - 1 = {n_empty - 1.0:.1e}, "
        f"rho-linearity rel err = {lin_err:.2e}, n0 - 1 = {offset:.6e}",
    )


@_check("beyond_dipole_non_saturating")
def check_beyond_dipole(config: RunConfig) -> tuple[bool, str]:
    """Beyond-dipole fraction rises monotonically over 4 decades of rabi."""
    ensemble = config.ensemble()
    ladder = np.geomspace(config.rabi / 100.0, config.rabi * 100.0, 17)
    values = [
        disp.beyond_dipole_fraction(
            ensemble,
            PumpField.for_ensemble(
                ensemble, detuning=config.detuning, rabi=float(r)
            ),
        )
        for r in ladder
    ]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    at_default = disp.beyond_dipole_fraction(ensemble, config.pump())
    return (
        increasing,
        f"fraction strictly increasing over {ladder[0]:.2e}..{ladder[-1]:.2e} "
        f"rad/s; at defaults = {at_default:.3e}",
    )


@_check("train_stats_closed_form")
def check_train_stats(config: RunConfig) -> tuple[bool, str]:
    """Train depth/width match the sinusoidal-exponent closed forms.

    Also reports that the measured width is on the picosecond scale for
    the default parameters, i.e. it does not reproduce a 250 fs pulse.
    """
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    z_fixed = config.z_fixed()
    spp = max(config.t_samples_per_period, 512)
    t0 = z_fixed / CGS.c
    t = t0 + np.arange(4 * spp) * (period / spp)
    g = mod.exponent_grid(
        ensemble, pump, state, probe.omega, np.array([z_fixed]), t, config.guard
    )[0]
    series = pt.TimeSeries(t0=t0, dt=period / spp, gains=mod.intensity_gain(g))
    stats = pt.analyze_train(series, omega_prime)
    depth = mod.modulation_depth(
        ensemble, pump, state, probe, z_fixed, config.guard
    )
    fwhm_ref = pt.fwhm_closed_form(depth, omega_prime)
    depth_err = abs(stats.depth - depth) / depth
    fwhm_err = abs(stats.fwhm - fwhm_ref) / fwhm_ref
    ratio_250fs = stats.fwhm / 250e-15
    ok = depth_err < 1e-6 and fwhm_err < 0.01
    return (
        ok,
        f"depth {stats.depth:.6g} (rel err {depth_err:.1e}), "
        f"fwhm {stats.fwhm:.4e} s vs closed form {fwhm_ref:.4e} s "
        f"(rel err {fwhm_err:.1e}); fwhm / 250 fs = {ratio_250fs:.2f}",
    )


@_check("guard_behavior")
def check_guard_behavior(config: RunConfig) -> tuple[bool, str]:
    """Pole and step guards refuse degenerate requests with clear errors."""
    ensemble, pump, state, probe = _objects(config)
    omega_prime = config.omega_prime()
    details = []
    ok = True

    # delta reconstructed from optical frequencies rounds at the ~0.1 rad/s
    # level, so a 1 rad/s guard stands in for an exact pole hit.
    try:
        mod.sideband_brackets(pump, pump.omega_p - omega_prime, guard=1.0)
        ok = False
        details.append("pole at delta = omega_prime NOT caught")
    except ResonancePole as exc:
        details.append(f"pole caught ({exc.denominator})")

    coefs = chars.derive_coefficients(ensemble, pump, state, probe, config.guard)
    length = 2.0 * math.pi * CGS.c / omega_prime
    try:
        chars.integrate_characteristic(coefs, length, 0.0, steps=10)
        ok = False
        details.append("coarse stepping NOT caught")
    except StepTooCoarse:
        details.append("coarse stepping caught")

    return ok, "; ".join(details)


ALL_CHECKS = (
    check_boundary_identity,
    check_antiperiodicity,
    check_modulation_periods,
    check_zero_mean_jensen,
    check_oracle_agreement,
    check_oracle_randomized,
    check_rk4_convergence,
    check_fd_residual,
    check_dispersion_identities,
    check_beyond_dipole,
    check_train_stats,
    check_guard_behavior,
)


def run_all(config: RunConfig) -> list[CheckResult]:
    """Run every check; each turns its domain errors into a failure."""
    return [check(config) for check in ALL_CHECKS]
