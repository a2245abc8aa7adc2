"""Invariant suite behind the ``validate`` subcommand.

Each check exercises one exact property of the model (boundary identity,
half-period mirror, modulation periods, the zero-mean exponent, oracle
agreement between closed form and characteristic integration, convergence
orders, dispersion identities) and reports a measured number next to its
threshold.  Checks run independently; a physics error in one (for example
a probe parked on a resonance pole) is reported as a clean failure line
instead of aborting the suite.

The checks read the config's coefficients from ``RunConfig.coefficients``,
derived once per config; the randomized oracle derives one per set.
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


def _measured_train(config: RunConfig, periods: int, spp: int) -> pt.PulseTrainStats:
    """Train statistics of the gain at the config's plane over ``periods``
    modulation periods of ``spp`` samples; every check that measures a
    train samples it here."""
    series = mod.gain_series(config.coefficients, config.z_fixed(), periods, spp)
    return pt.analyze_train(series, config.omega_prime())


@_check("boundary_identity")
def check_boundary_identity(config: RunConfig) -> tuple[bool, str]:
    """|exp(G(0, t)) - 1| stays below 1e-12 over 1024 samples."""
    period = 2.0 * math.pi / config.omega_prime()
    t = np.linspace(0.0, period, 1024, endpoint=False)
    g = mod.exponent_grid(config.coefficients, z=[0.0], t=t)
    worst = float(np.max(np.abs(np.exp(g) - 1.0)))
    return worst < 1e-12, f"max |F(0,t)-1| = {worst:.3e}"


@_check("antiperiodicity")
def check_antiperiodicity(config: RunConfig) -> tuple[bool, str]:
    """G(z, t + half period) = -G(z, t) on a 64 x 64 grid."""
    coefs = config.coefficients
    period = 2.0 * math.pi / config.omega_prime()
    length = period * CGS.c
    z = np.linspace(0.0, length, 64, endpoint=False)
    t = np.linspace(0.0, period, 64, endpoint=False)
    g = mod.exponent_grid(coefs, z=z, t=t)
    g_shift = mod.exponent_grid(coefs, z=z, t=t + 0.5 * period)
    worst = float(np.max(np.abs(g + g_shift) / (1.0 + np.abs(g))))
    return worst < 1e-9, f"max |G(t+T/2)+G|/(1+|G|) = {worst:.3e}"


@_check("modulation_periods")
def check_modulation_periods(config: RunConfig) -> tuple[bool, str]:
    """Measured repetition periods in t and z match 2 pi / w' and 2 pi c / w'."""
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    length = period * CGS.c

    spp = 512
    stats = _measured_train(config, 3, spp)
    err_t = abs(stats.period - period) / period

    z = np.arange(3 * spp) * (length / spp)
    gz = mod.exponent_grid(config.coefficients, z=z, t=[math.pi / omega_prime])[:, 0]
    # Scaling moves no extremum, and keeps a z-series that passes a deeper
    # plane than the config's below the gain limit 709 even after rounding.
    scale = 708.0 / max(708.0, float(np.max(np.abs(2.0 * gz.real))))
    gains_z = mod.intensity_gain(scale * gz.real)
    series_z = pt.TimeSeries(t0=0.0, dt=length / spp, gains=gains_z)
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
    period = 2.0 * math.pi / config.omega_prime()
    t = np.linspace(0.0, period, 4096, endpoint=False)
    g = mod.exponent_grid(config.coefficients, z=[config.z_fixed()], t=t)[0]
    mean_re = abs(float(np.mean(g.real)))
    gains = mod.intensity_gain(g)
    peak = float(np.max(gains))
    # Relative to the peak, since the sum of gains up to exp(709) overflows.
    mean_gain = float(np.mean(gains / peak)) * peak
    geo = peak * float(np.min(gains))
    ok = mean_re < 1e-9 and mean_gain >= 1.0 and abs(geo - 1.0) < 1e-6
    return (
        ok,
        f"|mean Re G| = {mean_re:.3e}, mean gain = {mean_gain:.6g}, "
        f"peak*min = 1 {geo - 1.0:+.3e}",
    )


def _oracle_error(coefs: mod.RweCoefficients, steps_per_period: int) -> float:
    """Worst oracle-vs-closed-form error of ``coefs`` over z in
    {L/4, L/2, L}; NaN if any error is."""
    omega_prime = coefs.omega_prime
    length = 2.0 * math.pi * CGS.c / omega_prime
    t_entry = 0.37 * 2.0 * math.pi / omega_prime
    fracs = (0.25, 0.5, 1.0)
    z_ends = [frac * length for frac in fracs]
    t_ends = [t_entry + z_end / CGS.c for z_end in z_ends]
    closed = chars.log_amplitude_grid(coefs, z_ends, t_ends).diagonal()
    errors = []
    for frac, z_end, closed_end in zip(fracs, z_ends, closed.tolist()):
        steps = max(1, math.ceil(steps_per_period * frac))
        numeric = chars.integrate_characteristic(coefs, z_end, t_entry, steps)
        errors.append(abs(numeric - closed_end) / (1.0 + abs(closed_end)))
    return float(np.max(errors))


@_check("oracle_agreement")
def check_oracle_agreement(config: RunConfig) -> tuple[bool, str]:
    """Characteristic integration matches the closed form to 1e-6."""
    worst = _oracle_error(config.coefficients, config.steps)
    return (
        worst < 1e-6,
        f"max rel log-amplitude error = {worst:.3e} at z in L/4, L/2, L",
    )


#: (detuning, rabi, offset, b, phase, rho) of the randomized oracle, frozen
#: from numpy's ``default_rng(20260809)``: detuning = +-10**U(10.7, 11.7)
#: rad/s, rabi = 10**U(9, 11) rad/s, probe - pump offset = +-U(0.01, 0.8) in
#: units of w', |beta| = b ~ U(0.05, 0.7) with phase ~ U(0, 2 pi), and
#: rho = 10**U(13, 15.3) cm^-3, drawn in that order.
_ORACLE_SETS = (
    (129175258295.09273, 2504382498.7769656, 0.40027859575584257, 0.6557873651544761, 3.120376097952329, 1164196299589897.8),
    (-57379786951.042885, 66022396878.73074, 0.5499687026406521, 0.691362978102219, 5.717689817141171, 519451280396271.44),
    (157942410239.19382, 50526034144.99378, -0.4395270999038063, 0.4272216527505928, 3.3733581084546245, 1454074918385432.0),
    (-87940702734.06253, 59204063454.66752, -0.4249003416653351, 0.26155478727774345, 5.298421008941696, 531815809434594.9),
    (295071362980.0423, 1650728584.8694131, -0.09754333235556412, 0.550276648929636, 3.1200476848786893, 67937231854709.15),
    (-222376017583.5444, 1546600003.4086866, -0.7187995513401898, 0.25685890335712575, 3.3873317758194337, 1550492687825260.8),
    (138649568384.1378, 40645490086.29046, -0.7726372202284172, 0.2892416656677087, 5.272343762128766, 21359376785298.83),
    (-209202529811.67612, 1461095803.025224, 0.7282370269237852, 0.469223876398176, 1.1627654992698488, 133759239009247.8),
    (127194433624.26591, 2485127070.7325654, -0.29030224438204366, 0.2460426273611402, 5.914260039929103, 58998397206782.49),
    (222846569569.8691, 17789308917.445705, 0.15943925011422644, 0.633452945561015, 3.0057365248235843, 1436903289458806.5),
    (-159903018495.83725, 2893403407.8407125, 0.33113162185644235, 0.08099873706824204, 5.566622757311383, 179690286970549.12),
    (104135248793.97256, 7546477256.064871, 0.2699125660113492, 0.2796072693588469, 0.2146086188231285, 27341708731218.617),
    (-109828433290.92822, 2068181394.360662, 0.7693338819121137, 0.25190191271103046, 1.5272959421317696, 500208051799378.8),
    (83167934342.86807, 4766962114.927836, 0.08457380596883834, 0.2560826323853977, 4.813326870886431, 34566828231092.035),
    (269963519375.29013, 1603548718.5831506, -0.48242621387699147, 0.6729051902061038, 2.1238282617382405, 598279112252116.5),
    (-296938740899.2412, 65840252039.277016, -0.4461730111342708, 0.17802057553686002, 5.339695568033512, 1236038556146532.0),
    (-118823849003.77861, 1704653863.7959924, -0.3424136906569709, 0.6945693134492043, 6.0353728021586734, 692988983759587.6),
    (-51050824231.11332, 15453857436.957817, 0.21874716095092975, 0.1989558574671878, 0.4764235796664151, 27773058334438.652),
    (-253905732539.7692, 87823569108.99895, 0.39142394791543084, 0.2169750017029533, 5.547568005507265, 77057863595015.75),
    (192641370620.6609, 44904507385.74157, 0.1999635974404307, 0.35481344873192466, 4.488570131881643, 14003585197344.484),
)


@_check("oracle_randomized")
def check_oracle_randomized(config: RunConfig) -> tuple[bool, str]:
    """Oracle agreement over the seeded parameter sets ``_ORACLE_SETS``."""
    errors = []
    gas = config.gas()
    for detuning, rabi, offset, b, phase, rho in _ORACLE_SETS:
        varied = replace(
            gas,
            rho=rho,
            detuning=detuning,
            rabi=rabi,
            alpha=math.sqrt(1.0 - b * b),
            beta=b * complex(math.cos(phase), math.sin(phase)),
        )
        probe_omega = varied.omega_p - offset * varied.omega_prime
        errors.append(_oracle_error(mod.derive_coefficients(varied, probe_omega), 1000))
    worst = float(np.max(errors))
    return (
        worst < 1e-6,
        f"max rel log-amplitude error over {len(_ORACLE_SETS)} seeded sets "
        f"= {worst:.3e}",
    )


def integration_errors(config: RunConfig) -> tuple[list[int], list[float]]:
    """Steps and errors of integrating the sideband part over 0.37 spatial
    periods at 1000, 1414 and 2000 steps per period; all 0 without one.

    D is left out: the rule integrates it exactly, so it adds only rounding.
    The span is incommensurate, since over a whole period the truncation
    terms cancel spectrally; at 1000-2000 steps per period truncation stays
    far above the rounding floor.
    """
    length = 2.0 * math.pi * CGS.c / config.omega_prime()
    z_end = 0.37 * length
    coefs = replace(config.coefficients, index=0.0)
    closed = complex(chars.log_amplitude_grid(coefs, [z_end], [z_end / CGS.c])[0, 0])
    steps = [math.ceil(0.37 * per_period) for per_period in (1000, 1414, 2000)]
    errors = [
        abs(chars.integrate_characteristic(coefs, z_end, 0.0, n) - closed)
        for n in steps
    ]
    return steps, errors


#: Grid intervals per period in z and t of the finite-difference study.
_FD_POINTS = (64, 128, 256)


def fd_residuals(config: RunConfig) -> list[float]:
    """``residual_check`` of the closed-form ln A over one period in z and t
    at each count of grid intervals in ``_FD_POINTS``.  Empty without a
    sideband part, where the residual is rounding only and has no order."""
    period = 2.0 * math.pi / config.omega_prime()
    length = period * CGS.c
    coefs = config.coefficients
    if coefs.ls == 0 and coefs.rs == 0:
        return []
    residuals = []
    for n in _FD_POINTS:
        z = np.linspace(0.0, length, n + 1)
        t = np.linspace(0.0, period, n + 1)
        grid = chars.log_amplitude_grid(coefs, z, t)
        residuals.append(chars.residual_check(grid, z, t, coefs))
    return residuals


def convergence_orders(points, errors) -> list[float]:
    """Order p between consecutive (points, errors) pairs, errors ~ points**-p."""
    return [
        math.log(errors[i] / errors[i + 1]) / math.log(points[i + 1] / points[i])
        for i in range(len(points) - 1)
    ]


@_check("rk4_convergence_order")
def check_rk4_convergence(config: RunConfig) -> tuple[bool, str]:
    """Integration error of the sideband part falls at fourth order."""
    steps, errors = integration_errors(config)
    if not all(errors):
        return False, "integration error is 0 (no sideband part): no order"
    orders = convergence_orders(steps, errors)
    return (
        all(3.5 < p < 4.5 for p in orders),
        "errors = " + "/".join(f"{e:.2e}" for e in errors)
        + ", orders over 1000/1414/2000 steps per period = "
        + ", ".join(f"{p:.3f}" for p in orders)
        + " (expect 4)",
    )


@_check("fd_residual_convergence")
def check_fd_residual(config: RunConfig) -> tuple[bool, str]:
    """Centered-difference residual converges at second order."""
    residuals = fd_residuals(config)
    if not residuals:
        return False, "no sideband part: the residual is rounding only, no order"
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
    measured on the dipole plus beyond-dipole part since n0 - 1.0 carries
    the rounding of n0 (eps / |n0 - 1| relative)."""
    gas, probe_omega = config.gas(), config.probe_omega()

    def index(**change):
        """n0 and the dipole plus beyond-dipole part of the changed gas."""
        n0, dipole, beyond, _ = disp.index_parts(replace(gas, **change), probe_omega)
        return float(n0), float(dipole + beyond)

    n_balanced, _ = index(alpha=math.sqrt(0.5), beta=math.sqrt(0.5))
    n_empty, _ = index(rho=0.0)
    _, offset = index()
    _, doubled_offset = index(rho=2.0 * gas.rho)
    # Relative unless n0 = 1 exactly, then raw as in ``residual_check``.
    lin_err = abs(doubled_offset - 2.0 * offset) / (abs(doubled_offset) or 1.0)
    ok = n_balanced == 1.0 and n_empty == 1.0 and lin_err < 1e-12
    return (
        ok,
        f"n0(balanced) - 1 = {n_balanced - 1.0:.1e}, "
        f"n0(rho=0) - 1 = {n_empty - 1.0:.1e}, "
        f"rho-linearity rel err = {lin_err:.2e}, n0 - 1 = {offset:.6e}",
    )


@_check("beyond_dipole_non_saturating")
def check_beyond_dipole(config: RunConfig) -> tuple[bool, str]:
    """Beyond-dipole fraction rises monotonically over 4 decades of rabi."""
    if config.rabi == 0:
        return False, "rabi = 0: beyond-dipole term scales as rabi^2, nothing to grow"
    gas = config.gas()
    ladder = np.geomspace(config.rabi / 100.0, config.rabi * 100.0, 17)
    values = [
        disp.beyond_dipole_fraction(replace(gas, rabi=float(r))) for r in ladder
    ]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    at_default = disp.beyond_dipole_fraction(gas)
    return (
        increasing,
        f"fraction {'' if increasing else 'not '}strictly increasing over "
        f"{ladder[0]:.2e}..{ladder[-1]:.2e} rad/s; at defaults = {at_default:.3e}",
    )


@_check("train_stats_closed_form")
def check_train_stats(config: RunConfig) -> tuple[bool, str]:
    """Train depth/width match the sinusoidal-exponent closed forms.

    Also reports that the measured width is on the picosecond scale for
    the default parameters, i.e. it does not reproduce a 250 fs pulse.
    """
    omega_prime = config.omega_prime()
    stats = _measured_train(config, 4, max(config.t_samples_per_period, 512))
    depth = mod.modulation_depth(config.coefficients, config.z_fixed())
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
    gas = config.gas()
    omega_prime = config.omega_prime()
    details = []
    ok = True

    # delta reconstructed from optical frequencies rounds at the ~0.1 rad/s
    # level, so a 1 rad/s guard stands in for an exact pole hit.  Where
    # omega_p <= w' the pole at omega_p - w' is no probe frequency, so the
    # one at omega_p + w' is probed instead.
    omega_p = gas.omega_p
    sign = "" if omega_p > omega_prime else "-"
    delta = -omega_prime if sign else omega_prime
    try:
        disp.resonance_denominators(replace(gas, guard=1.0), omega_p - delta)
        ok = False
        details.append(f"pole at delta = {sign}omega_prime NOT caught")
    except ResonancePole as exc:
        details.append(f"pole caught ({exc.denominator})")

    length = 2.0 * math.pi * CGS.c / omega_prime
    try:
        chars.integrate_characteristic(config.coefficients, length, 0.0, steps=10)
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
