"""The validate suite on valid configs from the benchmark's documented ranges.

``data/bench_configs.json`` holds 24 configs frozen from
``bench/workloads.make_plan``: every config of validate_suite seeds 1, 2
and 16, of pulse_train seeds 1 and 2 and of spectral_scan seed 1, and the
dense spectral_scan seed 2 pair.  They include the two on which the
rho-linearity check once read 1.06e-12 and 1.78e-12 against its 1e-12
bound, and the one on which a last-bit change of the sideband coefficients
moved the old convergence ratio out of its band.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dressedprobe import characteristics as chars
from dressedprobe import dispersion as disp
from dressedprobe import modulation as mod
from dressedprobe import validation
from dressedprobe.config import config_from_dict
from dressedprobe.constants import CGS
from dressedprobe.errors import ResonancePole
from dressedprobe.validation import ALL_CHECKS, run_all

from conftest import child_env

BENCH_CONFIGS = json.loads(
    (Path(__file__).parent / "data" / "bench_configs.json").read_text()
)

#: Valid configs just inside the double-precision gain limit: 2R = 707.9 at
#: the plane, where 4096 gains no larger than exp(709) overflow their sum;
#: and 2R = 636 at the plane of a z-series that passes theta = pi at 786.
EDGE_CONFIGS = {
    "edge_jensen_sum": {"ensemble": {"rho": 3.06e15}},
    "edge_z_series": {"ensemble": {"rho": 3.4e15}, "z": {"theta": 1.885}},
}


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS) + sorted(EDGE_CONFIGS))
def test_every_check_passes(name):
    results = run_all(config_from_dict({**BENCH_CONFIGS, **EDGE_CONFIGS}[name]))
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert len(results) == len(ALL_CHECKS) == 12
    assert not failed, failed


@pytest.mark.parametrize(
    "guard, passing",
    [
        (
            3e9,
            {
                "oracle_randomized",
                "dispersion_identities",
                "beyond_dipole_non_saturating",
            },
        ),
        (1e12, {"beyond_dipole_non_saturating"}),
    ],
)
def test_the_config_guard_reaches_every_check(guard, passing):
    # probe.delta is 2e9 rad/s, so a 3e9 guard covers the probe's
    # omega_p - omega; 1e12 also covers both sidebands at w' = 2.01e11.
    # The randomized sets and the identities' variants are replace()d
    # gases: they fail at 1e12 only if they inherit the config's guard.
    results = run_all(config_from_dict({"guard": guard}))
    assert {r.name for r in results if r.passed} == passing
    for result in results:
        if not result.passed:
            assert result.detail.startswith("ResonancePole: "), result.detail


def test_pure_state_fails_cleanly():
    # A gas in one dressed state has no sideband part, so there is no
    # integration error, and no finite-difference residual above rounding,
    # whose order could be measured.
    results = run_all(config_from_dict({"state": {"alpha": 1.0, "beta": 0.0}}))
    assert len(results) == 12
    for name in ("rk4_convergence_order", "fd_residual_convergence"):
        check = next(r for r in results if r.name == name)
        assert not check.passed
        assert "no sideband part" in check.detail


def test_oracle_agreement_at_the_steps_ceiling():
    # 65,537 nodes at z = L, all in one array.
    check = validation.check_oracle_agreement(config_from_dict({"steps": 32768}))
    assert check.passed, check.detail


def test_convergence_orders_of_a_power_law():
    points = [370, 524, 740, 1024]
    errors = [n**-4.0 for n in points]
    assert validation.convergence_orders(points, errors) == pytest.approx(
        [4.0] * 3, rel=0, abs=1e-12
    )


@pytest.mark.parametrize(
    "override",
    [
        {"state": {"alpha": math.sqrt(0.5), "beta": math.sqrt(0.5)}},
        {"ensemble": {"rho": 0.0}},
    ],
    ids=["balanced_state", "empty_cell"],
)
def test_undispersed_configs_report(override):
    # n0 = 1 exactly here, so the rho-linearity offsets are both 0; the
    # suite reports instead of raising ZeroDivisionError.
    results = run_all(config_from_dict(override))
    assert len(results) == 12
    check = next(r for r in results if r.name == "dispersion_identities")
    assert check.passed, check.detail


def test_dark_pump_fails_cleanly():
    # The beyond-dipole term scales as rabi^2: at rabi = 0 there is no
    # ladder of Rabi frequencies over which it could grow.
    dark = config_from_dict({"pump": {"rabi": 0.0}})
    check = validation.check_beyond_dipole(dark)
    assert not check.passed
    assert "rabi = 0" in check.detail


def test_far_detuned_pump_probes_the_other_pole():
    # omega_p = 4e14 < w', so omega_p - w' is no probe frequency; the
    # omega_p - omega + omega_prime pole at omega_p + w' is probed instead.
    check = validation.check_guard_behavior(
        config_from_dict({"pump": {"detuning": -6e14}})
    )
    assert check.passed, check.detail
    assert check.detail == (
        "pole caught (omega_p - omega + omega_prime); coarse stepping caught"
    )


@pytest.mark.parametrize(
    "layer, name, detail",
    [
        (
            "disp",
            "resonance_denominators",
            "pole at delta = omega_prime NOT caught; coarse stepping caught",
        ),
        (
            "chars",
            "integrate_characteristic",
            "pole caught (omega_p - omega - omega_prime); coarse stepping NOT caught",
        ),
    ],
    ids=["pole", "coarse_stepping"],
)
def test_guard_behavior_fails_when_a_guard_lets_through(
    monkeypatch, layer, name, detail
):
    # Each guard, made to return instead of raise, fails the check by name:
    # the pole guard marks the probe, wrapped in a list, in its mask.
    original = getattr(getattr(validation, layer), name)

    def lenient(*args, **kwargs):
        if name == "resonance_denominators":
            gas, probe_omega = args
            return original(gas, [probe_omega], **kwargs)
        return 0j

    monkeypatch.setattr(getattr(validation, layer), name, lenient)
    check = validation.check_guard_behavior(config_from_dict({}))
    assert not check.passed
    assert check.detail == detail


def test_blue_detuned_pump_is_non_saturating():
    # For detuning > 0 the blue sideband carries (w' + |detuning|)^2, and
    # the fraction over that numerator grows with rabi as for red detuning.
    blue = config_from_dict({"pump": {"detuning": 2e11}})
    check = validation.check_beyond_dipole(blue)
    assert check.passed, check.detail


def test_beyond_dipole_fail_text_is_not_the_claim(monkeypatch):
    # No valid gas has a non-monotone fraction any more, so the ladder's
    # values come from a fraction that falls with rabi.
    monkeypatch.setattr(
        validation.disp, "beyond_dipole_fraction", lambda gas: 1.0 / gas.rabi
    )
    check = validation.check_beyond_dipole(config_from_dict({}))
    assert not check.passed
    assert check.detail.startswith("fraction not strictly increasing over ")
    monkeypatch.undo()
    default = validation.check_beyond_dipole(config_from_dict({}))
    assert default.passed
    assert default.detail.startswith("fraction strictly increasing over ")


def test_oracle_sets_are_the_seeded_draw():
    # The randomized oracle has always checked these draws; freezing them
    # keeps numpy.random out of validate without re-choosing a single set.
    rng = np.random.default_rng(20260809)
    drawn = []
    for _ in range(20):
        detuning = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(10.7, 11.7))
        rabi = float(10 ** rng.uniform(9.0, 11.0))
        offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.8))
        b = rng.uniform(0.05, 0.7)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rho = float(10 ** rng.uniform(13, 15.3))
        drawn.append((detuning, rabi, offset, b, phase, rho))
    assert validation._ORACLE_SETS == tuple(drawn)


def test_validate_does_not_import_numpy_random(tmp_path):
    code = (
        "import sys\n"
        "from dressedprobe import cli\n"
        f"status = cli.main(['validate', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _reference_oracle_error(gas, probe, steps_per_period):
    """One one-point log_amplitude_grid and one integration per plane."""
    length = 2.0 * math.pi * CGS.c / gas.omega_prime
    coefs = mod.derive_coefficients(gas, probe)
    t_entry = 0.37 * 2.0 * math.pi / gas.omega_prime
    worst = 0.0
    for frac in (0.25, 0.5, 1.0):
        z_end = frac * length
        t = t_entry + z_end / CGS.c
        steps = max(1, math.ceil(steps_per_period * frac))
        numeric = chars.integrate_characteristic(coefs, z_end, t_entry, steps)
        closed = complex(
            chars.log_amplitude_grid(coefs, [z_end], [t])[0, 0]
        )
        worst = max(worst, abs(numeric - closed) / (1.0 + abs(closed)))
    return worst


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_oracle_error_matches_per_plane_reference(name):
    config = config_from_dict(BENCH_CONFIGS[name])
    args = (config.gas(), config.probe_omega(), config.steps)
    assert validation._oracle_error(
        config.coefficients, config.steps
    ) == _reference_oracle_error(*args)


def _reference_fd_residuals(config):
    """One closed-form ln A, G plus the direct phase, per grid."""
    gas, probe = config.gas(), config.probe_omega()
    period = 2.0 * math.pi / config.omega_prime()
    coefs = mod.derive_coefficients(gas, probe)
    n0, _, _, _ = disp.index_parts(gas, probe)
    index = n0 - 1.0
    residuals = []
    for n in (64, 128, 256):
        z = np.linspace(0.0, period * CGS.c, n + 1)
        t = np.linspace(0.0, period, n + 1)
        grid = mod.exponent_grid(coefs, z=z, t=t)
        grid = grid + (1j * probe * index * z / CGS.c)[:, None]
        residuals.append(chars.residual_check(grid, z, t, coefs))
    return residuals


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_fd_residuals_match_per_grid_reference(name):
    config = config_from_dict(BENCH_CONFIGS[name])
    assert validation.fd_residuals(config) == _reference_fd_residuals(config)


def _reference_integration_errors(config):
    """One closed-form G and one D-free integration per step count."""
    gas, probe = config.gas(), config.probe_omega()
    z_end = 0.37 * (2.0 * math.pi * CGS.c / config.omega_prime())
    coefs = replace(mod.derive_coefficients(gas, probe), index=0.0)
    steps = [math.ceil(0.37 * n) for n in (1000, 1414, 2000)]
    errors = []
    for n in steps:
        closed = mod.exponent_grid(coefs, z=[z_end], t=[z_end / CGS.c])
        numeric = chars.integrate_characteristic(coefs, z_end, 0.0, n)
        errors.append(abs(numeric - complex(closed[0, 0])))
    return steps, errors


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_integration_errors_match_per_call_reference(name):
    config = config_from_dict(BENCH_CONFIGS[name])
    assert validation.integration_errors(config) == (
        _reference_integration_errors(config)
    )


@pytest.fixture
def pole_passes(monkeypatch):
    """Each resonance_denominators pass as (binding, rayleigh): the
    ``modulation`` binding is derive_coefficients' (one full pole test,
    rayleigh=True, per call), the ``dispersion`` binding every other."""
    passes = []
    original = disp.resonance_denominators

    def counted(binding):
        def call(*args, **kwargs):
            passes.append((binding, kwargs.get("rayleigh", True)))
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(disp, "resonance_denominators", counted("dispersion"))
    monkeypatch.setattr(mod, "resonance_denominators", counted("modulation"))
    return passes


DERIVE = ("modulation", True)


@pytest.mark.parametrize(
    "call, expected",
    [
        (validation.check_oracle_randomized, [DERIVE] * 20),
        (validation.check_oracle_agreement, [DERIVE]),
        (validation.fd_residuals, [DERIVE]),
        (validation.integration_errors, [DERIVE]),
        (validation.check_boundary_identity, [DERIVE]),
        (validation.check_antiperiodicity, [DERIVE]),
        (validation.check_modulation_periods, [DERIVE]),
        (validation.check_zero_mean_jensen, [DERIVE]),
        (validation.check_train_stats, [DERIVE]),
        (
            run_all,
            [DERIVE] * 21
            + [("dispersion", False)] * 4
            + [("dispersion", True)],
        ),
    ],
    ids=[
        "oracle_randomized",
        "oracle_agreement",
        "fd_residuals",
        "integration_errors",
        "boundary_identity",
        "antiperiodicity",
        "modulation_periods",
        "zero_mean_jensen_geometric",
        "train_stats_closed_form",
        "run_all",
    ],
)
def test_one_coefficient_evaluation_per_gas_and_frequency(
    pole_passes, call, expected
):
    # On the documented set a config derives its own coefficients once,
    # however many checks read them, and each of the 20 oracle sets its
    # own: run_all makes 1 + 20.  Besides those, run_all's only passes are
    # dispersion_identities' four index_parts calls (rayleigh=False) and
    # guard_behavior's pole probe on a guard-1 gas.
    call(config_from_dict({}))
    assert pole_passes == expected


def test_a_config_derives_its_coefficients_once(pole_passes):
    config = config_from_dict({})
    assert config.coefficients is config.coefficients
    assert pole_passes == [DERIVE]

    # A probe in the guard band raises on every read: nothing is kept.
    guarded = config_from_dict({"guard": 3e9})
    for _ in range(2):
        with pytest.raises(ResonancePole):
            guarded.coefficients
    assert pole_passes == [DERIVE] * 3


def test_jensen_mean_gain_is_finite_near_the_gain_limit():
    check = validation.check_zero_mean_jensen(
        config_from_dict(EDGE_CONFIGS["edge_jensen_sum"])
    )
    assert check.passed, check.detail
    assert "mean gain = inf" not in check.detail
