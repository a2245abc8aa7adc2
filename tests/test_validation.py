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
from pathlib import Path

import numpy as np
import pytest

from dressedprobe import characteristics as chars
from dressedprobe import validation
from dressedprobe.config import config_from_dict
from dressedprobe.constants import CGS
from dressedprobe.validation import ALL_CHECKS, run_all

from conftest import child_env

BENCH_CONFIGS = json.loads(
    (Path(__file__).parent / "data" / "bench_configs.json").read_text()
)


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_every_check_passes(name):
    results = run_all(config_from_dict(BENCH_CONFIGS[name]))
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert len(results) == len(ALL_CHECKS) == 12
    assert not failed, failed


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


def _reference_oracle_error(gas, probe, guard, steps_per_period):
    """One one-point log_amplitude_grid and one integration per plane."""
    length = 2.0 * math.pi * CGS.c / gas.omega_prime
    coefs = chars.derive_coefficients(gas, probe, guard)
    t_entry = 0.37 * 2.0 * math.pi / gas.omega_prime
    worst = 0.0
    for frac in (0.25, 0.5, 1.0):
        z_end = frac * length
        t = t_entry + z_end / CGS.c
        steps = max(1, math.ceil(steps_per_period * frac))
        numeric = chars.integrate_characteristic(coefs, z_end, t_entry, steps)
        closed = complex(
            chars.log_amplitude_grid(gas, probe, [z_end], [t], guard)[0, 0]
        )
        worst = max(worst, abs(numeric - closed) / (1.0 + abs(closed)))
    return worst


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_oracle_error_matches_per_plane_reference(name):
    config = config_from_dict(BENCH_CONFIGS[name])
    args = (config.gas(), config.probe_omega(), config.guard, config.steps)
    assert validation._oracle_error(*args) == _reference_oracle_error(*args)
