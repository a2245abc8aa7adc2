"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success; failures surface through the assertions regardless).
Expected values marked as frozen were computed with the independent
50-digit oracles in tests/oracles.py.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from dressedprobe import (
    CGS,
    DressedGas,
    TimeSeries,
    analyze_train,
    beyond_dipole_fraction,
    derive_coefficients,
    exponent_grid,
    fwhm_closed_form,
    generalized_rabi,
    index_parts,
    integrate_characteristic,
    log_amplitude_grid,
    modulation_depth,
    residual_check,
)
from dressedprobe.cli import sweep_frequency_rows
from dressedprobe.config import RunConfig

import oracles
from conftest import (
    D_SQUARED,
    DETUNING,
    FROZEN,
    OMEGA0,
    RABI,
    RHO_DENSE,
    child_env,
)

OMEGA_PRIME = FROZEN["omega_prime"]
PERIOD = 2.0 * math.pi / OMEGA_PRIME
LENGTH = 2.0 * math.pi * CGS.c / OMEGA_PRIME
Z_HALF = math.pi * CGS.c / OMEGA_PRIME


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_boundary_identity(gas_dense, probe):
    started = time.perf_counter()
    t = np.linspace(0.0, PERIOD, 1024, endpoint=False)
    g = exponent_grid(
        derive_coefficients(gas_dense, probe), z=np.array([0.0]), t=t
    )
    worst = float(np.max(np.abs(np.exp(g) - 1.0)))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1 (boundary identity)",
        worst < 1e-12 and elapsed < 0.1,
        f"max |F(0,t)-1| = {worst:.3e} over 1024 samples in {elapsed:.3f} s",
    )


def test_criterion_2_antiperiodicity_and_sweep_mirror(
    gas_dense, probe
):
    started = time.perf_counter()
    z = np.linspace(0.0, LENGTH, 64, endpoint=False)
    t = np.linspace(0.0, PERIOD, 64, endpoint=False)
    coefs = derive_coefficients(gas_dense, probe)
    g = exponent_grid(coefs, z=z, t=t)
    g_shift = exponent_grid(coefs, z=z, t=t + 0.5 * PERIOD)
    worst = float(np.max(np.abs(g + g_shift) / (1.0 + np.abs(g))))

    values, pole = sweep_frequency_rows(RunConfig())
    mirror_worst = 0.0
    evaluated = 0
    for (_, solid, dashed), at_pole in zip(values.tolist(), pole.tolist()):
        if at_pole:
            continue
        evaluated += 1
        mirror_worst = max(
            mirror_worst, abs(dashed + solid) / (1.0 + abs(solid))
        )
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2 (half-period mirror)",
        worst < 1e-9 and mirror_worst < 1e-9 and evaluated > 300
        and elapsed < 1.0,
        f"grid max = {worst:.3e}, sweep row max = {mirror_worst:.3e} "
        f"over {evaluated} rows in {elapsed:.3f} s",
    )


def test_criterion_3_modulation_periods(gas_dense, probe):
    # Frozen high-precision values: 2 pi / w' and 2 pi c / w'.
    assert FROZEN["t_mod"] == pytest.approx(3.1260015268123316e-11, rel=1e-12)
    assert FROZEN["l_mod"] == pytest.approx(0.93715168143482180, rel=1e-12)

    spp = 512
    t0 = Z_HALF / CGS.c
    t = t0 + (PERIOD / spp) * np.arange(3 * spp)
    g = exponent_grid(
        derive_coefficients(gas_dense, probe), z=np.array([Z_HALF]), t=t
    )[0]
    series = TimeSeries(
        t0=t0, dt=PERIOD / spp, gains=tuple(np.exp(2.0 * g.real))
    )
    stats = analyze_train(series, OMEGA_PRIME)
    err_t = abs(stats.period - FROZEN["t_mod"]) / FROZEN["t_mod"]

    z = (LENGTH / spp) * np.arange(3 * spp)
    gz = exponent_grid(
        derive_coefficients(gas_dense, probe),
        z=z,
        t=np.array([math.pi / OMEGA_PRIME]),
    )[:, 0]
    series_z = TimeSeries(
        t0=0.0, dt=LENGTH / spp, gains=tuple(np.exp(2.0 * gz.real))
    )
    stats_z = analyze_train(series_z, OMEGA_PRIME / CGS.c)
    err_z = abs(stats_z.period - FROZEN["l_mod"]) / FROZEN["l_mod"]
    _report(
        "criterion 3 (modulation periods)",
        err_t < 1e-6 and err_z < 1e-6,
        f"period = {stats.period:.6e} s (rel err {err_t:.2e}), "
        f"length = {stats_z.period:.6e} cm (rel err {err_z:.2e})",
    )


def test_criterion_4_zero_mean_jensen_geometric(
    gas_dense, probe
):
    t = np.linspace(0.0, PERIOD, 4096, endpoint=False)
    worst_mean = 0.0
    worst_geo = 0.0
    jensen_ok = True
    for z in (0.2 * LENGTH, Z_HALF, 0.8 * LENGTH):
        g = exponent_grid(
            derive_coefficients(gas_dense, probe), z=np.array([z]), t=t
        )[0]
        worst_mean = max(worst_mean, abs(float(np.mean(g.real))))
        gains = np.exp(2.0 * g.real)
        jensen_ok = jensen_ok and float(np.mean(gains)) >= 1.0
        worst_geo = max(
            worst_geo, abs(float(np.max(gains) * np.min(gains)) - 1.0)
        )
    _report(
        "criterion 4 (zero-mean exponent, Jensen, geometric mean)",
        worst_mean < 1e-9 and jensen_ok and worst_geo < 1e-6,
        f"|mean Re G| <= {worst_mean:.3e}, period-mean gain >= 1, "
        f"|peak*min - 1| <= {worst_geo:.3e}",
    )


def test_criterion_5_oracle_agreement(gas_train, probe):
    started = time.perf_counter()
    rng = np.random.default_rng(424242)

    def worst_for(gas, probe):
        coefs = derive_coefficients(gas, probe)
        length = 2.0 * math.pi * CGS.c / gas.omega_prime
        t_entry = float(rng.uniform(0.0, 2.0)) * PERIOD
        worst = 0.0
        for frac in (0.25, 0.5, 1.0):
            z_end = frac * length
            numeric = integrate_characteristic(
                coefs, z_end, t_entry, math.ceil(1000 * frac)
            )
            closed = log_amplitude_grid(
                coefs, [z_end], [t_entry + z_end / CGS.c]
            )[0, 0]
            worst = max(worst, abs(numeric - closed) / (1.0 + abs(closed)))
        return worst

    worst = worst_for(gas_train, probe)
    for _ in range(20):
        rho = float(10 ** rng.uniform(13.0, 15.3))
        detuning = float(
            rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(10.7, 11.7)
        )
        rabi = float(10 ** rng.uniform(9.0, 11.0))
        delta = float(
            rng.choice([-1.0, 1.0])
            * rng.uniform(0.01, 0.8)
            * generalized_rabi(detuning, rabi)
        )
        beta_mag = rng.uniform(0.05, 0.7)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rand_gas = DressedGas(
            omega0=OMEGA0,
            d=math.sqrt(D_SQUARED),
            rho=rho,
            detuning=detuning,
            rabi=rabi,
            alpha=math.sqrt(1.0 - beta_mag**2),
            beta=beta_mag * complex(math.cos(phase), math.sin(phase)),
        )
        worst = max(worst, worst_for(rand_gas, rand_gas.omega_p - delta))

    coefs = derive_coefficients(gas_train, probe)
    residuals = []
    for n in (64, 128, 256):
        z = np.linspace(0.0, LENGTH, n + 1)
        t = np.linspace(0.0, PERIOD, n + 1)
        grid = log_amplitude_grid(coefs, z, t)
        residuals.append(residual_check(grid, z, t, coefs))
    ratios = [residuals[0] / residuals[1], residuals[1] / residuals[2]]
    elapsed = time.perf_counter() - started
    _report(
        "criterion 5 (oracle agreement and convergence)",
        worst < 1e-6
        and all(3.4 < r < 4.6 for r in ratios)
        and elapsed < 5.0,
        f"max rel log-amplitude error = {worst:.3e} over 21 parameter sets, "
        f"residual ratios = {ratios[0]:.2f}, {ratios[1]:.2f} in {elapsed:.2f} s",
    )


def test_criterion_6_pulse_train_fidelity(gas_train, probe):
    spp = 1024
    t0 = Z_HALF / CGS.c
    t = t0 + (PERIOD / spp) * np.arange(4 * spp)
    coefs = derive_coefficients(gas_train, probe)
    g = exponent_grid(coefs, z=np.array([Z_HALF]), t=t)[0]
    series = TimeSeries(
        t0=t0, dt=PERIOD / spp, gains=tuple(np.exp(2.0 * g.real))
    )
    stats = analyze_train(series, OMEGA_PRIME)
    depth = modulation_depth(coefs, Z_HALF)

    period_ok = abs(stats.period - FROZEN["t_mod"]) < 1e-6 * FROZEN["t_mod"]
    depth_ok = (
        abs(depth - FROZEN["depth_train"]) < 1e-9 * FROZEN["depth_train"]
        and abs(stats.depth - depth) < 1e-6 * depth
    )
    fwhm_ref = fwhm_closed_form(depth, OMEGA_PRIME)
    fwhm_ok = (
        abs(fwhm_ref - FROZEN["fwhm_train"]) < 1e-9 * FROZEN["fwhm_train"]
        and abs(stats.fwhm - fwhm_ref) < 0.01 * fwhm_ref
    )
    # The derived width is near one picosecond; a 250 fs pulse is NOT
    # produced by this parameter set (the required propagation distance
    # is a free parameter here).
    not_250fs = stats.fwhm > 2.0 * 250e-15
    _report(
        "criterion 6 (pulse-train fidelity)",
        period_ok and depth_ok and fwhm_ok and not_250fs,
        f"period = {stats.period * 1e12:.4f} ps, depth = {stats.depth:.4f} "
        f"(frozen {FROZEN['depth_train']:.4f}), fwhm = {stats.fwhm:.4e} s "
        f"(frozen {FROZEN['fwhm_train']:.4e} s); "
        f"fwhm / 250 fs = {stats.fwhm / 250e-15:.2f} (not reproduced)",
    )


def test_criterion_7_dispersion(gas_dense, probe):
    balanced = replace(gas_dense, alpha=math.sqrt(0.5), beta=math.sqrt(0.5))
    n_balanced, _, _, _ = index_parts(balanced, probe)
    empty = replace(gas_dense, rho=0.0)
    vacuum, _, _, _ = index_parts(empty, probe)

    n0, _, _, _ = index_parts(gas_dense, probe)
    dipole, beyond = oracles.refractive_index_offset(
        OMEGA0,
        D_SQUARED,
        RHO_DENSE,
        DETUNING,
        RABI,
        gas_dense.population_difference,
        probe,
    )
    oracle_offset = float(dipole + beyond)
    oracle_ok = (
        abs(n0 - 1.0 - oracle_offset) < 1e-9 * abs(oracle_offset)
        and abs(oracle_offset - FROZEN["n0_minus_1_dense"])
        < 1e-12 * FROZEN["n0_minus_1_dense"]
    )

    doubled = replace(gas_dense, rho=2 * RHO_DENSE)
    n0_doubled, _, _, _ = index_parts(doubled, probe)
    linear_err = abs(n0_doubled - 1.0 - 2.0 * (n0 - 1.0)) / abs(n0_doubled - 1.0)
    _report(
        "criterion 7 (dispersion)",
        n_balanced == 1.0
        and vacuum == 1.0
        and oracle_ok
        and linear_err < 1e-12,
        f"n0(balanced) = {n_balanced}, n0(vacuum) = {vacuum}, n0 - 1 = "
        f"{n0 - 1.0:.6e} vs independent oracle {oracle_offset:.6e}, "
        f"rho-linearity rel err = {linear_err:.2e}",
    )


def test_criterion_8_beyond_dipole_non_saturating(gas_dense):
    ladder = [RABI / 100.0 * 10 ** (0.25 * k) for k in range(17)]
    values = [
        beyond_dipole_fraction(replace(gas_dense, rabi=rabi))
        for rabi in ladder
    ]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    at_default = beyond_dipole_fraction(gas_dense)
    value_ok = (
        abs(at_default - FROZEN["beyond_dipole_fraction"])
        < 1e-12 * FROZEN["beyond_dipole_fraction"]
    )
    _report(
        "criterion 8 (non-saturating beyond-dipole term)",
        increasing and value_ok,
        f"strictly increasing over 4 decades of pump Rabi frequency; "
        f"fraction at defaults = {at_default:.4e}",
    )


def test_criterion_9_validate_end_to_end(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dressedprobe",
            "validate",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    elapsed = time.perf_counter() - started
    report = json.loads(out.read_text()) if out.exists() else {}
    checks = report.get("checks", [])
    passed = sum(check.get("passed") is True for check in checks)
    detail = (
        f"exit {proc.returncode}, {passed} of {len(checks)} checks "
        f"passed in {elapsed:.2f} s"
    )
    if proc.returncode != 0:
        detail += "; stderr: " + " | ".join(proc.stderr.strip().splitlines()[-5:])
    _report(
        "criterion 9 (validate end-to-end)",
        proc.returncode == 0
        and report.get("passed") is True
        and elapsed < 30.0,
        detail,
    )
