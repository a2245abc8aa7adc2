"""Seeded inputs and command plans of the benchmark workloads.

Each workload is a fixed sequence of CLI commands, one "pass", that the
benchmark repeats in a closed loop with one client.  Its focus commands run
on scaled inputs and are the ones the traced run instruments.  Every
workload also runs the remaining subcommands in each pass on a config of
the shipped size (401 offsets, 4 periods x 1024 samples), so that every
end-to-end metric exists on every workload: on a workload that does not
scale a command, that command's metric is its import-bound cost at the
shipped size, and a change aimed at the scaled path should leave it alone.

The program only ever sees the generated config files; all randomness
comes from the workload seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from checks import depth_per_density

WORKLOADS = ("spectral_scan", "pulse_train", "validate_suite")

#: Scaled sizes.  They are smaller than a one-off sizing run would pick
#: (1e5 offsets, 2^20 samples) so that one pass takes 4-5 s on two CPUs and
#: a 40 s run holds 8-11 passes, enough for a steady median.
SIZES = {
    "broad_offsets": 20001,
    "pole_offsets": 10001,
    "train_samples": 2**18,
    "validate_configs": 4,
    "shipped_offsets": 401,
    "shipped_samples_per_period": 1024,
}

#: Tiny sizes for the smoke mode, which only checks the result schema.
SMOKE_SIZES = {
    "broad_offsets": 201,
    "pole_offsets": 101,
    "train_samples": 4 * 512,
    "validate_configs": 1,
    "shipped_offsets": 41,
    "shipped_samples_per_period": 512,
}

#: Times each shipped-size command runs per pass.  These commands take
#: about 0.3 s, mostly interpreter start-up, and vary by about 15% from one
#: run to the next; two samples a pass keep their medians as steady as
#: those of the scaled commands.
SIDE_REPEATS = 2

#: Share of the pole-heavy grid that lies inside the guard band.
POLE_SHARE = 0.25

#: End-to-end metrics and their units.  A subcommand's metric is named
#: after it (``Step.metric``).
END_TO_END = {
    "setup_s": "s",
    "sweep_frequency_s": "s",
    "dispersion_scan_s": "s",
    "evolve_s": "s",
    "pulse_stats_s": "s",
    "validate_s": "s",
    "peak_rss_mb": "MB",
}

VALIDATION_CHECKS = (
    "check_boundary_identity",
    "check_antiperiodicity",
    "check_modulation_periods",
    "check_zero_mean_jensen",
    "check_oracle_agreement",
    "check_oracle_randomized",
    "check_rk4_convergence",
    "check_fd_residual",
    "check_dispersion_identities",
    "check_beyond_dipole",
    "check_train_stats",
    "check_guard_behavior",
)

COMMANDS = ("sweep-frequency", "dispersion-scan", "evolve", "pulse-stats", "validate")

#: Per-layer metric -> (unit, end-to-end metric it should move, workloads).
#: Written down before any measurement, as the link between a layer's
#: number and what a user sees.
PER_LAYER = {
    "process.import_s": ("s", "setup_s", "all"),
    "config.load_config.s": ("s", "setup_s", "all"),
    "modulation.exponent_grid.calls": ("count", "sweep_frequency_s", "spectral_scan"),
    "modulation.exponent_grid.self_s": (
        "s", "sweep_frequency_s; nothing measurable on evolve_s",
        "spectral_scan, pulse_train",
    ),
    "modulation.exponent_grid.points": ("count", "sweep_frequency_s", "spectral_scan"),
    "modulation.sideband_brackets.calls": ("count", "sweep_frequency_s", "spectral_scan"),
    "modulation.k_scale.calls": ("count", "sweep_frequency_s", "spectral_scan"),
    "dispersion.refractive_index.calls": ("count", "dispersion_scan_s", "spectral_scan"),
    "dispersion.refractive_index.self_s": ("s", "dispersion_scan_s", "spectral_scan"),
    "errors.ResonancePole.raised": (
        "count", "sweep_frequency_s, dispersion_scan_s", "spectral_scan",
    ),
    "cli.pole_rows": ("count", "sweep_frequency_s, dispersion_scan_s", "spectral_scan"),
    "cli.useful_row_ratio": (
        "ratio", "sweep_frequency_s, dispersion_scan_s", "spectral_scan",
    ),
    "cli.main.self_s": (
        "s", "evolve_s; part of sweep_frequency_s and dispersion_scan_s",
        "pulse_train, spectral_scan",
    ),
    "cli.rows_written": ("count", "evolve_s, sweep_frequency_s", "pulse_train, spectral_scan"),
    "cli.bytes_written": ("B", "evolve_s, sweep_frequency_s", "pulse_train, spectral_scan"),
    "cli.read_evolve_csv.self_s": ("s", "pulse_stats_s", "pulse_train"),
    "cli.bytes_read": ("B", "pulse_stats_s", "pulse_train"),
    "cli.sweep_frequency_rows.self_s": ("s", "sweep_frequency_s", "spectral_scan"),
    "cli.dispersion_rows.self_s": ("s", "dispersion_scan_s", "spectral_scan"),
    "cli.evolve_series.self_s": ("s", "evolve_s", "pulse_train"),
    "pulsetrain.TimeSeries.s": ("s", "evolve_s, pulse_stats_s, peak_rss_mb", "pulse_train"),
    "pulsetrain.analyze_train.s": ("s", "evolve_s, pulse_stats_s", "pulse_train"),
    "pulsetrain.samples": ("count", "evolve_s, pulse_stats_s, peak_rss_mb", "pulse_train"),
    "characteristics.integrate_characteristic.calls": ("count", "validate_s", "validate_suite"),
    "characteristics.integrate_characteristic.self_s": ("s", "validate_s", "validate_suite"),
    "characteristics.integrate_characteristic.steps": ("count", "validate_s", "validate_suite"),
    "characteristics.log_amplitude_grid.s": ("s", "validate_s", "validate_suite"),
    "characteristics.residual_check.s": ("s", "validate_s", "validate_suite"),
    "characteristics.closed_form_log_amplitude.s": ("s", "validate_s", "validate_suite"),
    **{
        f"validation.{name}.s": ("s", "validate_s", "validate_suite")
        for name in VALIDATION_CHECKS
    },
    "trace.overhead_frac": ("ratio", "none; qualifies every per-layer number", "all"),
    **{
        f"trace.overhead_frac.{command.replace('-', '_')}": (
            "ratio", "none; tracing cost of this command", "where traced",
        )
        for command in COMMANDS
    },
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a pass."""

    id: str
    command: str
    config: str
    focus: bool
    series: str | None = None  # id of the evolve step pulse-stats re-reads

    @property
    def metric(self) -> str:
        return self.command.replace("-", "_") + "_s"

    def out(self, work: Path) -> Path:
        suffix = ".csv" if self.command in ("sweep-frequency", "dispersion-scan", "evolve") else ".json"
        return work / f"{self.id}{suffix}"

    def outputs(self, work: Path) -> list[Path]:
        out = self.out(work)
        return [out, Path(f"{out}.stats.json")] if self.command == "evolve" else [out]

    def argv(self, work: Path) -> list[str]:
        argv = [self.command, "--config", str(work / f"{self.config}.json")]
        if self.series is not None:
            argv += ["--series", str(work / f"{self.series}.csv")]
        return argv + ["--out", str(self.out(work))]


@dataclass(frozen=True)
class Plan:
    workload: str
    configs: dict[str, dict]
    steps: tuple[Step, ...]
    sizes: dict[str, int]

    @property
    def setup_config(self) -> str:
        return next(step.config for step in self.steps if step.focus)


def _physics(rng: random.Random) -> dict:
    """Red-detuned optical-regime parameters around the documented set."""
    detuning = -(10 ** rng.uniform(11.0, 11.6))
    rabi = 10 ** rng.uniform(9.8, 10.6)
    omega_prime = math.hypot(detuning, rabi)
    b = rng.uniform(0.05, 0.3)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "ensemble": {
            "omega0": 1e15 * rng.uniform(0.9, 1.1),
            "d_squared": 2e-34 * rng.uniform(0.5, 2.0),
            "rho": 1.0,
        },
        "pump": {"detuning": detuning, "rabi": rabi},
        "state": {
            "alpha": math.sqrt(1.0 - b * b),
            "beta": [b * math.cos(phase), b * math.sin(phase)],
        },
        "probe": {
            "delta": rng.choice((-1.0, 1.0)) * omega_prime * rng.uniform(0.005, 0.05),
            "a0": 1.0,
        },
        "z": {"theta": math.pi * rng.uniform(0.6, 1.4)},
        "guard": 1e6,
        "steps": 4000,
        "out_dir": "out",
    }


def _omega_prime(config: dict) -> float:
    return math.hypot(config["pump"]["detuning"], config["pump"]["rabi"])


def _dilute(rng: random.Random, sizes: dict, spp: int | None = None) -> dict:
    """Config whose largest depth R over z is 10..100, so 2R stays below the
    709 overflow limit of exp and the train is deep enough to analyze."""
    config = _physics(rng)
    config["ensemble"]["rho"] = rng.uniform(10.0, 100.0) / depth_per_density(config)
    omega_prime = _omega_prime(config)
    config["grids"] = {
        "delta": {
            "start": -2.0 * omega_prime,
            "stop": 2.0 * omega_prime,
            "count": sizes["shipped_offsets"],
        },
        "t": {
            "periods": 4.0,
            "samples_per_period": spp or sizes["shipped_samples_per_period"],
        },
    }
    return config


def _dense(rng: random.Random, sizes: dict) -> tuple[dict, dict]:
    """Dense-gas configs: a broad grid over delta = 0 and +-w', and a narrow
    grid straddling one sideband pole with POLE_SHARE of it in the guard."""
    broad = _physics(rng)
    broad["ensemble"]["rho"] = 2e15 * rng.uniform(0.5, 2.0)
    omega_prime = _omega_prime(broad)
    broad["grids"] = {
        "delta": {
            "start": -1.5 * omega_prime * rng.uniform(1.0, 1.1),
            "stop": 1.5 * omega_prime * rng.uniform(1.0, 1.1),
            "count": sizes["broad_offsets"],
        },
        "t": {"periods": 4.0, "samples_per_period": sizes["shipped_samples_per_period"]},
    }
    poles = {**broad, "grids": dict(broad["grids"])}
    width = omega_prime * rng.uniform(0.002, 0.004)
    # The pole band [pole - guard, pole + guard] stays inside the grid.
    start = rng.choice((-1.0, 1.0)) * omega_prime - width * (0.5 + rng.uniform(-0.2, 0.2))
    poles["grids"]["delta"] = {
        "start": start,
        "stop": start + width,
        "count": sizes["pole_offsets"],
    }
    poles["guard"] = 0.5 * POLE_SHARE * width
    return broad, poles


def make_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    sizes = SMOKE_SIZES if smoke else SIZES
    rng = random.Random(f"{workload}:{seed}")
    side = [
        Step("side_sweep", "sweep-frequency", "side", False),
        Step("side_scan", "dispersion-scan", "side", False),
        Step("side_evolve", "evolve", "side", False),
        Step("side_stats", "pulse-stats", "side", False, series="side_evolve"),
        Step("side_validate", "validate", "side", False),
    ]
    if workload == "spectral_scan":
        broad, poles = _dense(rng, sizes)
        configs = {"broad": broad, "poles": poles}
        focus = [
            Step("sweep_broad", "sweep-frequency", "broad", True),
            Step("sweep_poles", "sweep-frequency", "poles", True),
            Step("scan_broad", "dispersion-scan", "broad", True),
            Step("scan_poles", "dispersion-scan", "poles", True),
        ]
    elif workload == "pulse_train":
        spp = sizes["train_samples"] // 4
        configs = {"train": _dilute(rng, sizes, spp=spp)}
        focus = [
            Step("train_evolve", "evolve", "train", True),
            Step("train_stats", "pulse-stats", "train", True, series="train_evolve"),
        ]
    elif workload == "validate_suite":
        count = sizes["validate_configs"]
        configs = {f"suite{i}": _dilute(rng, sizes) for i in range(count)}
        focus = [Step(f"validate{i}", "validate", f"suite{i}", True) for i in range(count)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    configs["side"] = _dilute(rng, sizes)
    scaled = {step.command for step in focus}
    kept = [step for step in side if step.command not in scaled]
    return Plan(workload, configs, tuple(focus + kept * SIDE_REPEATS), sizes)
