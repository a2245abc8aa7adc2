"""Command-line harness: experiment subcommands with CSV/JSON output.

Subcommands
-----------
sweep-frequency
    Re G versus probe-pump frequency difference at the fixed plane, at the
    initial arrival time and half a modulation period later.
evolve
    Intensity gain versus time at the fixed plane, plus pulse-train stats.
dispersion-scan
    Refractive index and its dipole / beyond-dipole split versus probe
    frequency.
pulse-stats
    Re-analyze a previously emitted evolve CSV.
validate
    Run the invariant suite and exit non-zero on any failure.

Each sweep is one array call.  Rows that would hit a resonance pole are
emitted with empty value cells and a POLE marker instead of aborting the
sweep.  Floats are written with 17 significant digits so files round-trip
bit-exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import modulation as mod
from . import pulsetrain as pt
from .config import RunConfig, config_to_dict, load_config
from .constants import CGS
from .dispersion import index_parts
from .errors import ConfigError, DressedProbeError
from .validation import run_all


#: Rows the CSV table writer formats with one ``%`` operation.
_BLOCK_ROWS = 8192


def _write_table(
    path: Path,
    columns: list[str],
    values: np.ndarray,
    pole: np.ndarray | None = None,
) -> None:
    """Write a header and one ``%.17g`` row per row of the 2-d ``values``.

    With a ``pole`` mask the last column is the marker: empty on ordinary
    rows, ``POLE`` on masked rows, which keep only their first value.
    ``'%.17g' % x`` is ``format(x, '.17g')`` for every float.
    """
    width = values.shape[1]
    row = ",".join(["%.17g"] * width)
    if pole is not None:
        row += ","
        keep = np.ones(values.shape, dtype=bool)
        keep[pole, 1:] = False
    templates = (row + "\n", "%.17g" + "," * width + "POLE\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(",".join(columns) + "\n")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            if pole is None:
                cells = values[block].ravel()
                text = templates[0] * (cells.size // width)
            else:
                cells = values[block][keep[block]]
                text = "".join(templates[p] for p in pole[block].tolist())
            out.write(text % tuple(cells.tolist()))


def _json_rows(values: np.ndarray, pole: np.ndarray) -> list[list]:
    """Table rows as JSON lists: a POLE row keeps only its first value."""
    blank = [None] * (values.shape[1] - 1)
    return [
        [row[0], *blank, "POLE"] if at_pole else [*row, ""]
        for row, at_pole in zip(values.tolist(), pole.tolist())
    ]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_path(args, config: RunConfig, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(config.out_dir) / default_name


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.guard is not None:
        overrides["guard"] = args.guard
    if args.steps is not None:
        overrides["steps"] = args.steps
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def sweep_frequency_rows(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Columns (delta, Re G at arrival, Re G half a period later) and the
    pole mask; the Re G cells of a pole row are meaningless."""
    pump = config.pump()
    omega_prime = config.omega_prime()
    deltas = np.array(config.delta_grid.values())
    g, pole = mod.exponent_sweep(
        config.ensemble(),
        pump,
        config.state(),
        pump.omega_p - deltas,
        config.z_fixed(),
        [math.pi / omega_prime, 2.0 * math.pi / omega_prime],
        config.guard,
    )
    return np.column_stack((deltas, g.real)), pole


def evolve_series(config: RunConfig) -> tuple[pt.TimeSeries, dict]:
    """Gain series at the fixed plane plus its stats block."""
    if config.t_periods < 3.0:
        raise ConfigError("evolve needs a time span of >= 3 periods")
    ensemble = config.ensemble()
    pump = config.pump()
    state = config.state()
    probe = config.probe()
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    z = config.z_fixed()
    spp = config.t_samples_per_period
    n = round(config.t_periods * spp)
    t0 = z / CGS.c
    dt = period / spp
    t = t0 + dt * np.arange(n)
    g = mod.exponent_grid(
        ensemble, pump, state, probe.omega, np.array([z]), t, config.guard
    )[0]
    series = pt.TimeSeries(t0=t0, dt=dt, gains=mod.intensity_gain(g))
    stats: dict = {
        "z_cm": z,
        "omega_prime_rad_per_s": omega_prime,
        "nominal_period_s": period,
    }
    try:
        measured = pt.analyze_train(series, omega_prime)
    except DressedProbeError as exc:
        stats["error"] = type(exc).__name__
        stats["message"] = str(exc)
        return series, stats
    if abs(measured.period - period) > 1e-6 * period:
        raise ConfigError(
            f"measured period {measured.period!r} deviates from 2 pi / w' "
            f"= {period!r} by more than 1e-6 relative"
        )
    stats.update(
        period_s=measured.period,
        fwhm_s=measured.fwhm,
        peak_gain=measured.peak_gain,
        min_gain=measured.min_gain,
        depth=measured.depth,
        fwhm_closed_form_s=pt.fwhm_closed_form(measured.depth, omega_prime),
        fwhm_over_250fs=measured.fwhm / 250e-15,
    )
    return series, stats


def dispersion_rows(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Columns (omega, n0, dipole part, beyond-dipole part) and the pole
    mask; the index cells of a pole row are meaningless."""
    pump = config.pump()
    omega = pump.omega_p - np.array(config.delta_grid.values())
    dipole, beyond, pole = index_parts(
        config.ensemble(), pump, config.state(), omega, config.guard
    )
    values = np.column_stack((omega, 1.0 + dipole + beyond, dipole, beyond))
    return values, pole


def _emit_table(
    args,
    config: RunConfig,
    name: str,
    columns: list[str],
    table: tuple[np.ndarray, np.ndarray],
) -> Path:
    values, pole = table
    if args.format == "json":
        path = _out_path(args, config, f"{name}.json")
        _write_json(path, {"columns": columns, "rows": _json_rows(values, pole)})
    else:
        path = _out_path(args, config, f"{name}.csv")
        _write_table(path, columns, values, pole)
    print(f"wrote {len(values)} rows to {path}")
    return path


def _cmd_sweep_frequency(args) -> int:
    config = _load(args)
    _emit_table(
        args,
        config,
        "sweep_frequency",
        ["delta_rad_per_s", "re_g_solid", "re_g_dashed", "pole"],
        sweep_frequency_rows(config),
    )
    return 0


def _cmd_evolve(args) -> int:
    config = _load(args)
    series, stats = evolve_series(config)
    values = np.column_stack((series.times, series.gains))
    columns = ["t_s", "intensity_gain"]
    if args.format == "json":
        path = _out_path(args, config, "evolve.json")
        _write_json(
            path, {"columns": columns, "rows": values.tolist(), "stats": stats}
        )
        print(f"wrote {len(values)} rows + stats to {path}")
    else:
        path = _out_path(args, config, "evolve.csv")
        _write_table(path, columns, values)
        stats_path = path.with_suffix(path.suffix + ".stats.json")
        _write_json(stats_path, stats)
        print(f"wrote {len(values)} rows to {path}, stats to {stats_path}")
    if "error" in stats:
        print(f"stats: {stats['error']}: {stats['message']}")
    return 0


def _cmd_dispersion_scan(args) -> int:
    config = _load(args)
    _emit_table(
        args,
        config,
        "dispersion_scan",
        [
            "omega_rad_per_s",
            "n0",
            "dipole_part",
            "beyond_dipole_part",
            "pole",
        ],
        dispersion_rows(config),
    )
    return 0


def read_evolve_csv(path: str | Path) -> pt.TimeSeries:
    """Parse a CSV produced by the evolve subcommand back into a series.

    Only the first two columns are read; blank lines are skipped.
    """
    try:
        with open(path) as lines:
            header = lines.readline()
        if header.strip().split(",")[:2] != ["t_s", "intensity_gain"]:
            raise ConfigError(f"{path} is not an evolve series CSV")
        with warnings.catch_warnings():
            # A header-only file is refused below, not warned about.
            warnings.simplefilter("ignore", UserWarning)
            body = np.loadtxt(
                path,
                delimiter=",",
                skiprows=1,
                usecols=(0, 1),
                ndmin=2,
                comments=None,
            )
    except OSError as exc:
        raise ConfigError(f"cannot read series: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed row: {exc}") from exc
    times, gains = body[:, 0], body[:, 1]
    if len(times) < 2:
        raise ConfigError(f"{path} holds fewer than 2 samples")
    dt = times[1] - times[0]
    # The same 1e-9 relative tolerance as characteristics.residual_check.
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * abs(dt):
        raise ConfigError(f"{path}: time column is not uniform")
    try:
        return pt.TimeSeries(t0=float(times[0]), dt=float(dt), gains=gains)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_pulse_stats(args) -> int:
    config = _load(args)
    series = read_evolve_csv(args.series)
    omega_prime = config.omega_prime()
    stats: dict = {"omega_prime_rad_per_s": omega_prime, "source": str(args.series)}
    try:
        measured = pt.analyze_train(series, omega_prime)
        stats.update(
            period_s=measured.period,
            fwhm_s=measured.fwhm,
            peak_gain=measured.peak_gain,
            min_gain=measured.min_gain,
            depth=measured.depth,
        )
    except DressedProbeError as exc:
        stats["error"] = type(exc).__name__
        stats["message"] = str(exc)
    path = _out_path(args, config, "pulse_stats.json")
    _write_json(path, stats)
    print(f"wrote stats to {path}")
    return 0 if "error" not in stats else 1


def _cmd_validate(args) -> int:
    started = time.perf_counter()
    config = _load(args)
    results = run_all(config)
    elapsed = time.perf_counter() - started
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    passed = all(r.passed for r in results)
    print(
        f"{'all checks passed' if passed else 'CHECKS FAILED'} "
        f"({len(results)} checks, {elapsed:.2f} s)"
    )
    report = {
        "passed": passed,
        "elapsed_s": elapsed,
        "checks": [dataclasses.asdict(r) for r in results],
        "config": config_to_dict(config),
    }
    path = _out_path(args, config, "validate_report.json")
    _write_json(path, report)
    print(f"wrote report to {path}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedprobe",
        description=(
            "Probe-wave pulse trains in a gas of pump-dressed two-level "
            "atoms (Gaussian-CGS units, angular frequencies in rad/s)"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", help="output file path")
    common.add_argument(
        "--guard", type=float, help="pole guard half-width, rad/s"
    )
    common.add_argument(
        "--steps", type=int, help="characteristic integration steps"
    )
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="table output format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep-frequency",
        parents=[common],
        help="Re G versus probe-pump frequency difference",
    )
    sweep.set_defaults(func=_cmd_sweep_frequency)

    evolve = sub.add_parser(
        "evolve", parents=[common], help="gain versus time plus train stats"
    )
    evolve.set_defaults(func=_cmd_evolve)

    scan = sub.add_parser(
        "dispersion-scan",
        parents=[common],
        help="refractive index versus probe frequency",
    )
    scan.set_defaults(func=_cmd_dispersion_scan)

    stats = sub.add_parser(
        "pulse-stats", parents=[common], help="re-analyze an evolve CSV"
    )
    stats.add_argument("--series", required=True, help="evolve CSV to analyze")
    stats.set_defaults(func=_cmd_pulse_stats)

    validate = sub.add_parser(
        "validate", parents=[common], help="run the invariant suite"
    )
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DressedProbeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
