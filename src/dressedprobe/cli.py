"""Command-line harness: experiment subcommands with CSV output.

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

Each subcommand is one row of the table in ``build_parser``: its name,
help line, default file name and runner.  ``main`` loads the config for
every one of them (``--config``, else the compiled-in ``RunConfig()``) and
names the output (``--out``, else the default file name under the config's
``out_dir``), then calls the runner with the arguments, config and path.

Each sweep is one array call.  Rows that would hit a resonance pole are
emitted with empty value cells and a POLE marker instead of aborting the
sweep.  Every CSV float cell is exactly ``format(v, '.17g')``, so files
round-trip bit-exactly (the writer is ``table.write_table``).  ``evolve``
also leaves the samples it wrote, with the CSV's byte length and CRC-32, in
the side-car ``<out>.samples.npz``; ``pulse-stats`` reads them from there
instead of parsing a CSV that they match (see ``read_evolve_csv``).

Each function imports the layers it runs at its top, so a run loads only
the modules of its subcommand: without cached bytecode, Python compiles
every module it imports on every run.

``run`` is the entry point of ``python -m dressedprobe`` and of the
``dressedprobe`` script; tests call ``main``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import sys
import time
import warnings
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig, config_to_dict, load_config
from .errors import ConfigError, DressedProbeError

if TYPE_CHECKING:
    from .pulsetrain import TimeSeries


def _create(path: Path):
    """Open ``path`` to write bytes, making its directory.  A path that
    cannot be written is a ConfigError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("wb")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as out:
        out.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def sweep_frequency_rows(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Columns (delta, Re G at arrival, Re G half a period later) and the
    pole mask; the Re G cells of a pole row are meaningless."""
    from . import modulation as mod

    gas = config.gas()
    omega_prime = config.omega_prime()
    deltas = config.delta_values()
    coefs = mod.derive_coefficients(gas, gas.omega_p - deltas)
    times = [math.pi / omega_prime, 2.0 * math.pi / omega_prime]
    g = mod.exponent_grid(coefs, z=[config.z_fixed()], t=times)
    return np.column_stack((deltas, g.real)), coefs.pole


def _measure_train(series: TimeSeries, omega_prime: float, stats: dict):
    """Add the train statistics of ``series`` to ``stats`` and return them,
    or add the domain error that refused them and return None."""
    from . import pulsetrain as pt

    try:
        measured = pt.analyze_train(series, omega_prime)
    except DressedProbeError as exc:
        stats.update(error=type(exc).__name__, message=str(exc))
        return None
    stats.update(
        period_s=measured.period,
        fwhm_s=measured.fwhm,
        peak_gain=measured.peak_gain,
        min_gain=measured.min_gain,
        depth=measured.depth,
    )
    return measured


def evolve_series(config: RunConfig) -> tuple[TimeSeries, dict]:
    """Gain series at the fixed plane plus its stats block."""
    from . import modulation as mod
    from . import pulsetrain as pt

    if config.t_periods < 3.0:
        raise ConfigError("evolve needs a time span of >= 3 periods")
    coefs = config.coefficients
    series = mod.gain_series(
        coefs, config.z_fixed(), config.t_periods, config.t_samples_per_period
    )
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    stats: dict = {
        "z_cm": config.z_fixed(),
        "omega_prime_rad_per_s": omega_prime,
        "nominal_period_s": period,
    }
    measured = _measure_train(series, omega_prime, stats)
    if measured is None:
        return series, stats
    if abs(measured.period - period) > 1e-6 * period:
        raise ConfigError(
            f"measured period {measured.period!r} deviates from 2 pi / w' "
            f"= {period!r} by more than 1e-6 relative"
        )
    stats.update(
        fwhm_closed_form_s=pt.fwhm_closed_form(measured.depth, omega_prime),
        fwhm_over_250fs=measured.fwhm / 250e-15,
    )
    return series, stats


def dispersion_rows(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Columns (omega, n0, dipole part, beyond-dipole part) and the pole
    mask; the index cells of a pole row are meaningless."""
    from .dispersion import index_parts

    gas = config.gas()
    omega = gas.omega_p - config.delta_values()
    n0, dipole, beyond, pole = index_parts(gas, omega)
    return np.column_stack((omega, n0, dipole, beyond)), pole


def _emit_table(columns: list[str], rows, args, config: RunConfig, path: Path) -> int:
    """Write the (values, pole mask) table ``rows`` makes of the config to
    ``path`` under the header ``columns``.  A NaN or infinite value outside
    the pole rows is a ConfigError, raised before the file is opened."""
    from .table import write_table

    values, pole = rows(config)
    if not np.isfinite(values[~pole]).all():
        name = args.default_name.removesuffix(".csv")
        raise ConfigError(f"{name} has non-finite values outside its POLE rows")
    with _create(path) as out:
        write_table(out, columns, values, pole)
    print(f"wrote {len(values)} rows to {path}")
    return 0


def _write_samples(path: Path, values: np.ndarray, size: int, crc: int) -> None:
    """Write the side-car ``path`` of an evolve CSV: the C-contiguous samples
    ``values`` it holds with their own CRC-32, and its byte length ``size``
    and CRC-32 ``crc``, as the arrays of an ``.npz`` archive.

    Each array's buffer is written as it is: ``np.savez`` would first copy
    the samples whole, and that copy could lift the peak memory of evolve.
    Every member is dated 1980-01-01, so reruns write the same bytes.
    """
    values_crc = zlib.crc32(values)
    arrays = {"values": values, "values_crc": values_crc, "size": size, "crc": crc}
    with _create(path) as out, zipfile.ZipFile(out, "w") as archive:
        for key, value in arrays.items():
            array = np.asarray(value)
            name = zipfile.ZipInfo(f"{key}.npy")
            with archive.open(name, "w", force_zip64=True) as member:
                header = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(member, header)
                member.write(memoryview(array).cast("B"))


def _read_samples(series: str | Path) -> np.ndarray | None:
    """The samples of the evolve CSV ``series`` from its side-car, or None
    when the side-car is missing, unreadable, pickled, not an (n, 2)
    float64 array or not the samples it has the CRC-32 of, or when the
    CSV's byte length or CRC-32 is not the one it records.

    The checks catch a damaged side-car, one left by another run and a CSV
    edited since, not a forged side-car: it is trusted as far as the CSV
    beside it.  The samples' own CRC-32 is needed because a damaged array
    header can make numpy read other bytes than the archive's checksum
    covers.
    """
    try:
        # Opened here: np.load leaks the file it opens if the archive is broken.
        with open(f"{series}.samples.npz", "rb") as raw:
            with np.load(raw, allow_pickle=False) as side_car:
                values, values_crc, size, crc = (
                    side_car[key] for key in ("values", "values_crc", "size", "crc")
                )
        if values.dtype != np.float64 or values.ndim != 2 or values.shape[1] != 2:
            return None
        if zlib.crc32(values) != values_crc.item():
            return None
        size, crc = size.item(), crc.item()
    except Exception:
        # What a damaged archive raises is open-ended (zipfile, struct and
        # tokenize errors among others); every failure is a miss.
        return None
    if size != Path(series).stat().st_size:
        return None
    check = 0
    with open(series, "rb") as csv:
        while chunk := csv.read(1 << 20):
            check = zlib.crc32(chunk, check)
    return values if crc == check else None


def _cmd_evolve(args, config: RunConfig, path: Path) -> int:
    from .table import Checksum, write_table

    series, stats = evolve_series(config)
    values = np.column_stack((series.times, series.gains))
    with _create(path) as out:
        written = Checksum(out)
        write_table(written, ["t_s", "intensity_gain"], values)
    _write_samples(Path(f"{path}.samples.npz"), values, written.size, written.crc)
    stats_path = path.with_suffix(path.suffix + ".stats.json")
    _write_json(stats_path, stats)
    print(f"wrote {len(values)} rows to {path}, stats to {stats_path}")
    if "error" in stats:
        print(f"stats: {stats['error']}: {stats['message']}")
    return 0


def read_evolve_csv(path: str | Path) -> TimeSeries:
    """Parse a CSV produced by the evolve subcommand back into a series.

    Only the first two columns are read; blank lines are skipped.  Once the
    header is checked, the samples come from the CSV's side-car where it
    matches the CSV (see ``_read_samples``), bit-equal to the parse, which
    runs otherwise; the checks after it are the same either way.
    """
    from . import pulsetrain as pt

    try:
        # A header byte that is not UTF-8 fails the name check, not a row.
        with open(path, encoding="utf-8", errors="replace") as lines:
            header = lines.readline()
        if header.strip().split(",")[:2] != ["t_s", "intensity_gain"]:
            raise ConfigError(f"{path} is not an evolve series CSV")
        body = _read_samples(path)
        if body is None:
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
    # The same rule as characteristics.residual_check; it refuses NaN times.
    if not pt.is_uniform(times):
        raise ConfigError(f"{path}: time column is not uniform")
    try:
        return pt.TimeSeries(t0=float(times[0]), dt=float(dt), gains=gains)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_pulse_stats(args, config: RunConfig, path: Path) -> int:
    series = read_evolve_csv(args.series)
    omega_prime = config.omega_prime()
    stats: dict = {"omega_prime_rad_per_s": omega_prime, "source": str(args.series)}
    _measure_train(series, omega_prime, stats)
    _write_json(path, stats)
    print(f"wrote stats to {path}")
    return 0 if "error" not in stats else 1


def _cmd_validate(args, config: RunConfig, path: Path) -> int:
    from .validation import run_all

    started = time.perf_counter()
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
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand's name, help line, default file name and runner.  The
    # table is built per call, so it binds this module's functions as they
    # are then, patched ones included.
    sweep = ["delta_rad_per_s", "re_g_solid", "re_g_dashed", "pole"]
    scan = ["omega_rad_per_s", "n0", "dipole_part", "beyond_dipole_part", "pole"]
    commands = [
        (
            "sweep-frequency",
            "Re G versus probe-pump frequency difference",
            "sweep_frequency.csv",
            functools.partial(_emit_table, sweep, sweep_frequency_rows),
        ),
        ("evolve", "gain versus time plus train stats", "evolve.csv", _cmd_evolve),
        (
            "dispersion-scan",
            "refractive index versus probe frequency",
            "dispersion_scan.csv",
            functools.partial(_emit_table, scan, dispersion_rows),
        ),
        (
            "pulse-stats",
            "re-analyze an evolve CSV",
            "pulse_stats.json",
            _cmd_pulse_stats,
        ),
        ("validate", "run the invariant suite", "validate_report.json", _cmd_validate),
    ]
    for name, help_line, default_name, runner in commands:
        command = sub.add_parser(name, help=help_line)
        command.add_argument("--config", help="JSON run configuration")
        command.add_argument("--out", help="output file path")
        command.set_defaults(func=runner, default_name=default_name)
    sub.choices["pulse-stats"].add_argument(
        "--series", required=True, help="evolve CSV to analyze"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        default = Path(config.out_dir) / args.default_name
        path = Path(args.out) if args.out is not None else default
        return args.func(args, config, path)
    except DressedProbeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main`` on the command line and exit with its code.

    Before exiting it freezes the garbage collector: every live object
    moves to the permanent generation, so the full collections the
    interpreter runs while it shuts down do not walk numpy's and the
    package's objects again.  Modules are still torn down, atexit handlers
    still run and standard streams still flush.  ``main`` does not freeze,
    since tests call it in-process and need their cycles collected.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
