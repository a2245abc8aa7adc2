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

Every subcommand reads its run parameters from ``--config`` only and
writes to ``--out`` (default: under the config's ``out_dir``).

Each sweep is one array call.  Rows that would hit a resonance pole are
emitted with empty value cells and a POLE marker instead of aborting the
sweep.  Every CSV float cell is exactly ``format(v, '.17g')``, so files
round-trip bit-exactly.  The table writer forms it in numpy: 17 digits from
the rounded extended-precision significand |v| * 10**(16 - e), laid out by
the ``g`` rules, with Python's ``%`` for zero, inf, nan and cells within
the rounding error of a tie.

Each function imports the layers it runs at its top, so a run loads only
the modules of its subcommand: without cached bytecode, Python compiles
every module it imports on every run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig, config_to_dict, load_config
from .errors import ConfigError, DressedProbeError

if TYPE_CHECKING:
    from .pulsetrain import TimeSeries


#: Rows the CSV table writer formats and writes per block.  A block takes
#: about 140 bytes a cell while it is formatted.
_BLOCK_ROWS = 4096

#: A cell whose extended-precision significand |v| * 10**(16 - e) lies
#: closer than this to a rounding tie is formatted by ``%``.  The product
#: carries two roundings (table entry and product), at most eps relative on
#: a value below 1e17; the margin is twice that.  Where long double is only
#: a double it exceeds 0.5, so every cell takes ``%``.
_TIE_MARGIN = 2.0 * float(np.finfo(np.longdouble).eps) * 1e17

#: Widest ``.17g`` text of a float64: ``-d.dddddddddddddddde-ddd``.
_CELL = 24

# Rows of the per-block source table a cell's text is gathered from: the
# 17 significand digits are rows 0..16, the exponent's hundreds, tens and
# units digits rows _EXP.._EXP + 2.
_POINT, _ZERO, _NUL, _SIGN, _E, _EXP_SIGN, _EXP = range(17, 24)
_SEP = _EXP + 3

_POWERS_FROM = -292  # 10**(16 - e) for e from 308 down to -324


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """Correctly rounded long-double powers of ten, and the source rows of
    each cell's text indexed by ``17 * layout + digits - 1``.

    A layout is fixed notation for exponents -4..16 (0..20), or the
    exponent notation with two (21) or three (22) exponent digits.  Its
    row spells all 17 digits; for ``digits`` significant digits the
    stripped trailing ones, and a point left bare, read ``_NUL`` instead.
    Every row ends with the cell separator at ``_CELL``.
    """
    powers = np.array(
        [f"1e{k}" for k in range(_POWERS_FROM, 341)], dtype=np.longdouble
    )
    full = np.full((23, _CELL + 1), _NUL)
    full[:, -1] = _SEP
    for layout in range(23):
        exponent = layout - 4
        if layout > 20:
            row = [0, _POINT, *range(1, 17), _E, _EXP_SIGN]
            row += range(_EXP + (layout == 21), _EXP + 3)
        elif exponent < 0:
            row = [_ZERO, _POINT] + [_ZERO] * (-exponent - 1) + [*range(17)]
        elif exponent < 16:
            row = [*range(exponent + 1), _POINT, *range(exponent + 1, 17)]
        else:
            row = [*range(17)]
        full[layout, : len(row) + 1] = [_SIGN, *row]
    digits = np.arange(1, 18)[:, None]
    fraction = np.cumsum(full == _POINT, axis=1)[:, None] > 0
    stripped = fraction & (full[:, None] < 17) & (full[:, None] >= digits)
    after = np.roll(full, -1, axis=1)[:, None]
    bare = (full[:, None] == _POINT) & (after < 17) & (after >= digits)
    rows = np.where(stripped | bare, _NUL, full[:, None])
    return powers, rows.reshape(-1, _CELL + 1)


def _significands(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 17-digit significand s and decimal exponent e of each finite
    non-zero value, v = s * 10**(e - 16) rounded, and the mask of cells whose
    s is certain: zero, inf, nan and the near-ties of ``_TIE_MARGIN`` are not.

    e comes from ``log10`` and is moved by one where the product below
    leaves [1e16, 1e17); s is ``rint(|v| * 10**(16 - e))`` in long double,
    and a rounding up to 1e17 moves e up.
    """
    powers, _ = _layout()
    mag = np.abs(flat)
    certain = (mag > 0) & (mag < np.inf)
    mag = np.where(certain, mag, 1.0)
    exponent = np.floor(np.log10(mag)).astype(np.intp)
    mag = mag.astype(np.longdouble)
    scaled = mag * powers[16 - _POWERS_FROM - exponent]
    exponent += (scaled >= 1e17).astype(np.intp) - (scaled < 1e16)
    scaled = mag * powers[16 - _POWERS_FROM - exponent]
    nearest = np.rint(scaled)
    # inf - inf where a power of ten overflows a double-only long double.
    with np.errstate(invalid="ignore"):
        off = np.abs((scaled - nearest).astype(np.float64))
    certain &= off <= 0.5 - _TIE_MARGIN
    significand = np.where(certain, nearest, 1e16).astype(np.uint64)
    carry = significand == 10**17
    significand[carry] = 10**16
    exponent += carry
    return certain, significand, exponent


def _format_block(values: np.ndarray, end: str) -> np.ndarray:
    """``format(v, '.17g')`` of every cell of the 2-d ``values``, as one
    NUL-padded uint8 row per table row: cells are ``_CELL + 1`` bytes, the
    last one the separator, ``,`` or ``end`` after the last column.

    The text of a certain cell (see ``_significands``) is gathered from its
    digits, sign, point and exponent by the ``_layout`` row of its exponent
    and stripped digit count, i.e. by the ``g`` rules; the other cells are
    formatted by one ``%`` call.
    """
    n = values.size
    flat = values.ravel()
    certain, significand, exponent = _significands(flat)
    source = np.empty((_SEP + 1, n), np.uint8)
    low = (significand % np.uint64(10**8)).astype(np.uint32)
    high = (significand // np.uint64(10**8)).astype(np.uint32)
    digits = np.full(n, 17, np.int8)
    trailing = np.ones(n, bool)
    for part, places in ((low, range(16, 8, -1)), (high, range(8, -1, -1))):
        for place in places:
            quotient = part // np.uint32(10)
            digit = part - quotient * np.uint32(10)
            trailing &= digit == 0
            digits -= trailing
            source[place] = digit + ord("0")
            part = quotient
    power = np.abs(exponent)
    source[_POINT] = ord(".")
    source[_ZERO] = ord("0")
    source[_NUL] = 0
    source[_SIGN] = np.signbit(flat) * ord("-")
    source[_E] = ord("e")
    source[_EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    source[_EXP] = power // 100 + ord("0")
    source[_EXP + 1] = power // 10 % 10 + ord("0")
    source[_EXP + 2] = power % 10 + ord("0")
    source[_SEP] = ord(",")
    source[_SEP].reshape(values.shape)[:, -1] = ord(end)
    row = np.where(
        (exponent >= -4) & (exponent < 17), exponent + 4, 21 + (power >= 100)
    )
    row *= 17
    row += digits - 1
    # One output position at a time keeps the index at 8 bytes a cell.
    text = np.empty((n, _CELL + 1), np.uint8)
    cell = np.arange(n)
    for position, sources in enumerate(_layout()[1].T * n):
        index = sources[row]
        index += cell
        text[:, position] = source.ravel()[index]

    rest = np.flatnonzero(~certain)
    if rest.size:
        cells = ("%.17g\0" * rest.size) % tuple(flat[rest].tolist())
        text[rest, :_CELL] = (
            np.array(cells.split("\0")[:-1], dtype=f"S{_CELL}")
            .view(np.uint8)
            .reshape(-1, _CELL)
        )
    return text.reshape(len(values), -1)


_MARKER = np.frombuffer(b"\0\0\0\0\nPOLE\n", np.uint8).reshape(2, 5)


def _create(path: Path):
    """Open ``path`` to write bytes, making its directory.  A path that
    cannot be written is a ConfigError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("wb")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_table(
    path: Path,
    columns: list[str],
    values: np.ndarray,
    pole: np.ndarray | None = None,
) -> None:
    """Write a header and one row per row of the 2-d ``values``.

    Every value cell is exactly ``format(v, '.17g')``, so the file reads
    back bit-exactly (see ``_format_block`` for how).  With a ``pole`` mask
    the last column is the marker: empty on ordinary rows, ``POLE`` on
    masked rows, which keep only their first value.  Each block of
    ``_BLOCK_ROWS`` rows goes to the file as soon as it is formatted.
    """
    with _create(path) as out:
        out.write((",".join(columns) + "\n").encode())
        for start in range(0, len(values), _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            if pole is None:
                text = _format_block(block, "\n")
            else:
                at_pole = pole[start : start + _BLOCK_ROWS]
                block = block.copy()
                # Blanked below; 1.0 takes no ``%`` however the cell reads.
                block[at_pole, 1:] = 1.0
                cells = _format_block(block, ",").reshape(*block.shape, -1)
                cells[at_pole, 1:, :_CELL] = 0
                text = np.concatenate(
                    (cells.reshape(len(block), -1), _MARKER[at_pole.astype(np.intp)]),
                    axis=1,
                )
            out.write(text[text != 0])


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as out:
        out.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _out_path(args, config: RunConfig, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(config.out_dir) / default_name


def _load(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def sweep_frequency_rows(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Columns (delta, Re G at arrival, Re G half a period later) and the
    pole mask; the Re G cells of a pole row are meaningless."""
    from . import modulation as mod

    gas = config.gas()
    omega_prime = config.omega_prime()
    deltas = config.delta_values()
    g, pole = mod.exponent_sweep(
        gas,
        gas.omega_p - deltas,
        config.z_fixed(),
        [math.pi / omega_prime, 2.0 * math.pi / omega_prime],
    )
    return np.column_stack((deltas, g.real)), pole


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
    series = mod.gain_series(config, config.t_periods, config.t_samples_per_period)
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
    dipole, beyond, pole = index_parts(gas, omega)
    with np.errstate(invalid="ignore"):  # inf - inf where K overflows
        values = np.column_stack((omega, 1.0 + dipole + beyond, dipole, beyond))
    return values, pole


def _emit_table(args, name: str, columns: list[str], rows) -> int:
    """Write the (values, pole mask) table ``rows`` makes of the config as
    ``name``.csv.  A NaN or infinite value outside the pole rows is a
    ConfigError, raised before the file is opened."""
    config = _load(args)
    values, pole = rows(config)
    if not np.isfinite(values[~pole]).all():
        raise ConfigError(f"{name} has non-finite values outside its POLE rows")
    path = _out_path(args, config, f"{name}.csv")
    _write_table(path, columns, values, pole)
    print(f"wrote {len(values)} rows to {path}")
    return 0


def _cmd_sweep_frequency(args) -> int:
    return _emit_table(
        args,
        "sweep_frequency",
        ["delta_rad_per_s", "re_g_solid", "re_g_dashed", "pole"],
        sweep_frequency_rows,
    )


def _cmd_evolve(args) -> int:
    config = _load(args)
    series, stats = evolve_series(config)
    values = np.column_stack((series.times, series.gains))
    path = _out_path(args, config, "evolve.csv")
    _write_table(path, ["t_s", "intensity_gain"], values)
    stats_path = path.with_suffix(path.suffix + ".stats.json")
    _write_json(stats_path, stats)
    print(f"wrote {len(values)} rows to {path}, stats to {stats_path}")
    if "error" in stats:
        print(f"stats: {stats['error']}: {stats['message']}")
    return 0


def _cmd_dispersion_scan(args) -> int:
    return _emit_table(
        args,
        "dispersion_scan",
        ["omega_rad_per_s", "n0", "dipole_part", "beyond_dipole_part", "pole"],
        dispersion_rows,
    )


def read_evolve_csv(path: str | Path) -> TimeSeries:
    """Parse a CSV produced by the evolve subcommand back into a series.

    Only the first two columns are read; blank lines are skipped.
    """
    from . import pulsetrain as pt

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
    # The same rule as characteristics.residual_check; it refuses NaN times.
    if not pt.is_uniform(times):
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
    _measure_train(series, omega_prime, stats)
    path = _out_path(args, config, "pulse_stats.json")
    _write_json(path, stats)
    print(f"wrote stats to {path}")
    return 0 if "error" not in stats else 1


def _cmd_validate(args) -> int:
    from .validation import run_all

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
