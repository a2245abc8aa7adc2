"""Command-line harness: subcommands, CSV emission, determinism."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import shutil
import subprocess
import sys
import threading
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dressedprobe import CGS, ConfigError, ResonancePole, cli, pulsetrain, table
from dressedprobe.cli import (
    dispersion_rows,
    evolve_series,
    main,
    read_evolve_csv,
    sweep_frequency_rows,
)
from dressedprobe.config import RunConfig, load_config
from dressedprobe.dispersion import refractive_index
from dressedprobe.modulation import exponent_grid
from dressedprobe.pulsetrain import analyze_train

import refusals
from conftest import FROZEN, UNRESOLVED, child_env, spiked

REPO = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = REPO / "configs" / "default.json"
TRAIN_CONFIG = REPO / "configs" / "pulse_train.json"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = json.loads(DEFAULT_CONFIG.read_text())
    for dotted, value in overrides.items():
        section = raw
        *heads, leaf = dotted.split(".")
        for head in heads:
            section = section.setdefault(head, {})
        section[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestSweepFrequency:
    def test_rows_mirror_and_pole_markers(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-frequency", "--config", DEFAULT_CONFIG, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta_rad_per_s,re_g_solid,re_g_dashed,pole"
        assert len(lines) == 1 + 401
        poles = 0
        for line in lines[1:]:
            delta, solid, dashed, pole = line.split(",")
            if pole == "POLE":
                poles += 1
                assert solid == "" and dashed == ""
                continue
            solid, dashed = float(solid), float(dashed)
            assert abs(dashed + solid) <= 1e-9 * (1.0 + abs(solid))
        # The default grid crosses the direct pole at delta = 0.
        assert poles >= 1

    def test_documented_row_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep-frequency", "--config", DEFAULT_CONFIG, "--out", out)
        by_delta = {}
        for line in out.read_text().strip().splitlines()[1:]:
            fields = line.split(",")
            if fields[3] != "POLE":
                by_delta[float(fields[0])] = float(fields[1])
        assert by_delta[2e9] == pytest.approx(FROZEN["re_g_dense"], rel=1e-9)

    def test_all_three_poles_flagged_on_targeted_grid(self, tmp_path):
        omega_prime = RunConfig().omega_prime()
        config = write_config(
            tmp_path,
            **{
                "grids.delta": {
                    "start": -omega_prime,
                    "stop": omega_prime,
                    "count": 3,
                }
            },
        )
        out = tmp_path / "sweep.csv"
        run_cli("sweep-frequency", "--config", config, "--out", out)
        markers = [
            line.split(",")[3]
            for line in out.read_text().strip().splitlines()[1:]
        ]
        assert markers == ["POLE", "POLE", "POLE"]

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli("sweep-frequency", "--config", DEFAULT_CONFIG, "--out", first)
        run_cli("sweep-frequency", "--config", DEFAULT_CONFIG, "--out", second)
        assert first.read_bytes() == second.read_bytes()


class TestEvolve:
    def test_series_and_stats(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", TRAIN_CONFIG, "--out", out) == 0
        stats = json.loads(
            (tmp_path / "evolve.csv.stats.json").read_text()
        )
        period = 2.0 * math.pi / FROZEN["omega_prime"]
        assert stats["period_s"] == pytest.approx(period, rel=1e-6)
        assert stats["depth"] == pytest.approx(
            FROZEN["depth_train"], rel=1e-6
        )
        assert stats["fwhm_s"] == pytest.approx(FROZEN["fwhm_train"], rel=0.01)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_s,intensity_gain"
        assert len(lines) == 1 + 4 * 1024

    def test_flat_series_surfaces_shallow_modulation(self, tmp_path):
        config = write_config(
            tmp_path, **{"state.alpha": 0.0, "state.beta": 1.0}
        )
        out = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", config, "--out", out) == 0
        stats = json.loads((tmp_path / "evolve.csv.stats.json").read_text())
        assert stats["error"] == "ShallowModulation"
        gains = {
            float(line.split(",")[1])
            for line in out.read_text().strip().splitlines()[1:]
        }
        assert gains == {1.0}

    def test_round_trip_reanalysis_identical(self, tmp_path):
        out = tmp_path / "evolve.csv"
        run_cli("evolve", "--config", TRAIN_CONFIG, "--out", out)
        stats = json.loads((tmp_path / "evolve.csv.stats.json").read_text())
        series = read_evolve_csv(out)
        again = analyze_train(series, stats["omega_prime_rad_per_s"])
        for key, value in (
            ("period_s", again.period),
            ("fwhm_s", again.fwhm),
            ("peak_gain", again.peak_gain),
            ("min_gain", again.min_gain),
            ("depth", again.depth),
        ):
            assert value == pytest.approx(stats[key], rel=1e-12)

    @pytest.mark.parametrize(
        "shipped", [DEFAULT_CONFIG, TRAIN_CONFIG], ids=lambda p: p.stem
    )
    def test_odd_sample_count_resolves_the_train(self, tmp_path, shipped):
        # At theta = pi an odd count per period puts every minimum midway
        # between two bit-equal samples.
        raw = json.loads(shipped.read_text())
        raw["grids"]["t"]["samples_per_period"] = 1023
        config = tmp_path / "odd.json"
        config.write_text(json.dumps(raw))
        series = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", config, "--out", series) == 0
        stats = json.loads((tmp_path / "evolve.csv.stats.json").read_text())
        assert "error" not in stats
        out = tmp_path / "pulse_stats.json"
        assert (
            run_cli(
                "pulse-stats", "--config", config, "--series", series, "--out", out
            )
            == 0
        )
        again = json.loads(out.read_text())
        for key in ("period_s", "fwhm_s", "peak_gain", "min_gain", "depth"):
            assert again[key] == pytest.approx(stats[key], rel=1e-12)
        report = tmp_path / "report.json"
        assert run_cli("validate", "--config", config, "--out", report) == 0

    def test_unresolved_pulse_surfaces_under_sampled(self, tmp_path):
        # 2R = 592 at 64 samples per period: under one sample per FWHM, and
        # the tallest refined peak lies more than ln 2 above its own sample.
        config = write_config(tmp_path, **{
            "ensemble.rho": 2.64e15, "z.theta": 2.65,
            "grids.t": {"periods": 4.0, "samples_per_period": 64},
        })
        out = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", config, "--out", out) == 0
        stats = json.loads((tmp_path / "evolve.csv.stats.json").read_text())
        assert stats["error"] == "UnderSampled" and "fwhm_s" not in stats
        again = tmp_path / "pulse_stats.json"
        argv = ["--config", config, "--series", out, "--out", again]
        assert run_cli("pulse-stats", *argv) == 1
        assert json.loads(again.read_text())["error"] == "UnderSampled"

    @pytest.mark.parametrize("off", [1e-7, 1e-5])
    def test_period_off_two_pi_over_w_prime_refused(self, monkeypatch, off):
        # A measured period more than 1e-6 relative from 2 pi / w' is no
        # train of this model, so evolve refuses it instead of reporting it.
        measure = pulsetrain.analyze_train

        def shifted(series, omega_prime):
            stats = measure(series, omega_prime)
            return dataclasses.replace(stats, period=stats.period * (1.0 + off))

        monkeypatch.setattr(pulsetrain, "analyze_train", shifted)
        config = load_config(TRAIN_CONFIG)
        if off < 1e-6:
            assert "period_s" in evolve_series(config)[1]
            return
        with pytest.raises(ConfigError, match="deviates from 2 pi / w' .* 1e-6"):
            evolve_series(config)

    def test_too_short_span_rejected(self, tmp_path):
        config = write_config(tmp_path, **{"grids.t.periods": 2.0})
        assert run_cli("evolve", "--config", config) == 2

    def test_overflowing_gain_rejected(self, tmp_path):
        config = write_config(tmp_path, **{"ensemble.rho": 2e17})
        assert run_cli("evolve", "--config", config) == 2

    def test_nan_gain_rejected(self, tmp_path, capsys):
        # K overflows to inf, so every exponent off the boundary is NaN.
        config = write_config(tmp_path, **{"ensemble.rho": 1e308})
        out = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", config, "--out", out) == 2
        assert not out.exists()
        assert "ConfigError" in capsys.readouterr().err


class TestPulseStats:
    def test_stats_from_emitted_series(self, tmp_path):
        series_path = tmp_path / "evolve.csv"
        run_cli("evolve", "--config", TRAIN_CONFIG, "--out", series_path)
        out = tmp_path / "stats.json"
        assert (
            run_cli(
                "pulse-stats",
                "--config",
                TRAIN_CONFIG,
                "--series",
                series_path,
                "--out",
                out,
            )
            == 0
        )
        stats = json.loads(out.read_text())
        assert stats["depth"] == pytest.approx(FROZEN["depth_train"], rel=1e-6)

    def test_source_is_the_series_argument_as_given(self, tmp_path, monkeypatch):
        # bench/run.py runs from a relative work directory so that the stats
        # of two checkouts have one digest; source is therefore not resolved.
        monkeypatch.chdir(tmp_path)
        run_cli("evolve", "--config", TRAIN_CONFIG, "--out", "train/evolve.csv")
        argv = ["--series", "train/evolve.csv", "--out", "stats.json"]
        assert run_cli("pulse-stats", "--config", TRAIN_CONFIG, *argv) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["source"] == "train/evolve.csv"

    def test_series_at_the_plane_bound_reanalyzed(self, tmp_path):
        # The deepest plane at 1,024 samples per period; row theta-deep of
        # the refusal table lies past it.
        config = write_config(tmp_path, **{"z.theta": 1e7 / 1024})
        series = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", config, "--out", series) == 0
        out = tmp_path / "stats.json"
        argv = ["--config", config, "--series", series, "--out", out]
        assert run_cli("pulse-stats", *argv) == 0
        assert "error" not in json.loads(out.read_text())

    @pytest.mark.parametrize("name", UNRESOLVED)
    def test_unresolved_peak_exits_1(self, tmp_path, name):
        series = spiked(UNRESOLVED[name][0])
        path = tmp_path / "series.csv"
        _write_table(path, ["t_s", "intensity_gain"], np.column_stack((series.times, series.gains)))
        out = tmp_path / "stats.json"
        argv = ["--config", TRAIN_CONFIG, "--series", path, "--out", out]
        assert run_cli("pulse-stats", *argv) == 1
        stats = json.loads(out.read_text())
        assert stats["error"] == "UnderSampled" and "fwhm_s" not in stats
        assert UNRESOLVED[name][1] in stats["message"]

    # Named rows of the refusal table, each under a test id of its own.

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_refuses_unreadable_series(self, refused, target):
        refused.series(target)

    @pytest.mark.parametrize(
        "name", ["nan_time_second_row", "nan_time_interior"], ids=["second_row", "interior"]
    )
    def test_refuses_nan_time(self, refused, name):
        refused.series(name)


def _reference_csv(columns: list[str], rows) -> bytes:
    """The per-cell CSV writer the table writer must reproduce byte for
    byte: format(v, '.17g') per float, '' for None, strings verbatim."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        return format(value, ".17g")

    lines = [",".join(columns)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _reference_rows(values: np.ndarray, pole: np.ndarray) -> list[tuple]:
    width = values.shape[1]
    return [
        (row[0], *[None] * (width - 1), "POLE") if at_pole else (*row, "")
        for row, at_pole in zip(values.tolist(), pole.tolist())
    ]


def _write_table(path: Path, *args) -> None:
    with path.open("wb") as out:
        table.write_table(out, *args)


def _three_poles_config(tmp_path) -> Path:
    """A 201-row grid on -w'..w' that hits all three poles."""
    omega_prime = RunConfig().omega_prime()
    return write_config(
        tmp_path,
        **{
            "grids.delta": {
                "start": -omega_prime,
                "stop": omega_prime,
                "count": 201,
            }
        },
    )


class TestTableWriter:
    def test_evolve_csv_equals_per_cell_writer(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", TRAIN_CONFIG, "--out", out) == 0
        series, _ = evolve_series(load_config(TRAIN_CONFIG))
        rows = zip(series.times.tolist(), series.gains.tolist())
        assert out.read_bytes() == _reference_csv(
            ["t_s", "intensity_gain"], rows
        )

    def test_pole_tables_equal_per_cell_writer(self, tmp_path):
        path = _three_poles_config(tmp_path)
        config = load_config(path)
        for command, rows_of, columns in (
            (
                "sweep-frequency",
                sweep_frequency_rows,
                ["delta_rad_per_s", "re_g_solid", "re_g_dashed", "pole"],
            ),
            (
                "dispersion-scan",
                dispersion_rows,
                [
                    "omega_rad_per_s",
                    "n0",
                    "dipole_part",
                    "beyond_dipole_part",
                    "pole",
                ],
            ),
        ):
            values, pole = rows_of(config)
            assert pole.sum() >= 2
            out = tmp_path / f"{command}.csv"
            assert run_cli(command, "--config", path, "--out", out) == 0
            assert out.read_bytes() == _reference_csv(
                columns, _reference_rows(values, pole)
            )

    # 11 rows: 11, 6, 4, 3 and 1 blocks, so both threads format blocks
    # when there are two or more, and an odd count leaves one to this thread.
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 5, 8192])
    def test_edge_values_across_blocks(self, tmp_path, monkeypatch, block_rows):
        # Each table below has three value columns.
        monkeypatch.setattr(table, "_BLOCK_CELLS", 3 * block_rows)
        edges = [
            -0.0,
            5e-324,
            2.2250738585072014e-308,
            1e16,
            1.7976931348623157e308,
            0.1,
            1.0 / 3.0,
            -2.5e-11,
            math.inf,
            -math.inf,
            math.nan,
        ]
        values = np.array([edges, edges[::-1], edges[3:] + edges[:3]]).T
        plain = tmp_path / "plain.csv"
        _write_table(plain, ["a", "b", "c"], values)
        assert plain.read_bytes() == _reference_csv(
            ["a", "b", "c"], values.tolist()
        )
        pole = np.arange(len(values)) % 3 == 1
        marked = tmp_path / "marked.csv"
        _write_table(marked, ["a", "b", "c", "pole"], values, pole)
        assert marked.read_bytes() == _reference_csv(
            ["a", "b", "c", "pole"], _reference_rows(values, pole)
        )

    @staticmethod
    def _assert_as_reference(tmp_path, values, pole=None):
        columns = [f"c{i}" for i in range(values.shape[1])]
        rows = values.tolist()
        if pole is not None:
            columns.append("pole")
            rows = _reference_rows(values, pole)
        out = tmp_path / "table.csv"
        _write_table(out, columns, values, pole)
        assert out.read_bytes() == _reference_csv(columns, rows)

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(9).integers(
            0, 2**64, size=2 * 10**5, dtype=np.uint64
        )
        # Both signs and all 2048 exponents: subnormals, inf and nan too.
        assert np.unique(bits >> np.uint64(52)).size == 4096
        self._assert_as_reference(tmp_path, bits.view(np.float64).reshape(-1, 4))

    def test_powers_of_ten_and_notation_switches(self, tmp_path):
        # Fixed notation runs from exponent -4 to 16 after rounding.
        switches = [1e-5, 9.9999999999999995e-5, 1e16, 1e17]
        centres = np.array([float(f"1e{k}") for k in range(-323, 309)] + switches)
        values = np.column_stack(
            (
                np.nextafter(centres, 0.0),
                centres,
                np.nextafter(centres, np.inf),
                -centres,
            )
        )
        self._assert_as_reference(tmp_path, values)

    def test_every_cell_through_percent(self, tmp_path, monkeypatch):
        # The path of a long double no wider than a double: its tie margin
        # exceeds 0.5, so no significand is certain.
        monkeypatch.setattr(table, "_TIE_MARGIN", 1.0)
        bits = np.random.default_rng(10).integers(
            0, 2**64, size=2 * 10**4, dtype=np.uint64
        )
        values = bits.view(np.float64).reshape(-1, 4)
        values[:3, 1:] = [[1.0, 1e16, 1e17], [0.0, -0.0, np.inf], [0.5, 1e-5, 7.0]]
        self._assert_as_reference(tmp_path, values)
        self._assert_as_reference(tmp_path, values, np.arange(len(values)) % 4 == 1)

    def test_power_table_correctly_rounded(self):
        powers, _ = table._layout()
        for k, power in zip(range(table._POWERS_FROM, 341), powers):
            if not np.isfinite(power):
                continue
            above = np.nextafter(power, np.longdouble(np.inf))
            ulp = Fraction(*(above - power).as_integer_ratio())
            error = Fraction(*power.as_integer_ratio()) - Fraction(10) ** k
            assert abs(error) <= ulp / 2, k

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_block_error_raised_and_threads_joined(
        self, tmp_path, monkeypatch, failing
    ):
        format_block = table._format_block

        def format_or_fail(values, end):
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper == (failing == "helper"):
                raise RuntimeError(f"block failed on the {failing}")
            return format_block(values, end)

        monkeypatch.setattr(table, "_format_block", format_or_fail)
        monkeypatch.setattr(table, "_BLOCK_CELLS", 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block failed on the {failing}"):
            _write_table(tmp_path / "t.csv", ["a", "b"], np.ones((8, 2)))
        assert threading.active_count() == threads

    def test_concurrent_writers_under_fast_switching(self, tmp_path, monkeypatch):
        # Four writers, each with its helper thread, on fewer CPUs, with a
        # thread switch every microsecond: every file still equals the
        # reference, and every thread ends.
        monkeypatch.setattr(table, "_BLOCK_CELLS", 512)
        bits = np.random.default_rng(11).integers(
            0, 2**64, size=8000, dtype=np.uint64
        )
        values = bits.view(np.float64).reshape(-1, 4)
        columns = ["a", "b", "c", "d"]
        paths = [tmp_path / f"table{i}.csv" for i in range(4)]
        writers = [
            threading.Thread(target=_write_table, args=(path, columns, values))
            for path in paths
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(writer.is_alive() for writer in writers)
        expected = _reference_csv(columns, values.tolist())
        for path in paths:
            assert path.read_bytes() == expected

    def test_empty_table_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        _write_table(out, ["a", "pole"], np.empty((0, 1)), np.zeros(0, bool))
        assert out.read_bytes() == b"a,pole\n"


class TestSeriesReader:
    def test_values_bit_equal_to_float(self, tmp_path):
        out = tmp_path / "evolve.csv"
        run_cli("evolve", "--config", TRAIN_CONFIG, "--out", out)
        cells = [
            line.split(",")
            for line in out.read_text().splitlines()[1:]
        ]
        times = [float(t) for t, _ in cells]
        gains = np.array([float(g) for _, g in cells])
        series = read_evolve_csv(out)
        assert series.gains.tobytes() == gains.tobytes()
        assert series.t0 == times[0]
        assert series.dt == times[1] - times[0]

    @pytest.mark.parametrize("name", refusals.SERIES)
    def test_refused_with_exit_2(self, refused, name):
        refused.series(name)

    def test_extra_columns_and_blank_lines_accepted(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text(
            "t_s,intensity_gain,note\n0.0,1.0,a\n\n1.0,2.0,b,c\n2.0,1.5\n\n"
        )
        parsed = read_evolve_csv(series)
        assert (parsed.t0, parsed.dt) == (0.0, 1.0)
        assert parsed.gains.tolist() == [1.0, 2.0, 1.5]


def _side_car(series: Path) -> Path:
    return Path(f"{series}.samples.npz")


def _parsed(series: Path) -> np.ndarray:
    """The samples of an evolve CSV as the reader parses them."""
    return np.loadtxt(
        series, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2, comments=None
    )


def _edit_one_cell(series: Path) -> None:
    """Change the last digit of one gain cell: same length, other bytes."""
    lines = series.read_text().splitlines(keepends=True)
    row = lines[100].rstrip("\n")
    digit = (int(row[-1]) + 1) % 10
    lines[100] = f"{row[:-1]}{digit}\n"
    series.write_text("".join(lines))


_BENCH_CONFIGS = json.loads((REPO / "tests" / "data" / "bench_configs.json").read_text())


class TestSamplesSideCar:
    """evolve leaves the samples it wrote in ``<out>.samples.npz``, with the
    CSV's byte length and CRC-32; the reader takes them from there only
    when both match the CSV beside it, and parses the CSV otherwise."""

    @pytest.fixture
    def series(self, tmp_path, train_series) -> Path:
        path = tmp_path / "evolve.csv"
        shutil.copyfile(train_series, path)
        shutil.copyfile(_side_car(train_series), _side_car(path))
        return path

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch) -> list:
        calls = []
        parse = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        return calls

    def test_evolve_writes_side_car(self, tmp_path, train_series):
        again = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", TRAIN_CONFIG, "--out", again) == 0
        assert _side_car(again).read_bytes() == _side_car(train_series).read_bytes()

    def test_matching_side_car_skips_the_parse(self, series, monkeypatch):
        body = _parsed(series)

        def refused(*args, **kwargs):
            raise AssertionError("np.loadtxt called with a matching side-car")

        monkeypatch.setattr(np, "loadtxt", refused)
        read = read_evolve_csv(series)
        assert read.gains.tobytes() == body[:, 1].tobytes()
        assert (read.t0, read.dt) == (body[0, 0], body[1, 0] - body[0, 0])

    @pytest.mark.parametrize(
        "config",
        [
            DEFAULT_CONFIG,
            TRAIN_CONFIG,
            _BENCH_CONFIGS["pulse_train-seed1-train"],
            _BENCH_CONFIGS["pulse_train-seed1-side"],
        ],
        ids=["default", "pulse_train", "bench_train", "bench_side"],
    )
    def test_side_car_bit_equal_to_the_parse(self, tmp_path, config):
        if isinstance(config, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            config = path
        series = tmp_path / "evolve.csv"
        assert run_cli("evolve", "--config", config, "--out", series) == 0
        samples = cli._read_samples(series)
        assert samples is not None
        assert samples.tobytes() == _parsed(series).tobytes()

    def test_pulse_stats_independent_of_side_car(self, tmp_path, series):
        other = tmp_path / "other.csv"
        assert run_cli("evolve", "--config", DEFAULT_CONFIG, "--out", other) == 0
        outputs = []
        for case in ("present", "deleted", "stale"):
            if case == "deleted":
                _side_car(series).unlink()
            elif case == "stale":
                shutil.copyfile(_side_car(other), _side_car(series))
            out = tmp_path / f"{case}.json"
            argv = ["--config", TRAIN_CONFIG, "--series", series, "--out", out]
            assert run_cli("pulse-stats", *argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "case",
        [
            "matching",
            "edited_cell",
            "truncated",
            "short_header",
            "int64",
            "three_columns",
            "flat",
            "objects",
        ],
    )
    def test_side_car_trusted_only_when_it_matches(self, series, case, loadtxt_calls):
        values = _parsed(series)
        size, crc = series.stat().st_size, zlib.crc32(series.read_bytes())
        side_car = _side_car(series)
        if case == "edited_cell":
            _edit_one_cell(series)
            assert series.stat().st_size == size
        elif case == "truncated":
            side_car.write_bytes(side_car.read_bytes()[: side_car.stat().st_size // 2])
        elif case == "short_header":
            # The header length of the first array, the samples, cut by 8:
            # numpy reads 8 bytes of padding and stops 8 bytes short of the
            # end, where the archive would check its CRC-32.
            raw = bytearray(side_car.read_bytes())
            raw[raw.index(b"\x93NUMPY\x01\x00") + 8] -= 8
            side_car.write_bytes(raw)
        elif case == "objects":
            with side_car.open("wb") as out:
                np.save(out, values.astype(object), allow_pickle=True)
        else:
            written = {
                "matching": lambda: values,
                "int64": lambda: values.view(np.int64),  # the same bytes
                "three_columns": lambda: np.column_stack((values, values[:, 1])),
                "flat": values.ravel,
            }[case]()
            cli._write_samples(side_car, written, size, crc)
        loadtxt_calls.clear()
        read = read_evolve_csv(series)
        assert len(loadtxt_calls) == (case != "matching")
        assert read.gains.tobytes() == _parsed(series)[:, 1].tobytes()


class TestDispersionScan:
    def test_rows_and_split(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert (
            run_cli("dispersion-scan", "--config", DEFAULT_CONFIG, "--out", out)
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert (
            lines[0]
            == "omega_rad_per_s,n0,dipole_part,beyond_dipole_part,pole"
        )
        checked = 0
        for line in lines[1:]:
            fields = line.split(",")
            if fields[4] == "POLE":
                continue
            n0, dip, beyond = map(float, fields[1:4])
            assert n0 - 1.0 == pytest.approx(dip + beyond, rel=1e-9)
            checked += 1
        assert checked > 300

    def test_balanced_state_scan_is_flat(self, tmp_path):
        half = math.sqrt(0.5)
        config = write_config(
            tmp_path, **{"state.alpha": half, "state.beta": half}
        )
        out = tmp_path / "disp.csv"
        run_cli("dispersion-scan", "--config", config, "--out", out)
        for line in out.read_text().strip().splitlines()[1:]:
            fields = line.split(",")
            if fields[4] != "POLE":
                assert float(fields[1]) == 1.0


class TestValidate:
    def test_default_config_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", DEFAULT_CONFIG, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert len(report["checks"]) >= 10

    def test_pole_parked_config_fails_cleanly(self, tmp_path, capsys):
        omega_prime = RunConfig().omega_prime()
        config = write_config(tmp_path, **{"probe.delta": omega_prime})
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", config, "--out", out) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        details = " ".join(c["detail"] for c in report["checks"])
        assert "ResonancePole" in details

    def test_coarse_steps_config_fails_cleanly(self, tmp_path):
        out = tmp_path / "report.json"
        config = write_config(tmp_path, steps=10)
        assert run_cli("validate", "--config", config, "--out", out) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert not checks["oracle_agreement"]["passed"]

    def test_overflowing_gain_fails_cleanly(self, tmp_path):
        # Twice the default density: 2 Re G exceeds the double range.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"ensemble": {"rho": 4e15}}))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", config, "--out", out) == 1
        checks = json.loads(out.read_text())["checks"]
        failed = [c for c in checks if not c["passed"]]
        assert len(checks) == 12
        # A check that raised reports the name it reports on PASS.
        assert {c["name"] for c in failed} == {
            "modulation_periods",
            "zero_mean_jensen_geometric",
            "train_stats_closed_form",
        }
        for check in failed:
            assert check["detail"].startswith("ConfigError: ")

    def test_pump_whose_ladder_leaves_k_range_fails_cleanly(self, tmp_path):
        # w' = 1e101 has a K, but the x100 Rabi ladder of the beyond-dipole
        # check reaches a gas whose w'**3 overflows: that check fails with
        # the gas's ConfigError and the report is still written.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"pump": {"rabi": 1e101}}))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", config, "--out", out) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert len(checks) == 12
        beyond = checks["beyond_dipole_non_saturating"]
        assert not beyond["passed"]
        assert beyond["detail"].startswith("ConfigError: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_exponent_fails_cleanly(self, tmp_path):
        # A finite density whose K overflows: every number off the
        # boundary is NaN, and no check may read that as a pass.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"ensemble": {"rho": 1e308}}))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", config, "--out", out) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert len(checks) == 12
        assert not checks["oracle_agreement"]["passed"]
        assert checks["oracle_agreement"]["detail"].startswith(
            "max rel log-amplitude error = nan"
        )
        for name in ("modulation_periods", "zero_mean_jensen_geometric"):
            assert checks[name]["detail"].startswith("ConfigError: ")

    @pytest.mark.parametrize(
        "override",
        [
            {"pump": {"rabi": 0.0}},
            {"pump": {"detuning": -6e14}},
            {"pump": {"detuning": 2e11}},
            {"state": {"alpha": 1.0, "beta": 0.0}},
            {"state": {"alpha": math.sqrt(0.5), "beta": math.sqrt(0.5)}},
            {"ensemble": {"rho": 0.0}},
            {"ensemble": {"d_squared": 0.0}},
        ],
        ids=[
            "dark_pump",
            "far_detuned_pump",
            "blue_detuned_pump",
            "pure_state",
            "balanced_state",
            "empty_cell",
            "zero_dipole",
        ],
    )
    def test_edge_config_writes_a_report(self, tmp_path, override):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(override))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", config, "--out", out) in (0, 1)
        assert len(json.loads(out.read_text())["checks"]) == 12


class TestBadConfigRefused:
    # Named rows of the refusal table on one subcommand each, under test ids
    # of their own; test_config.py runs every row on every subcommand.

    @pytest.mark.parametrize("name", [
        "file-utf16", "raw26-ensemble.rho must be finite", "raw27-grids.delta.count must be finite",
    ], ids=["not_utf8", "huge_density", "huge_count"])
    @pytest.mark.parametrize("command", refusals.COMMANDS)
    def test_unparsable_config_refused(self, refused, name, command):
        refused.config(name, [command])

    @pytest.mark.parametrize("command", ["sweep-frequency", "evolve"])
    def test_pump_beyond_k_range_refused(self, refused, command):
        refused.config("rabi-overflow", [command])

    @pytest.mark.parametrize(
        "name", ["key-z.cm", "raw10-z.theta must be non-negative"], ids=["z.cm", "z.theta"]
    )
    @pytest.mark.parametrize("command", ["validate", "sweep-frequency"])
    def test_negative_plane_refused(self, refused, name, command):
        refused.config(name, [command])

    @pytest.mark.parametrize("command", refusals.COMMANDS)
    def test_steps_above_ceiling_refused(self, refused, command):
        refused.config("steps-ceiling", [command])

    @pytest.mark.parametrize("name", [
        "omega0-overflow", "d_squared-overflow", "rabi-overflow",
        "raw30-grids.delta.count must be <= 4194304", "raw31-grids.t.samples_per_period",
        "raw32-z.theta .* non-finite phase",
    ], ids=["omega0", "d_squared", "rabi", "delta_count", "t_periods", "z_theta"])
    @pytest.mark.parametrize("command", refusals.COMMANDS)
    def test_unevaluable_config_refused(self, refused, name, command):
        refused.config(name, [command])

    @pytest.mark.parametrize("command", ["sweep-frequency", "dispersion-scan"])
    def test_non_finite_table_refused(self, tmp_path, capsys, command):
        # A finite density whose K overflows: every Re G and index cell off
        # the poles is NaN or infinite, and no table may hold it.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ensemble": {"rho": 1e308}}))
        out = tmp_path / "table.csv"
        assert run_cli(command, "--config", path, "--out", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "ConfigError" in err and "non-finite" in err

    @pytest.mark.parametrize("target", ["under_a_file", "a_directory"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-frequency", "--config", DEFAULT_CONFIG],
            ["evolve", "--config", TRAIN_CONFIG],
            ["dispersion-scan", "--config", DEFAULT_CONFIG],
            ["pulse-stats", "--config", TRAIN_CONFIG, "--series", "SERIES"],
            ["validate", "--config", DEFAULT_CONFIG],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_refused(self, tmp_path, capsys, train_series, argv, target):
        argv = [train_series if a == "SERIES" else a for a in argv]
        if target == "a_directory":
            out = tmp_path / "out"
            out.mkdir()
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out.csv"
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and str(out) in err


def _guard_edge_config(tmp_path) -> Path:
    """Default grid, guard equal to one row's +w' sideband |denominator|."""
    config = RunConfig()
    omega_p = config.gas().omega_p
    delta = config.delta_values()[100]  # -2e11, next to -w'
    delta_po = omega_p - (omega_p - delta)
    return write_config(
        tmp_path, guard=abs(delta_po + config.omega_prime())
    )


def _table(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize(
    "grid", ["default", "three_poles", "guard_edge", "complex_state"]
)
def test_array_rows_equal_scalar_wrappers(tmp_path, grid):
    """Every value cell equals a one-frequency ``exponent_grid`` or
    ``refractive_index`` call with ==; POLE rows sit exactly where that call
    raises ResonancePole."""
    omega_prime = RunConfig().omega_prime()
    if grid == "default":
        path = DEFAULT_CONFIG
    elif grid == "three_poles":
        path = _three_poles_config(tmp_path)
    elif grid == "guard_edge":
        path = _guard_edge_config(tmp_path)
    else:
        # Complex alpha and beta: products where a fused multiply-add
        # changes the last bit, so the two paths must share one algebra.
        path = write_config(
            tmp_path,
            **{
                "state.alpha": [0.6, 0.48],
                "state.beta": [0.64 * math.cos(1.0), 0.64 * math.sin(1.0)],
            },
        )
    config = load_config(path)
    gas = config.gas()
    z = config.z_fixed()
    sweep, scan = tmp_path / "sweep.csv", tmp_path / "scan.csv"
    assert run_cli("sweep-frequency", "--config", path, "--out", sweep) == 0
    assert run_cli("dispersion-scan", "--config", path, "--out", scan) == 0

    sweep_poles = set()
    for i, (delta, solid, dashed, marker) in enumerate(_table(sweep)):
        try:
            expected = exponent_grid(
                gas,
                gas.omega_p - float(delta),
                [z],
                [math.pi / omega_prime, 2.0 * math.pi / omega_prime],
            )[0].real.tolist()
        except ResonancePole:
            assert (marker, solid, dashed) == ("POLE", "", "")
            sweep_poles.add(i)
            continue
        assert marker == ""
        assert [float(solid), float(dashed)] == expected

    scan_poles = set()
    for i, (omega, n0, dipole, beyond, marker) in enumerate(_table(scan)):
        try:
            result = refractive_index(gas, float(omega))
        except ResonancePole:
            assert (marker, n0, dipole, beyond) == ("POLE", "", "", "")
            scan_poles.add(i)
            continue
        assert marker == ""
        assert [float(n0), float(dipole), float(beyond)] == [
            result.n0,
            result.dipole_part,
            result.beyond_dipole_part,
        ]

    # The sweep also guards omega_p - omega, so its poles include the scan's.
    assert scan_poles <= sweep_poles
    if grid == "three_poles":
        assert {0, 100, 200} <= sweep_poles and {0, 200} <= scan_poles
    if grid == "guard_edge":
        assert 100 in scan_poles and 100 in sweep_poles
        assert 99 not in scan_poles and 101 not in scan_poles


_COMMANDS = [
    ["sweep-frequency"],
    ["evolve"],
    ["dispersion-scan"],
    ["pulse-stats", "--series", "evolve.csv"],
    ["validate"],
]


@pytest.mark.parametrize(
    "argv",
    [
        [*command, flag, value]
        for flag, value in (("--format", "json"), ("--guard", "1"), ("--steps", "10"))
        for command in _COMMANDS
    ],
)
def test_flag_the_subcommand_does_not_read_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli(*argv)
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sweep-frequency"], ["validate"]])
def test_flags_the_subcommand_reads_accepted(tmp_path, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", DEFAULT_CONFIG, "--out", out) == 0
    assert out.read_text()


@pytest.mark.parametrize("command", _COMMANDS, ids=lambda command: command[0])
def test_help_lists_only_config_out_and_series(command, capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli(command[0], "--help")
    assert exited.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--out", *command[1:2]}


_DEFAULT_FILES = {
    "sweep-frequency": ["sweep_frequency.csv"],
    "evolve": ["evolve.csv", "evolve.csv.samples.npz", "evolve.csv.stats.json"],
    "dispersion-scan": ["dispersion_scan.csv"],
    "pulse-stats": ["pulse_stats.json"],
    "validate": ["validate_report.json"],
}


@pytest.mark.parametrize("command", _DEFAULT_FILES)
def test_default_out_path_under_out_dir(tmp_path, train_series, command):
    out_dir = tmp_path / "results"
    argv = [command, "--config", write_config(tmp_path, out_dir=str(out_dir))]
    if command == "pulse-stats":
        argv += ["--series", train_series]
    assert run_cli(*argv) == 0
    assert sorted(path.name for path in out_dir.iterdir()) == _DEFAULT_FILES[command]
    assert all(path.read_bytes() for path in out_dir.iterdir())


def test_empty_out_not_replaced_by_the_default(tmp_path, capsys):
    # An empty --out names the working directory, which cannot be written.
    out_dir = tmp_path / "results"
    config = write_config(tmp_path, out_dir=str(out_dir))
    assert run_cli("sweep-frequency", "--config", config, "--out", "") == 2
    assert not out_dir.exists()
    assert "ConfigError: cannot write" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")


class TestEntryPoint:
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_run_freezes_after_main_and_exits_with_its_code(self, monkeypatch, code):
        # Both are stand-ins, so this process is never frozen.
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == code
        assert calls == ["main", "freeze"]

    def test_main_does_not_freeze(self, tmp_path):
        frozen = gc.get_freeze_count()
        out = tmp_path / "n0.csv"
        assert run_cli("dispersion-scan", "--config", DEFAULT_CONFIG, "--out", out) == 0
        assert gc.get_freeze_count() == frozen

    def test_module_run_reports_config_error(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "dressedprobe",
                "validate",
                "--config",
                str(tmp_path / "missing.json"),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ConfigError: cannot read config")
        assert not list(tmp_path.iterdir())
