"""The refusal table: configs and series the program must refuse.

``CONFIG`` maps a row's id to ``(config, fragment)``.  The config is a JSON
value, which ``load_config`` and the subcommands get written with
``json.dumps`` (NaN, Infinity and integers beyond the float range survive
the round trip); the raw bytes of a file that is not UTF-8 JSON; or None, a
path with no file.  ``SERIES`` maps a row's id to ``(series, fragment)``.
The series is the text or the raw bytes of the ``--series`` file, or
``make(path, lines)``, which makes that file from the lines of a real
``evolve`` series.  The fragment is a literal part of the ConfigError
message.

``test_config.py::test_invalid_configs_rejected`` runs every config row
through ``config_from_dict`` (JSON values), ``load_config`` and all five
subcommands; ``test_cli.py::TestSeriesReader::test_refused_with_exit_2``
runs every series row through ``read_evolve_csv`` and ``pulse-stats``,
without and with a side-car of another series beside it.  A new row goes
last, so the ids of the rows before it stay.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from dressedprobe import ConfigError, load_config
from dressedprobe.cli import main, read_evolve_csv
from dressedprobe.config import config_from_dict

NAN = float("nan")
INF = float("inf")
BIG = 10**400  # a JSON integer beyond the float range, as json.loads returns it
TOO_BIG = "must be finite, got an integer too large for a float"
PHYSICAL = "invalid physical parameters: "
NORM = PHYSICAL + "|alpha|^2 + |beta|^2 = {} must equal 1 within 1e-12"
PAST_THE_PUMP = "grids.delta.{} reaches a non-positive probe omega"
PAIR = "must be a number or a [re, im] pair"
NON_EMPTY = "grids.t.periods and samples_per_period must be positive"
TRAIN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pulse_train.json"
COMMANDS = ["sweep-frequency", "evolve", "dispersion-scan", "pulse-stats", "validate"]


def _delta(start=-1.0, stop=1.0, count=3) -> dict:
    return {"grids": {"delta": {"start": start, "stop": stop, "count": count}}}


def _t(**grid) -> dict:
    return {"grids": {"t": grid}}


CONFIG = {
    # Ids of the form raw<n>-<fragment> are older test ids, kept as they are;
    # their fragments have since been tightened to whole messages.
    "raw0-missing key grids.delta.start": ({"grids": {"delta": {}}},
        "missing key grids.delta.start"),
    "raw1-guard": ({"guard": -1.0}, PHYSICAL + "guard must be non-negative"),
    "raw2-steps": ({"steps": 0}, "steps must be in 1..32768, got 0"),
    "raw3-count": (_delta(0.0, 1.0, 0), "grids.delta.count must be >= 1, got 0"),
    "raw4-number": ({"ensemble": {"omega0": "fast"}}, "ensemble.omega0 must be a number"),
    "raw5-invalid physical": ({"state": {"alpha": 1.0, "beta": 1.0}}, NORM.format("2.0")),
    "raw6-invalid physical": ({"pump": {"detuning": 0.0, "rabi": 0.0}},
        PHYSICAL + "detuning and Rabi frequency cannot both vanish"),
    "raw7-non-positive probe": (_delta(0.0, 2e15, 2), PAST_THE_PUMP.format("stop")),
    "raw8-probe omega must be strictly positive": ({"probe": {"delta": 2e15}},
        PHYSICAL + "probe.delta must be below omega_p"),
    "raw9-missing key grids.delta.count": ({"grids": {"delta": {"start": -1.0, "stop": 1.0}}},
        "missing key grids.delta.count"),
    "raw10-z.theta must be non-negative": ({"z": {"theta": -1.0}},
        "z.theta must be non-negative, got -1.0"),
    "raw11-omega_p must be strictly positive": ({"pump": {"detuning": -2e15}},
        PHYSICAL + "omega_p must be strictly positive"),
    "raw12-missing key grids.delta.stop": ({"grids": {"delta": {"start": -1.0, "count": 3}}},
        "missing key grids.delta.stop"),
    "raw13-grid stop must exceed start": (_delta(1.0, -1.0),
        "grids.delta.stop must exceed grids.delta.start"),
    "raw14-grids.delta.start must be finite, got -inf": (_delta(-INF),
        "grids.delta.start must be finite, got -inf"),
    "raw15-section z must be an object": ({"z": 1.0}, "section z must be an object"),
    "raw16-section grids.t must be an object": ({"grids": {"t": [3.0, 1024]}},
        "section grids.t must be an object"),
    "raw17-section grids.delta must be an object": ({"grids": {"delta": None}},
        "section grids.delta must be an object"),
    "raw18-config root must be a JSON object": ([], "config root must be a JSON object"),
    "raw19-out_dir must be a string": ({"out_dir": 1}, "out_dir must be a string"),
    "raw20-d_squared must be non-negative": ({"ensemble": {"d_squared": -1.0}},
        PHYSICAL + "d_squared must be non-negative"),
    "raw21-time grid must be non-empty": (_t(periods=0.0), NON_EMPTY),
    "raw22-time grid must be non-empty": (_t(samples_per_period=0), NON_EMPTY),
    # |alpha|^2 overflows a float: found by the config fuzz.
    "raw23-invalid physical": ({"state": {"alpha": 1e308}}, NORM.format("inf")),
    "raw24-invalid physical": ({"state": {"beta": [0.0, -1e308]}}, NORM.format("inf")),
    # One offset: delta_values() holds only start, which is bounded.
    "raw25-non-positive probe": (_delta(2e15, 0.0, 1), PAST_THE_PUMP.format("start")),
    "raw26-ensemble.rho must be finite": ({"ensemble": {"rho": BIG}}, f"ensemble.rho {TOO_BIG}"),
    "raw27-grids.delta.count must be finite": (_delta(count=BIG),
        f"grids.delta.count {TOO_BIG}"),
    "raw28-state.alpha must be finite": ({"state": {"alpha": -BIG}}, f"state.alpha {TOO_BIG}"),
    "raw29-state.beta must be finite": ({"state": {"beta": [0.0, BIG]}},
        f"state.beta {TOO_BIG}"),
    # Grids too large to allocate, and a plane whose phase overflows.
    "raw30-grids.delta.count must be <= 4194304": (_delta(-4e11, 4e11, 2 * 10**18),
        "grids.delta.count must be <= 4194304, got 2000000000000000000"),
    "raw31-grids.t.samples_per_period": (_t(periods=1e15),
        "grids.t.samples_per_period * max(grids.t.periods, 4) must be <= 4194304"),
    "raw32-z.theta .* non-finite phase": ({"z": {"theta": 1e300}},
        "z.theta = 1e+300 gives a non-finite phase w' z / c"),
    # Values that are not finite.
    "rho-nan": ({"ensemble": {"rho": NAN}}, "ensemble.rho must be finite, got nan"),
    "omega0-inf": ({"ensemble": {"omega0": INF}}, "ensemble.omega0 must be finite, got inf"),
    "alpha-nan": ({"state": {"alpha": NAN}}, "state.alpha must be finite, got (nan+0j)"),
    "beta-nan": ({"state": {"beta": [0.1, NAN]}}, "state.beta must be finite, got (0.1+nanj)"),
    "guard-nan": ({"guard": NAN}, "guard must be finite, got nan"),
    "theta-inf": ({"z": {"theta": INF}}, "z.theta must be finite, got inf"),
    "periods-inf": (_t(periods=INF), "grids.t.periods must be finite, got inf"),
    # Fractional counts and booleans.
    "steps-fraction": ({"steps": 1.9}, "steps must be a whole number"),
    "count-fraction": (_delta(count=2.5), "grids.delta.count must be a whole number"),
    "spp-fraction": (_t(samples_per_period=512.5),
        "grids.t.samples_per_period must be a whole number"),
    "alpha-bool": ({"state": {"alpha": True}}, f"state.alpha {PAIR}"),
    "beta-bool": ({"state": {"beta": [False, 0.1]}}, f"state.beta {PAIR}"),
    # Unknown keys; the plane is set only as the phase theta, so z.cm is one.
    "key-rhoo": ({"ensemble": {"rhoo": 1.0}}, "unknown key ensemble.rhoo"),
    "key-guardd": ({"guardd": 1.0}, "unknown key guardd"),
    "key-dotted": ({"ensemble.rho": 1.0}, "unknown key ensemble.rho"),
    "key-z.phase": ({"z": {"phase": 1.0}}, "unknown key z.phase"),
    "key-z.cm": ({"z": {"cm": -1.0}}, "unknown key z.cm"),
    "key-grids.f": ({"grids": {"f": {}}}, "unknown key grids.f"),
    "key-grids.delta.n": ({"grids": {"delta": {"start": 0.0, "stop": 1.0, "count": 3, "n": 1}}},
        "unknown key grids.delta.n"),
    "key-grids.t.period": (_t(period=3.0), "unknown key grids.t.period"),
    # Closed-form powers that overflow a double, and the steps ceiling.
    "omega0-overflow": ({"ensemble": {"omega0": 1e200}},
        PHYSICAL + "omega0**2 overflows a double"),
    "d_squared-overflow": ({"ensemble": {"d_squared": 1e300}},
        PHYSICAL + "d**2 * omega0**2 overflows a double"),
    "rabi-overflow": ({"pump": {"rabi": 1e103}}, PHYSICAL + "w'**3 overflows a double"),
    "steps-ceiling": ({"steps": 32769}, "steps must be in 1..32768, got 32769"),
    # Files that are not UTF-8 JSON, and a path with no file.
    "file-utf16": (b"\xff\xfe{}", "is not valid JSON"),
    "file-latin1": (b'{"out_dir": "r\xe9sultats"}', "is not valid JSON"),
    "file-not-json": (b"{not json", "is not valid JSON"),
    "file-missing": (None, "cannot read config"),
    # The bounds of the gas, and a value of the wrong type for each parser.
    "rho-negative": ({"ensemble": {"rho": -1.0}},
        PHYSICAL + "number density must be non-negative"),
    "omega0-zero": ({"ensemble": {"omega0": 0.0}},
        PHYSICAL + "omega0 must be strictly positive"),
    "rabi-negative": ({"pump": {"rabi": -1.0}}, PHYSICAL + "rabi must be non-negative"),
    "count-negative": (_delta(0.0, 1.0, -3), "grids.delta.count must be >= 1, got -3"),
    "a0-string": ({"probe": {"a0": "x"}}, "probe.a0 must be a number"),
    "alpha-string": ({"state": {"alpha": "x"}}, f"state.alpha {PAIR}"),
    "rabi-string": ({"pump": {"rabi": "x"}}, "pump.rabi must be a number"),
    "d_squared-nan": ({"ensemble": {"d_squared": NAN}},
        "ensemble.d_squared must be finite, got nan"),
    "detuning-nan": ({"pump": {"detuning": NAN}}, "pump.detuning must be finite, got nan"),
    "probe.delta-inf": ({"probe": {"delta": INF}}, "probe.delta must be finite, got inf"),
    # A plane so deep that the written time column fails pulse-stats.
    "theta-deep": ({"z": {"theta": 1e5}, "grids": {"t": {"samples_per_period": 1024}}},
        "z.theta * grids.t.samples_per_period must be <= 10000000, got 102400000.0"),
}


def _thinned(path: Path, lines: list[str]) -> None:
    header, *rows = lines
    kept = [row for i, row in enumerate(rows) if i % 7 != 6]
    path.write_text("\n".join([header, *kept]) + "\n")


def _nan_time(row: int):
    def make(path: Path, lines: list[str]) -> None:
        lines = list(lines)
        lines[1 + row] = "nan," + lines[1 + row].split(",")[1]
        path.write_text("\n".join(lines) + "\n")

    return make


SERIES = {
    "malformed_cell": ("t_s,intensity_gain\n0.0,1.0\n1.0,not-a-number\n", "malformed row"),
    "one_column_row": ("t_s,intensity_gain\n0.0,1.0\n1.0\n2.0,1.0\n", "malformed row"),
    "header_only": ("t_s,intensity_gain\n", "holds fewer than 2 samples"),
    "one_sample": ("t_s,intensity_gain\n0.0,1.0\n", "holds fewer than 2 samples"),
    "empty_file": ("", "is not an evolve series CSV"),
    "foreign_header": ("time,gain\n0.0,1.0\n1.0,2.0\n", "is not an evolve series CSV"),
    "zero_gain": ("t_s,intensity_gain\n0.0,1.0\n1.0,0.0\n2.0,1.0\n",
        "all gains must be finite and strictly positive"),
    "nan_gain": ("t_s,intensity_gain\n0.0,1.0\n1.0,nan\n2.0,1.0\n",
        "all gains must be finite and strictly positive"),
    # Made from a real series: every seventh sample dropped, or one NaN time.
    "thinned": (_thinned, "time column is not uniform"),
    "nan_time_second_row": (_nan_time(1), "time column is not uniform"),
    "nan_time_interior": (_nan_time(700), "time column is not uniform"),
    "missing": (lambda path, lines: None, "cannot read series"),
    "directory": (lambda path, lines: path.mkdir(), "cannot read series"),
    "foreign_csv": ("a,b\n1,2\n", "is not an evolve series CSV"),
    # A header that is not UTF-8: a Latin-1 byte, and a UTF-16 file.
    "latin1_header": (b"t_s,intensity_gain\xe9\n0.0,1.0\n1.0,2.0\n",
        "is not an evolve series CSV"),
    "utf16_file": ("t_s,intensity_gain\n0.0,1.0\n1.0,2.0\n".encode("utf-16"),
        "is not an evolve series CSV"),
}


@dataclass
class Refused:
    """The table's checks, run in one test's directory on its stderr, with
    a real series for pulse-stats (so only the config can be what refuses)
    and the shipped pulse-train config for the series rows."""

    tmp_path: Path
    capsys: pytest.CaptureFixture
    train_series: Path

    def at_load(self, name: str) -> Path:
        """Config row ``name`` refused by config_from_dict (JSON values) and
        by load_config; returns the path load_config read."""
        config, fragment = CONFIG[name]
        if not isinstance(config, bytes) and config is not None:
            with pytest.raises(ConfigError, match=re.escape(fragment)):
                config_from_dict(config)
        path = self.tmp_path / ("missing.json" if config is None else "config.json")
        if isinstance(config, bytes):
            path.write_bytes(config)
        elif config is not None:
            path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            load_config(path)
        return path

    def by(self, command: str, config: Path, series: Path, fragment: str) -> None:
        """``command`` on ``config`` (and ``series``, read by pulse-stats
        only) exits 2, writes no --out file, and names the ConfigError and
        the fragment on stderr."""
        out = self.tmp_path / "out"
        argv = [command, "--config", config, "--out", out]
        if command == "pulse-stats":
            argv += ["--series", series]
        self.capsys.readouterr()
        assert main([str(a) for a in argv]) == 2
        assert not out.exists()
        err = self.capsys.readouterr().err
        assert "ConfigError" in err and fragment in err

    def config(self, name: str, commands=COMMANDS) -> None:
        """Config row ``name`` refused at load and by each of ``commands``."""
        path = self.at_load(name)
        for command in commands:
            self.by(command, path, self.train_series, CONFIG[name][1])

    def series(self, name: str) -> None:
        """Series row ``name`` refused by read_evolve_csv and pulse-stats,
        then again with the real series' samples side-car copied beside it:
        a side-car never rescues a CSV that it was not written with."""
        make, fragment = SERIES[name]
        path = self.tmp_path / "series.csv"
        if isinstance(make, str):
            path.write_text(make)
        elif isinstance(make, bytes):
            path.write_bytes(make)
        else:
            make(path, self.train_series.read_text().splitlines())
        for side_car in (False, True):
            if side_car:
                shutil.copyfile(
                    f"{self.train_series}.samples.npz", f"{path}.samples.npz"
                )
            with pytest.raises(ConfigError, match=re.escape(fragment)):
                read_evolve_csv(path)
            self.by("pulse-stats", TRAIN_CONFIG, path, fragment)
