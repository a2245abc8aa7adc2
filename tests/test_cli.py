"""Command-line harness: subcommands, CSV/JSON emission, determinism."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from dressedprobe import CGS, ConfigError, ProbeField, ResonancePole
from dressedprobe.cli import main, read_evolve_csv
from dressedprobe.config import RunConfig, load_config
from dressedprobe.dispersion import refractive_index
from dressedprobe.modulation import exponent
from dressedprobe.pulsetrain import analyze_train

from conftest import FROZEN

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

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli(
            "sweep-frequency",
            "--config",
            DEFAULT_CONFIG,
            "--out",
            out,
            "--format",
            "json",
        )
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "delta_rad_per_s"
        assert len(payload["rows"]) == 401


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

    def test_too_short_span_rejected(self, tmp_path):
        config = write_config(tmp_path, **{"grids.t.periods": 2.0})
        assert run_cli("evolve", "--config", config) == 2

    def test_overflowing_gain_rejected(self, tmp_path):
        config = write_config(tmp_path, **{"ensemble.rho": 2e17})
        assert run_cli("evolve", "--config", config) == 2


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

    def test_rejects_foreign_csv(self, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("a,b\n1,2\n")
        assert (
            run_cli(
                "pulse-stats",
                "--config",
                TRAIN_CONFIG,
                "--series",
                bogus,
                "--out",
                tmp_path / "stats.json",
            )
            == 2
        )

    def test_rejects_non_uniform_series(self, tmp_path):
        series_path = tmp_path / "evolve.csv"
        run_cli("evolve", "--config", TRAIN_CONFIG, "--out", series_path)
        header, *rows = series_path.read_text().splitlines()
        thinned = tmp_path / "thinned.csv"
        kept = [row for i, row in enumerate(rows) if i % 7 != 6]
        thinned.write_text("\n".join([header, *kept]) + "\n")
        with pytest.raises(ConfigError, match="uniform"):
            read_evolve_csv(thinned)
        assert (
            run_cli(
                "pulse-stats",
                "--config",
                TRAIN_CONFIG,
                "--series",
                thinned,
                "--out",
                tmp_path / "stats.json",
            )
            == 2
        )

    def test_rejects_malformed_rows(self, tmp_path):
        mangled = tmp_path / "mangled.csv"
        mangled.write_text("t_s,intensity_gain\n0.0,1.0\n1.0,not-a-number\n")
        assert (
            run_cli(
                "pulse-stats",
                "--config",
                TRAIN_CONFIG,
                "--series",
                mangled,
                "--out",
                tmp_path / "stats.json",
            )
            == 2
        )


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
        config = write_config(tmp_path)
        assert (
            run_cli(
                "validate", "--config", config, "--steps", 10, "--out", out
            )
            == 1
        )


class TestBadConfigRefused:
    def test_nan_density_refused(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"ensemble": {"rho": NaN}}')
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-frequency", "--config", path, "--out", out) == 2
        assert not out.exists()

    def test_nan_guard_override_refused(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert (
            run_cli(
                "dispersion-scan",
                "--config",
                DEFAULT_CONFIG,
                "--guard",
                "nan",
                "--out",
                out,
            )
            == 2
        )
        assert not out.exists()

    def test_unknown_key_refused(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text('{"ensemble": {"rhoo": 1}}')
        out = tmp_path / "report.json"
        assert run_cli("validate", "--config", path, "--out", out) == 2
        assert "ensemble.rhoo" in capsys.readouterr().err


def _guard_edge_config(tmp_path) -> Path:
    """Default grid, guard equal to one row's +w' sideband |denominator|."""
    config = RunConfig()
    pump = config.pump()
    delta = config.delta_grid.values()[100]  # -2e11, next to -w'
    delta_po = pump.omega_p - (pump.omega_p - delta)
    return write_config(
        tmp_path, guard=abs(delta_po + config.omega_prime())
    )


def _table(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize(
    "grid", ["default", "three_poles", "guard_edge", "complex_state"]
)
def test_array_rows_equal_scalar_wrappers(tmp_path, grid):
    """Every value cell equals the scalar API with ==; POLE rows sit exactly
    where the scalar API raises ResonancePole."""
    omega_prime = RunConfig().omega_prime()
    if grid == "default":
        path = DEFAULT_CONFIG
    elif grid == "three_poles":
        path = write_config(
            tmp_path,
            **{
                "grids.delta": {
                    "start": -omega_prime,
                    "stop": omega_prime,
                    "count": 201,
                }
            },
        )
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
    ensemble, pump, state = config.ensemble(), config.pump(), config.state()
    z, guard = config.z_fixed(), config.guard
    sweep, scan = tmp_path / "sweep.csv", tmp_path / "scan.csv"
    assert run_cli("sweep-frequency", "--config", path, "--out", sweep) == 0
    assert run_cli("dispersion-scan", "--config", path, "--out", scan) == 0

    sweep_poles = set()
    for i, (delta, solid, dashed, marker) in enumerate(_table(sweep)):
        probe = ProbeField(omega=pump.omega_p - float(delta))
        try:
            expected = [
                exponent(ensemble, pump, state, probe, z, t, guard).g.real
                for t in (math.pi / omega_prime, 2.0 * math.pi / omega_prime)
            ]
        except ResonancePole:
            assert (marker, solid, dashed) == ("POLE", "", "")
            sweep_poles.add(i)
            continue
        assert marker == ""
        assert [float(solid), float(dashed)] == expected

    scan_poles = set()
    for i, (omega, n0, dipole, beyond, marker) in enumerate(_table(scan)):
        try:
            result = refractive_index(ensemble, pump, state, float(omega), guard)
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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")
