"""Configuration schema: loading, defaults, and validation errors."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dressedprobe import CGS, ConfigError, RunConfig, load_config
from dressedprobe.config import config_from_dict, config_to_dict

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NAN = float("nan")
INF = float("inf")


def test_defaults_match_shipped_file():
    shipped = load_config(REPO_CONFIGS / "default.json")
    assert shipped == RunConfig()


def test_pulse_train_config_loads():
    config = load_config(REPO_CONFIGS / "pulse_train.json")
    assert config.rho == 6e14
    assert config.t_periods == 4.0


def test_round_trip_through_dict():
    config = RunConfig()
    assert config_from_dict(config_to_dict(config)) == config


@pytest.mark.parametrize("name", ["default.json", "pulse_train.json"])
def test_shipped_config_written_back_as_its_file(name):
    # This dict is the config block of the validate report.
    path = REPO_CONFIGS / name
    assert config_to_dict(load_config(path)) == json.loads(path.read_text())


def test_z_plane_from_theta():
    by_theta = RunConfig()
    z = by_theta.z_fixed()
    assert z == pytest.approx(
        math.pi * CGS.c / by_theta.omega_prime(), rel=1e-12
    )


def test_partial_config_uses_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"ensemble": {"rho": 1e13}}))
    config = load_config(path)
    assert config.rho == 1e13
    assert config.detuning == RunConfig().detuning


def test_complex_amplitudes_as_pairs():
    config = config_from_dict(
        {"state": {"alpha": [0.0, math.sqrt(0.5)], "beta": math.sqrt(0.5)}}
    )
    assert config.alpha == complex(0.0, math.sqrt(0.5))


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"grids": {"delta": {}}}, "missing key grids.delta.start"),
        ({"guard": -1.0}, "guard"),
        ({"steps": 0}, "steps"),
        ({"grids": {"delta": {"start": 0.0, "stop": 1.0, "count": 0}}}, "count"),
        ({"ensemble": {"omega0": "fast"}}, "number"),
        ({"state": {"alpha": 1.0, "beta": 1.0}}, "invalid physical"),
        ({"pump": {"detuning": 0.0, "rabi": 0.0}}, "invalid physical"),
        (
            {"grids": {"delta": {"start": 0.0, "stop": 2e15, "count": 2}}},
            "non-positive probe",
        ),
        ({"probe": {"delta": 2e15}}, "probe omega must be strictly positive"),
        (
            {"grids": {"delta": {"start": -1.0, "stop": 1.0}}},
            "missing key grids.delta.count",
        ),
        ({"z": {"theta": -1.0}}, "z.theta must be non-negative"),
        ({"pump": {"detuning": -2e15}}, "omega_p must be strictly positive"),
        (
            {"grids": {"delta": {"start": -1.0, "count": 3}}},
            "missing key grids.delta.stop",
        ),
        (
            {"grids": {"delta": {"start": 1.0, "stop": -1.0, "count": 3}}},
            "grid stop must exceed start",
        ),
        (
            {"grids": {"delta": {"start": -INF, "stop": 1.0, "count": 3}}},
            "grids.delta.start must be finite, got -inf",
        ),
        ({"z": 1.0}, "section z must be an object"),
        ({"grids": {"t": [3.0, 1024]}}, "section grids.t must be an object"),
        ({"grids": {"delta": None}}, "section grids.delta must be an object"),
        ([], "config root must be a JSON object"),
        ({"out_dir": 1}, "out_dir must be a string"),
        ({"ensemble": {"d_squared": -1.0}}, "d_squared must be non-negative"),
        ({"grids": {"t": {"periods": 0.0}}}, "time grid must be non-empty"),
        ({"grids": {"t": {"samples_per_period": 0}}}, "time grid must be non-empty"),
        # |alpha|^2 overflows a float: found by the config fuzz below.
        ({"state": {"alpha": 1e308}}, "invalid physical"),
        ({"state": {"beta": [0.0, -1e308]}}, "invalid physical"),
        # One offset: delta_values() holds only start, which is bounded.
        (
            {"grids": {"delta": {"start": 2e15, "stop": 0.0, "count": 1}}},
            "non-positive probe",
        ),
        # JSON integers beyond the float range, as json.loads returns them.
        ({"ensemble": {"rho": 10**400}}, "ensemble.rho must be finite"),
        (
            {"grids": {"delta": {"start": -1.0, "stop": 1.0, "count": 10**400}}},
            "grids.delta.count must be finite",
        ),
        ({"state": {"alpha": -(10**400)}}, "state.alpha must be finite"),
        ({"state": {"beta": [0.0, 10**400]}}, "state.beta must be finite"),
        # Grids too large to allocate, and a plane whose phase overflows.
        (
            {"grids": {"delta": {"start": -4e11, "stop": 4e11, "count": 2 * 10**18}}},
            "grids.delta.count must be <= 4194304",
        ),
        ({"grids": {"t": {"periods": 1e15}}}, "grids.t.samples_per_period"),
        ({"z": {"theta": 1e300}}, "z.theta .* non-finite phase"),
    ],
)
def test_invalid_configs_rejected(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(raw)


def test_steps_ceiling():
    # 2**15 steps per period: Simpson's error there is far below rounding.
    with pytest.raises(ConfigError, match=r"steps must be in 1\.\.32768, got 32769"):
        config_from_dict({"steps": 32769})
    assert config_from_dict({"steps": 32768}).steps == 32768


def test_grid_ceilings():
    # 2**22 offsets or samples: four times the largest scaled series.
    assert config_from_dict(
        {"grids": {"delta": {"start": -1.0, "stop": 1.0, "count": 2**22}}}
    ).delta_count == 2**22
    with pytest.raises(ConfigError, match="grids.delta.count"):
        config_from_dict(
            {"grids": {"delta": {"start": -1.0, "stop": 1.0, "count": 2**22 + 1}}}
        )
    # validate samples 4 periods even where the config asks for fewer.
    spp = {"samples_per_period": 2**20}
    assert config_from_dict({"grids": {"t": {"periods": 4.0, **spp}}})
    with pytest.raises(ConfigError, match="grids.t.samples_per_period"):
        config_from_dict({"grids": {"t": {"periods": 4.5, **spp}}})
    with pytest.raises(ConfigError, match="grids.t.samples_per_period"):
        config_from_dict(
            {"grids": {"t": {"periods": 3.0, "samples_per_period": 2**21}}}
        )


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(undecodable)


def test_grid_values_inclusive_endpoints():
    grid = RunConfig(delta_start=-1.0, delta_stop=1.0, delta_count=5)
    assert grid.delta_values().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    one = RunConfig(delta_start=3.0, delta_stop=3.0, delta_count=1)
    assert one.delta_values().tolist() == [3.0]
    # One offset leaves stop unused, so a stop past the pump is not refused.
    far = RunConfig(delta_start=0.0, delta_stop=2e15, delta_count=1)
    assert far.delta_values().tolist() == [0.0]


@pytest.mark.parametrize(
    "grid",
    [{}, {"delta_start": -2.01e11, "delta_stop": 2.01e11, "delta_count": 20001}],
    ids=["default", "20001_points"],
)
def test_delta_values_bit_equal_to_python_loop(grid):
    config = RunConfig(**grid)
    start, count = config.delta_start, config.delta_count
    step = (config.delta_stop - start) / (count - 1)
    expected = np.array([start + i * step for i in range(count)])
    values = config.delta_values()
    assert values[0] == start and values[-1] == config.delta_stop
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"ensemble": {"rho": NAN}}, "ensemble.rho"),
        ({"ensemble": {"omega0": INF}}, "ensemble.omega0"),
        ({"state": {"alpha": NAN}}, "state.alpha"),
        ({"state": {"beta": [0.1, NAN]}}, "state.beta"),
        ({"guard": NAN}, "guard"),
        ({"z": {"theta": INF}}, "z.theta"),
        ({"grids": {"t": {"periods": INF}}}, "grids.t.periods"),
    ],
)
def test_non_finite_values_rejected(raw, fragment):
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        config_from_dict(raw)


def test_non_finite_override_rejected():
    # CLI overrides bypass the loader and land in RunConfig directly.
    with pytest.raises(ConfigError, match="guard"):
        dataclasses.replace(RunConfig(), guard=NAN)


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"steps": 1.9}, "steps"),
        ({"grids": {"delta": {"start": -1.0, "stop": 1.0, "count": 2.5}}}, "count"),
        ({"grids": {"t": {"samples_per_period": 512.5}}}, "samples_per_period"),
        ({"state": {"alpha": True}}, "state.alpha"),
        ({"state": {"beta": [False, 0.1]}}, "state.beta"),
    ],
)
def test_booleans_and_fractional_counts_rejected(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "raw, name",
    [
        ({"ensemble": {"rhoo": 1.0}}, "ensemble.rhoo"),
        ({"guardd": 1.0}, "guardd"),
        ({"ensemble.rho": 1.0}, "ensemble.rho"),
        ({"z": {"phase": 1.0}}, "z.phase"),
        ({"grids": {"f": {}}}, "grids.f"),
        ({"grids": {"delta": {"start": 0.0, "stop": 1.0, "count": 3, "n": 1}}}, "grids.delta.n"),
        ({"grids": {"t": {"period": 3.0}}}, "grids.t.period"),
    ],
)
def test_unknown_keys_rejected(raw, name):
    with pytest.raises(ConfigError, match=f"unknown key {re.escape(name)}"):
        config_from_dict(raw)


def _leaves(raw: dict, where: tuple = ()) -> list[tuple]:
    """The key path of every leaf of a nested config dict."""
    paths = []
    for key, value in raw.items():
        if isinstance(value, dict):
            paths += _leaves(value, where + (key,))
        else:
            paths.append(where + (key,))
    return paths


_DEFAULT_DICT = config_to_dict(RunConfig())
_LEAVES = _leaves(_DEFAULT_DICT)
_SECTIONS = [()] + sorted({path[:n] for path in _LEAVES for n in range(1, len(path))})
_BAD_VALUES = [
    NAN, INF, -INF, True, False, "1.0", None, 0.5, 2.5, -1, -1.0, 0, 0.0,
    1e308, -1e308, [1.0], [1.0, 2.0], [NAN, 0.0], {}, {"x": 1},
]


def _loads_or_refuses(replaced: dict, unknown=()) -> None:
    """The default config with the ``replaced`` leaves and an unknown key in
    each ``unknown`` section either loads into a config that writes itself
    back unchanged, or is refused with ConfigError; nothing else escapes."""
    raw = json.loads(json.dumps(_DEFAULT_DICT))

    def section(path: tuple) -> dict:
        found = raw
        for head in path:
            found = found[head]
        return found

    for path, value in replaced.items():
        section(path[:-1])[path[-1]] = value
    for where in unknown:
        section(where)["unknown_key"] = 1.0
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert config_from_dict(config_to_dict(config)) == config


def test_every_bad_leaf_loads_or_refuses():
    for path in _LEAVES:
        for value in _BAD_VALUES:
            _loads_or_refuses({path: value})


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    replaced=st.dictionaries(
        st.sampled_from(_LEAVES), st.sampled_from(_BAD_VALUES), max_size=4
    ),
    unknown=st.lists(st.sampled_from(_SECTIONS), max_size=2),
)
def test_config_fuzz_loads_or_refuses(replaced, unknown):
    _loads_or_refuses(replaced, unknown)
