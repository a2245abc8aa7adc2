"""Configuration schema: loading, defaults, and validation errors."""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dressedprobe import CGS, ConfigError, RunConfig, load_config
from dressedprobe.config import _SETTINGS, config_from_dict, config_to_dict

import refusals
from conftest import child_env

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


def test_utf8_config_loads_in_the_c_locale(tmp_path):
    # A config file is UTF-8 JSON whatever encoding the locale defaults to.
    path = tmp_path / "config.json"
    path.write_bytes('{"out_dir": "r\u00e9sultats"}'.encode())
    env = child_env() | {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    check = (
        "import sys; from dressedprobe import load_config; "
        "sys.exit(load_config(sys.argv[1]).out_dir != 'r\\u00e9sultats')"
    )
    child = subprocess.run(
        [sys.executable, "-c", check, str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr


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


@pytest.mark.parametrize("name", refusals.CONFIG)
def test_invalid_configs_rejected(refused, name):
    refused.config(name)


def test_every_key_named_by_a_refusal():
    fragments = [fragment for _, fragment in refusals.CONFIG.values()]
    unnamed = [key for _, key, _ in _SETTINGS if not any(key in f for f in fragments)]
    assert unnamed == []


# Named rows of the refusal table on the load paths, each under a test id of
# its own; test_invalid_configs_rejected runs every row on every path.


@pytest.mark.parametrize("name", [
    "rho-nan", "omega0-inf", "alpha-nan", "beta-nan", "guard-nan", "theta-inf", "periods-inf",
], ids=["raw0-ensemble.rho", "raw1-ensemble.omega0", "raw2-state.alpha", "raw3-state.beta",
        "raw4-guard", "raw5-z.theta", "raw6-grids.t.periods"])
def test_non_finite_values_rejected(refused, name):
    refused.at_load(name)


@pytest.mark.parametrize("name", [
    "key-rhoo", "key-guardd", "key-dotted", "key-z.phase", "key-grids.f", "key-grids.delta.n",
    "key-grids.t.period",
], ids=["raw0-ensemble.rhoo", "raw1-guardd", "raw2-ensemble.rho", "raw3-z.phase",
        "raw4-grids.f", "raw5-grids.delta.n", "raw6-grids.t.period"])
def test_unknown_keys_rejected(refused, name):
    refused.at_load(name)


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


def test_non_finite_override_rejected():
    # CLI overrides bypass the loader and land in RunConfig directly.
    with pytest.raises(ConfigError, match="guard"):
        dataclasses.replace(RunConfig(), guard=NAN)


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
