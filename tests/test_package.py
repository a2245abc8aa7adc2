"""The package's public names and the modules each entry point loads."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dressedprobe
import dressedprobe.cli

from conftest import child_env

REPO = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = REPO / "configs" / "default.json"


def test_all_names_resolve_sorted_and_unique():
    names = dressedprobe.__all__
    missing = [name for name in names if not hasattr(dressedprobe, name)]
    assert not missing, missing
    assert names == sorted(set(names))
    assert set(names) <= set(dir(dressedprobe))


def test_no_function_takes_a_guard():
    # The pole guard is a field of DressedGas, set once per gas.  Every
    # function of every module is checked, those in __all__ among them.
    takes = [
        f"{fn.__module__}.{fn.__name__}"
        for info in pkgutil.iter_modules(dressedprobe.__path__)
        for fn in vars(importlib.import_module(f"dressedprobe.{info.name}")).values()
        if inspect.isfunction(fn) and "guard" in inspect.signature(fn).parameters
    ]
    assert not takes, takes
    assert "guard" in inspect.signature(dressedprobe.DressedGas).parameters


def _loaded_modules(code: str, cwd: Path) -> list[str]:
    """The ``dressedprobe.*`` modules a fresh interpreter holds after
    running ``code``."""
    code += (
        "\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m.startswith('dressedprobe.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    return [name.removeprefix("dressedprobe.") for name in last.split()]


SET_UP = ["cli", "config", "constants", "dressed", "errors"]


def test_package_import_loads_no_module(tmp_path):
    assert _loaded_modules("import dressedprobe", tmp_path) == []


def test_cli_set_up_loads_only_the_config_layers(tmp_path):
    code = (
        "import dressedprobe.cli\n"
        "from dressedprobe.config import load_config\n"
        f"load_config({str(DEFAULT_CONFIG)!r})"
    )
    assert _loaded_modules(code, tmp_path) == SET_UP


@pytest.mark.parametrize(
    "command, layers",
    [
        ("sweep-frequency", ["dispersion", "modulation", "table"]),
        ("dispersion-scan", ["dispersion", "table"]),
        ("evolve", ["dispersion", "modulation", "pulsetrain", "table"]),
        ("pulse-stats", ["pulsetrain"]),
        (
            "validate",
            ["characteristics", "dispersion", "modulation", "pulsetrain", "validation"],
        ),
    ],
)
def test_each_subcommand_loads_only_its_layers(tmp_path, command, layers):
    # Without cached bytecode every imported module is compiled on every
    # run, so a subcommand imports only the layers it runs.
    argv = [command, "--config", str(DEFAULT_CONFIG), "--out", "out"]
    if command == "pulse-stats":
        dressedprobe.cli.main(["evolve", "--out", str(tmp_path / "e.csv")])
        argv += ["--series", "e.csv"]
    code = f"from dressedprobe import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_modules(code, tmp_path) == sorted(SET_UP + layers)
