"""The package's public names and the scripts that import them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import dressedprobe

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_all_names_resolve_sorted_and_unique():
    names = dressedprobe.__all__
    missing = [name for name in names if not hasattr(dressedprobe, name)]
    assert not missing, missing
    assert names == sorted(set(names))


def _run_script(name: str, *args) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracle_convergence_script(tmp_path):
    out = tmp_path / "convergence.csv"
    stdout = _run_script("oracle_convergence.py", "--out", out)
    orders = {
        line.split()[0]: [float(p) for p in line.split(":")[1].split(",")]
        for line in stdout.splitlines()
        if " orders: " in line
    }
    assert orders["characteristic"] == pytest.approx([4.0] * 2, abs=0.5)
    assert orders["fd_residual"] == pytest.approx([2.0] * 3, abs=0.25)
    assert len(out.read_text().splitlines()) == 1 + 3 + 4


def test_reproduce_figures_script(tmp_path):
    stdout = _run_script("reproduce_figures.py", "--outdir", tmp_path)
    assert "pulse-train statistics at theta = pi:" in stdout
    for name in (
        "exponent_vs_frequency_difference.csv",
        "pulse_train.csv",
        "pulse_train.csv.stats.json",
    ):
        assert (tmp_path / name).stat().st_size > 0
