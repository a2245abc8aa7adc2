"""The validate suite on valid configs from the benchmark's documented ranges.

``data/bench_configs.json`` holds 24 configs frozen from
``bench/workloads.make_plan``: every config of validate_suite seeds 1, 2
and 16, of pulse_train seeds 1 and 2 and of spectral_scan seed 1, and the
dense spectral_scan seed 2 pair.  They include the two on which the
rho-linearity check once read 1.06e-12 and 1.78e-12 against its 1e-12
bound, and the one on which a last-bit change of the sideband coefficients
moved the old convergence ratio out of its band.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dressedprobe.config import config_from_dict
from dressedprobe.validation import ALL_CHECKS, run_all

BENCH_CONFIGS = json.loads(
    (Path(__file__).parent / "data" / "bench_configs.json").read_text()
)


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_every_check_passes(name):
    results = run_all(config_from_dict(BENCH_CONFIGS[name]))
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert len(results) == len(ALL_CHECKS) == 12
    assert not failed, failed


def test_pure_state_fails_cleanly():
    # A gas in one dressed state has no sideband part, so there is no
    # integration error, and no finite-difference residual above rounding,
    # whose order could be measured.
    results = run_all(config_from_dict({"state": {"alpha": 1.0, "beta": 0.0}}))
    assert len(results) == 12
    for name in ("rk4_convergence_order", "fd_residual_convergence"):
        check = next(r for r in results if r.name == name)
        assert not check.passed
        assert "no sideband part" in check.detail
