#!/usr/bin/env python3
"""Convergence study of the two numerical oracles.

Emits a CSV with the characteristic-integration error of the sideband
part versus step count (expected order: four) and the finite-difference
residual versus grid density (expected order: two), both against the
closed-form envelope.  Its points column is the step count over 0.37
spatial periods for the integration and the grid points per period for
the residual.

Usage:
    python scripts/oracle_convergence.py [--out CSV]
"""

from __future__ import annotations

import argparse
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from dressedprobe import (
    CGS,
    derive_coefficients,
    exponent_grid,
    integrate_characteristic,
    load_config,
    log_amplitude_grid,
    residual_check,
)

REPO = Path(__file__).resolve().parents[1]


def run(out: Path) -> None:
    config = load_config(REPO / "configs" / "pulse_train.json")
    ensemble, pump = config.ensemble(), config.pump()
    state, probe = config.state(), config.probe()
    omega_prime = config.omega_prime()
    period = 2.0 * math.pi / omega_prime
    length = period * CGS.c
    coefs = derive_coefficients(ensemble, pump, state, probe)

    rows = []
    # The sideband part alone over 0.37 spatial periods: the constant D term
    # is integrated exactly and only adds rounding, and over a whole period
    # the oscillatory truncation terms cancel spectrally.
    sidebands = replace(coefs, d_coef=0.0)
    z_end = 0.37 * length
    closed = complex(
        exponent_grid(
            ensemble, pump, state, probe.omega, [z_end], [z_end / CGS.c]
        )[0, 0]
    )
    for per_period in (1000, 1414, 2000):
        steps = math.ceil(0.37 * per_period)
        numeric = integrate_characteristic(sidebands, z_end, 0.0, steps)
        rows.append(("characteristic", steps, abs(numeric - closed)))

    for n in (64, 128, 256, 512):
        z = np.linspace(0.0, length, n + 1)
        t = np.linspace(0.0, period, n + 1)
        grid = log_amplitude_grid(ensemble, pump, state, probe, z, t)
        rows.append(
            ("fd_residual", n, residual_check(grid, z, t, coefs, 64))
        )

    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["oracle,points,error"]
    lines += [f"{name},{n},{err:.17g}" for name, n, err in rows]
    out.write_text("\n".join(lines) + "\n")

    print(f"wrote {out}")
    for name in ("characteristic", "fd_residual"):
        points = [(n, err) for kind, n, err in rows if kind == name]
        orders = ", ".join(
            f"{math.log(e0 / e1) / math.log(n1 / n0):.3f}"
            for (n0, e0), (n1, e1) in zip(points, points[1:])
        )
        print(f"{name:14s} orders: {orders}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO / "out" / "oracle_convergence.csv",
        help="output CSV path",
    )
    run(parser.parse_args().out)
