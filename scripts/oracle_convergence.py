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
from pathlib import Path

from dressedprobe import load_config
from dressedprobe.validation import (
    convergence_orders,
    fd_residuals,
    integration_errors,
)

REPO = Path(__file__).resolve().parents[1]


def run(out: Path) -> None:
    config = load_config(REPO / "configs" / "pulse_train.json")
    grids = [64, 128, 256, 512]
    studies = {
        "characteristic": integration_errors(config),
        "fd_residual": (grids, fd_residuals(config, grids)),
    }

    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["oracle,points,error"]
    for name, (points, errors) in studies.items():
        lines += [f"{name},{n},{err:.17g}" for n, err in zip(points, errors)]
    out.write_text("\n".join(lines) + "\n")

    print(f"wrote {out}")
    for name, (points, errors) in studies.items():
        orders = convergence_orders(points, errors)
        print(f"{name:14s} orders: " + ", ".join(f"{p:.3f}" for p in orders))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO / "out" / "oracle_convergence.csv",
        help="output CSV path",
    )
    run(parser.parse_args().out)
