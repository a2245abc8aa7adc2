"""Shared fixtures: documented parameter sets and frozen oracle values.

The FROZEN values were computed independently with 50-digit mpmath
arithmetic from the closed-form expressions (see tests/oracles.py) and are
asserted against the double-precision implementation at 1e-12 relative.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import pytest

import dressedprobe
from dressedprobe import DressedGas

# Documented optical-regime parameter set (angular frequencies, rad/s).
OMEGA0 = 1e15
D_SQUARED = 2e-34
RHO_DENSE = 2e15
RHO_TRAIN = 6e14
DETUNING = -2e11
RABI = 2e10
PROBE_DELTA = 2e9
ALPHA = math.sqrt(0.99)
BETA = 0.1

FROZEN = {
    "omega_prime": 200997512422.4178054,
    "lambda_plus": 200498756211.2089027,
    "lambda_minus": -498756211.20890270219,
    "n_plus": 0.049813701880159761595,
    "n_minus": 0.99875852692479905948,
    "t_mod": 3.1260015268123316026e-11,
    "l_mod": 0.93715168143482179586,
    "b1": 2.4741376217356559815,
    "b2": 200.49374352331006929,
    "k_dense": 5.8709635386874990817,     # rho = 2e15
    "k_train": 1.7612890616062497245,     # rho = 6e14
    "re_g_dense": 231.34769031423374248,  # theta = pi, w't = pi, rho = 2e15
    "depth_train": 69.404307094270122744,  # theta = pi, rho = 6e14
    "fwhm_train": 9.9480903372356392151e-13,
    "n0_minus_1_dense": 0.011453015778725525782,
    "beyond_dipole_fraction": 6.6770815385428077442e-7,
    "rs_over_ls": 81.035808906482648628,
}


def child_env() -> dict:
    """The parent's environment, with the imported package's root first on
    PYTHONPATH, so a child run from another directory imports the same
    code whether the package is installed or loaded from a checkout.  A
    floating-point RuntimeWarning is an error in the child, as it is under
    pytest's ``filterwarnings``."""
    env = dict(os.environ)
    root = str(Path(dressedprobe.__file__).resolve().parents[1])
    paths = [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    filters = [f for f in env.get("PYTHONWARNINGS", "").split(",") if f]
    env["PYTHONWARNINGS"] = ",".join(filters + ["error::RuntimeWarning"])
    return env


def documented_gas(rho: float = RHO_DENSE) -> DressedGas:
    return DressedGas(
        omega0=OMEGA0,
        d=math.sqrt(D_SQUARED),
        rho=rho,
        detuning=DETUNING,
        rabi=RABI,
        alpha=ALPHA,
        beta=BETA,
    )


@pytest.fixture(scope="session")
def gas_dense() -> DressedGas:
    return documented_gas(RHO_DENSE)


@pytest.fixture(scope="session")
def gas_train() -> DressedGas:
    return documented_gas(RHO_TRAIN)


@pytest.fixture(scope="session")
def probe(gas_dense) -> float:
    return gas_dense.omega_p - PROBE_DELTA
