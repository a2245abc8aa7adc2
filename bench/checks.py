"""Output checks for the benchmark, computed without calling dressedprobe.

Every value a command writes is checked against this file's own
evaluation of the documented formulas (README "dressedprobe", the
``modulation`` and ``dispersion`` module docstrings) in 30-digit mpmath
arithmetic:

    G(z, t) = K (f1 - f2)
    f1 = conj(alpha) beta (1 - exp(-i w' z / c)) exp(+i w' t) b1
    f2 = alpha conj(beta) (1 - exp(+i w' z / c)) exp(-i w' t) b2
    K  = 2 pi rho d^2 omega0^2 rabi / (hbar omega w'^3)
    b1 = (w' + det) / delta + (w' - det) / (delta + w')
    b2 = (w' - det) / delta + (w' + det) / (delta - w')

    n0 - 1 = pi rho (|alpha|^2 - |beta|^2) / (2 omega^2)
             * [(D+ + E) / (delta + w') - (D- + E) / (delta - w')]
    D+- = d^2 omega0^2 (w' -+ det)^2 / (hbar w'^2),  E = (e^2/m) rabi^2 / w'

with delta = omega_p - omega, omega_p = omega0 + det and w' the generalized
Rabi frequency.  Pole rows are predicted with the same double-precision
steps the documented interface implies (the probe frequency is
``omega_p - delta`` and the guard test is ``|denominator| <= guard``), so a
row on either side of a guard edge is classified exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import mpmath

mpmath.mp.dps = 30

C = mpmath.mpf("2.99792458e10")
HBAR = mpmath.mpf("1.054571817e-27")
E_CHARGE = mpmath.mpf("4.80320471257e-10")
M_ELECTRON = mpmath.mpf("9.1093837015e-28")

#: Relative agreement required between a written value and the 30-digit
#: evaluation, on top of the error of rebuilding delta from two optical
#: frequencies (at most two ulps of omega_p per denominator).
REL_TOL = 1e-12

VALIDATE_CHECKS = (
    "boundary_identity",
    "antiperiodicity",
    "modulation_periods",
    "zero_mean_jensen_geometric",
    "oracle_agreement",
    "oracle_randomized",
    "rk4_convergence_order",
    "fd_residual_convergence",
    "dispersion_identities",
    "beyond_dipole_non_saturating",
    "train_stats_closed_form",
    "guard_behavior",
)

STATS_FIELDS = ("period_s", "fwhm_s", "peak_gain", "min_gain", "depth")

SAMPLE_ROWS = 12


class Model:
    """Closed-form quantities of one benchmark config, in mpmath."""

    def __init__(self, config: dict):
        ens, pump, state = config["ensemble"], config["pump"], config["state"]
        self.omega0 = mpmath.mpf(ens["omega0"])
        self.d2 = mpmath.mpf(ens["d_squared"])
        self.rho = mpmath.mpf(ens["rho"])
        self.det = mpmath.mpf(pump["detuning"])
        self.rabi = mpmath.mpf(pump["rabi"])
        self.alpha = _complex(state["alpha"])
        self.beta = _complex(state["beta"])
        self.wp = mpmath.sqrt(self.det**2 + self.rabi**2)
        self.omega_p = self.omega0 + self.det
        self.theta = mpmath.mpf(config["z"]["theta"])
        self.probe_delta = config["probe"]["delta"]
        # Double-precision values as the documented interface forms them.
        self.f_omega_p = ens["omega0"] + pump["detuning"]
        self.f_wp = math.hypot(pump["detuning"], pump["rabi"])
        self.guard = config["guard"]
        self.f_det = pump["detuning"]
        # K * omega |alpha beta| |1 - exp(-i theta)|, for g_scale.
        self.f_k_omega = float(
            2 * mpmath.pi * self.rho * self.d2 * self.omega0**2 * self.rabi
            * abs(self.alpha) * abs(self.beta) * abs(1 - mpmath.expj(-self.theta))
            / (HBAR * self.wp**3)
        )

    @property
    def z(self):
        return self.theta * C / self.wp

    def _k(self, delta):
        omega = self.omega_p - delta
        return (
            2 * mpmath.pi * self.rho * self.d2 * self.omega0**2 * self.rabi
            / (HBAR * omega * self.wp**3)
        )

    def _brackets(self, delta):
        """((num, den) terms of b1, (num, den) terms of b2)."""
        wp, det = self.wp, self.det
        return (
            ((wp + det, delta), (wp - det, delta + wp)),
            ((wp - det, delta), (wp + det, delta - wp)),
        )

    def _coefficients(self, delta, theta) -> tuple:
        """(c1, c2, rounding scale) with G(t) = c1 e^{+i w' t} + c2 e^{-i w' t}."""
        delta = mpmath.mpf(delta)
        k = self._k(delta)
        terms1, terms2 = self._brackets(delta)
        b1 = sum(n / d for n, d in terms1)
        b2 = sum(n / d for n, d in terms2)
        ramp_red = 1 - mpmath.expj(-theta)
        c1 = k * mpmath.conj(self.alpha) * self.beta * ramp_red * b1
        c2 = -k * self.alpha * mpmath.conj(self.beta) * (1 - mpmath.expj(theta)) * b2
        scale = k * abs(self.alpha) * abs(self.beta) * abs(ramp_red)
        return c1, c2, scale * self._bracket_error(terms1 + terms2)

    def exponent(self, delta, t) -> tuple:
        """(G at the config plane and time t, bound on its rounding error)."""
        c1, c2, bound = self._coefficients(delta, self.theta)
        w = mpmath.expj(self.wp * mpmath.mpf(t))
        return c1 * w + c2 / w, bound

    def depth(self, theta=None):
        """Modulation depth R = |c1 + conj(c2)| at the probe offset."""
        theta = self.theta if theta is None else theta
        c1, c2, _ = self._coefficients(self.probe_delta, theta)
        return abs(c1 + mpmath.conj(c2))

    def index_parts(self, delta) -> tuple:
        """(dipole part, beyond-dipole part, error bound) of n0 - 1."""
        delta = mpmath.mpf(delta)
        wp, det = self.wp, self.det
        omega = self.omega_p - delta
        pref = (
            mpmath.pi * self.rho * (abs(self.alpha) ** 2 - abs(self.beta) ** 2)
            / (2 * omega**2)
        )
        d2w2 = self.d2 * self.omega0**2
        dip_plus = d2w2 * (wp - det) ** 2 / (HBAR * wp**2)
        dip_minus = d2w2 * (wp + det) ** 2 / (HBAR * wp**2)
        beyond = E_CHARGE**2 / M_ELECTRON * self.rabi**2 / wp
        dipole = pref * (dip_plus / (delta + wp) - dip_minus / (delta - wp))
        extra = pref * beyond * (1 / (delta + wp) - 1 / (delta - wp))
        terms = [
            (dip_plus + beyond, delta + wp),
            (dip_minus + beyond, delta - wp),
        ]
        return dipole, extra, abs(pref) * self._bracket_error(terms)

    def _bracket_error(self, terms) -> float:
        shift = 2.0 * math.ulp(self.f_omega_p)
        total = 0
        for num, den in terms:
            den = abs(den)
            total += abs(num) / den * (REL_TOL + shift / max(den - shift, 1e-300))
        return float(total)

    def g_scale(self, delta: float) -> float:
        """Sum of the magnitudes of the terms of G at offset delta.

        Bounds |G| and, times the unit round-off, the rounding error of any
        evaluation of G from those terms; double precision is enough here.
        """
        wp, det = self.f_wp, self.f_det
        brackets = (abs(wp + det) + abs(wp - det)) / abs(delta) + abs(wp - det) / abs(
            delta + wp
        ) + abs(wp + det) / abs(delta - wp)
        return self.f_k_omega / (self.f_omega_p - delta) * brackets

    def sweep_pole(self, delta: float) -> bool:
        delta_po = self.f_omega_p - (self.f_omega_p - delta)
        return not abs(delta_po) > self.guard or self.sideband_pole(delta_po)

    def sideband_pole(self, delta_po: float) -> bool:
        return not abs(delta_po + self.f_wp) > self.guard or not abs(
            delta_po - self.f_wp
        ) > self.guard


def _complex(value):
    if isinstance(value, list):
        return mpmath.mpc(value[0], value[1])
    return mpmath.mpc(value)


def depth_per_density(config: dict) -> float:
    """Largest modulation depth over z (theta = pi) per unit density."""
    unit = json.loads(json.dumps(config))
    unit["ensemble"]["rho"] = 1.0
    return float(Model(unit).depth(mpmath.pi))


def file_digest(path: Path) -> str:
    """sha256 of an output file.

    The validate report (the JSON output with a "checks" list) carries the
    suite's own elapsed time, the one field that may differ between
    identical runs; it is left out of the digest.
    """
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        if "checks" in report:
            report.pop("elapsed_s", None)
            data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _grid(config: dict) -> list[float]:
    spec = config["grids"]["delta"]
    start, stop, count = spec["start"], spec["stop"], spec["count"]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _read_table(path: Path, header: str) -> tuple[list[list[str]], list[str]]:
    lines = path.read_text().splitlines()
    problems = [] if lines and lines[0] == header else [f"{path.name}: bad header"]
    return [line.split(",") for line in lines[1:]], problems


def _close(value: float, reference, bound: float) -> bool:
    return abs(mpmath.mpf(value) - reference) <= bound


def check_sweep(path: Path, config: dict, rng: random.Random) -> list[str]:
    """Rows, pole placement, mirror columns and sampled values of a sweep."""
    model = Model(config)
    rows, problems = _read_table(path, "delta_rad_per_s,re_g_solid,re_g_dashed,pole")
    grid = _grid(config)
    if len(rows) != len(grid):
        return problems + [f"{path.name}: {len(rows)} rows, want {len(grid)}"]
    span = abs(grid[-1] - grid[0])
    poles_at, values = [], []
    for i, (delta_text, solid, dashed, marker) in enumerate(rows):
        delta = float(delta_text)
        if abs(delta - grid[i]) > 1e-12 * span:
            problems.append(f"{path.name} row {i}: delta {delta!r} off the grid")
        if model.sweep_pole(delta) != (marker == "POLE"):
            problems.append(f"{path.name} row {i}: POLE marker {marker!r} misplaced")
        if marker == "POLE":
            poles_at.append(i)
            if solid or dashed:
                problems.append(f"{path.name} row {i}: POLE row carries values")
        elif abs(float(dashed) + float(solid)) > REL_TOL * model.g_scale(delta):
            problems.append(f"{path.name} row {i}: re_g_dashed != -re_g_solid")
        else:
            values.append(i)
    t_solid = mpmath.pi / model.wp
    for i in _samples(values, poles_at, rng):
        delta, solid = float(rows[i][0]), float(rows[i][1])
        g, bound = model.exponent(delta, t_solid)
        if not _close(solid, g.real, bound):
            problems.append(f"{path.name} row {i}: Re G {solid!r} vs {mpmath.nstr(g.real, 17)}")
    return problems


def check_dispersion(path: Path, config: dict, rng: random.Random) -> list[str]:
    """Rows, sideband-pole placement, the index split and sampled values."""
    model = Model(config)
    rows, problems = _read_table(
        path, "omega_rad_per_s,n0,dipole_part,beyond_dipole_part,pole"
    )
    grid = _grid(config)
    if len(rows) != len(grid):
        return problems + [f"{path.name}: {len(rows)} rows, want {len(grid)}"]
    poles_at, values = [], []
    for i, (omega_text, n0, dipole, beyond, marker) in enumerate(rows):
        omega = float(omega_text)
        if abs(model.f_omega_p - grid[i] - omega) > 2 * math.ulp(omega):
            problems.append(f"{path.name} row {i}: omega {omega!r} off the grid")
        if model.sideband_pole(model.f_omega_p - omega) != (marker == "POLE"):
            problems.append(f"{path.name} row {i}: POLE marker {marker!r} misplaced")
        if marker == "POLE":
            poles_at.append(i)
            continue
        n0, dipole, beyond = float(n0), float(dipole), float(beyond)
        # Four roundings: forming n0 from 1 and the parts, and this check's
        # own subtraction and sum.
        if abs((n0 - 1.0) - (dipole + beyond)) > 2.0 * math.ulp(max(abs(n0), abs(n0 - 1.0), 1.0)):
            problems.append(f"{path.name} row {i}: n0 - 1 != dipole + beyond")
        values.append(i)
    for i in _samples(values, poles_at, rng):
        omega, dipole, beyond = float(rows[i][0]), float(rows[i][2]), float(rows[i][3])
        ref_dip, ref_beyond, bound = model.index_parts(model.omega_p - mpmath.mpf(omega))
        if not (_close(dipole, ref_dip, bound) and _close(beyond, ref_beyond, bound)):
            problems.append(f"{path.name} row {i}: index parts off the closed form")
    return problems


def check_evolve(path: Path, config: dict, rng: random.Random) -> list[str]:
    """Uniform time grid, sampled gains and the stats side-car."""
    model = Model(config)
    rows, problems = _read_table(path, "t_s,intensity_gain")
    tgrid = config["grids"]["t"]
    spp = tgrid["samples_per_period"]
    want = round(tgrid["periods"] * spp)
    if len(rows) != want:
        return problems + [f"{path.name}: {len(rows)} rows, want {want}"]
    period = 2 * mpmath.pi / model.wp
    dt, t0 = float(period / spp), float(model.z / C)
    times = [float(r[0]) for r in rows]
    gains = [float(r[1]) for r in rows]
    step_error = max(
        abs((times[i + 1] - times[i]) - dt) for i in range(len(times) - 1)
    )
    if abs(times[0] - t0) > 1e-12 * t0 or step_error > 1e-6 * dt:
        problems.append(f"{path.name}: time column is not t0 + i dt")
    if not all(g > 0 and math.isfinite(g) for g in gains):
        problems.append(f"{path.name}: non-positive or non-finite gain")
    for i in _samples(range(len(rows)), [], rng):
        g, bound = model.exponent(model.probe_delta, times[i])
        ref = mpmath.exp(2 * g.real)
        if abs(gains[i] / ref - 1) > 2 * bound + 1e-12:
            problems.append(f"{path.name} row {i}: gain {gains[i]!r} vs {mpmath.nstr(ref, 17)}")
    stats = json.loads(Path(f"{path}.stats.json").read_text())
    if "error" in stats:
        problems.append(f"{path.name}: stats error {stats['error']}")
    else:
        if abs(stats["period_s"] / float(period) - 1) > 1e-6:
            problems.append(f"{path.name}: period {stats['period_s']!r} is not 2 pi / w'")
        depth = model.depth()
        if abs(stats["depth"] / float(depth) - 1) > 1e-6:
            problems.append(f"{path.name}: depth {stats['depth']!r} vs {float(depth)!r}")
    return problems


def check_pulse_stats(path: Path, evolve_csv: Path) -> list[str]:
    """pulse-stats on the written CSV reproduces the evolve stats."""
    stats = json.loads(path.read_text())
    reference = json.loads(Path(f"{evolve_csv}.stats.json").read_text())
    if "error" in stats:
        return [f"{path.name}: {stats['error']}: {stats.get('message')}"]
    return [
        f"{path.name}: {key} {stats[key]!r} vs evolve {reference.get(key)!r}"
        for key in STATS_FIELDS
        if not abs(stats[key] - reference.get(key, math.nan)) <= 1e-9 * abs(stats[key])
    ]


def check_validate(path: Path) -> list[str]:
    """The report passes and lists every check of the suite as PASS."""
    report = json.loads(path.read_text())
    passed = {c["name"] for c in report.get("checks", []) if c.get("passed")}
    failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
    missing = [name for name in VALIDATE_CHECKS if name not in passed]
    if not report.get("passed") or failed or missing:
        return [f"{path.name}: failed {failed}, missing {missing}"]
    return []


def _samples(indices, poles_at: list[int], rng: random.Random) -> list[int]:
    """SAMPLE_ROWS seeded rows, plus the value rows that border a pole band,
    where the closed form is least well conditioned."""
    indices = list(indices)
    present = set(indices)
    edges = {i + d for i in poles_at for d in (-1, 1)} & present
    picked = set(rng.sample(indices, min(SAMPLE_ROWS, len(indices))))
    return sorted(picked | edges)
